package main

// conv-tiled and conv-shards: the routed conv/pool/read-out stack on a
// 2x2 chip tile, in process and over two shard processes, closed loop
// with one client. Both serve the same mapping and inputs, so the gap
// between them is the shard exchange layer.

import (
	"fmt"
	"sort"
	"time"

	"github.com/neurogo/neurogo"
)

const (
	// convInputs are served in the timed phase; the correctness checks
	// run over convCheckInputs, of which they are the first.
	convInputs      = 64
	convCheckInputs = 256
	convShards      = 2
)

type convRig struct {
	m      *convModel
	p      *neurogo.Pipeline
	shards *shardSet // nil in process
}

func (rg *convRig) close() error {
	rg.p.Close()
	if rg.shards != nil {
		_, err := rg.shards.stop()
		return err
	}
	return nil
}

func buildConv(remote bool, dir string) func(*setupClock) (*convRig, error) {
	return func(c *setupClock) (*convRig, error) {
		m, err := buildConvModel(c)
		if err != nil {
			return nil, err
		}
		rg := &convRig{m: m}
		opts := convPipelineOpts(m)
		if remote {
			if rg.shards, err = startShards(m.mapping, convShards, dir); err != nil {
				return nil, err
			}
			c.lap(layerRemote)
			opts = append(opts, neurogo.WithRemoteSystem(rg.shards.addrs()...), neurogo.WithExchangeWindow(0))
		} else {
			opts = append(opts, neurogo.WithSystem(m.chipX, m.chipY))
		}
		if rg.p, err = neurogo.NewPipeline(m.mapping, opts...); err != nil {
			if rg.shards != nil {
				rg.shards.stop()
			}
			return nil, err
		}
		c.lap(layerPipeline)
		return rg, nil
	}
}

// closedLoopRun is one closed-loop phase.
type closedLoopRun struct {
	lat, done []time.Duration
	class     []int
	failed    int
}

func newClosedLoopRun(capacity int) *closedLoopRun {
	return &closedLoopRun{
		lat: make([]time.Duration, 0, capacity), done: make([]time.Duration, 0, capacity),
		class: make([]int, 0, capacity),
	}
}

// closedLoop classifies whole rounds of xs, one request at a time,
// until seconds have passed, recording into run (whose buffers the
// caller sizes, so the benchmark allocates nothing per request).
func closedLoop(p *neurogo.Pipeline, xs [][]float64, seconds float64, run *closedLoopRun) {
	limit := time.Duration(seconds * float64(time.Second))
	start := time.Now()
	for len(run.lat) == 0 || time.Since(start) < limit {
		for _, x := range xs {
			t0 := time.Now()
			c, err := p.Classify(bg, x)
			t1 := time.Now()
			if err != nil {
				run.failed++
			}
			run.lat = append(run.lat, t1.Sub(t0))
			run.done = append(run.done, t1.Sub(start))
			run.class = append(run.class, c)
		}
	}
}

func runConv(o options, remote bool) (*report, error) {
	name := "conv-tiled"
	if remote {
		name = "conv-shards"
	}
	r := newReport(name)
	gen := neurogo.NewDigitGenerator(convSize, 0.02, 2, o.seed)
	checkXs, checkYs := gen.Batch(convCheckInputs)
	xs := checkXs[:convInputs]
	rg, st, err := repeatSetup(buildConv(remote, o.scratch), func(rg *convRig) { rg.close() })
	if err != nil {
		return nil, err
	}
	closed := false
	defer func() {
		if !closed {
			rg.close()
		}
	}()

	// Reference outputs: the ternary model over the float conv
	// features, and (for shards) an in-process run of the same mapping.
	ref := make([]int, len(checkXs))
	for i, x := range checkXs {
		ref[i] = ternaryArgmax(rg.m.tern, convFeatures(rg.m.kernels, x))
	}
	u0 := rg.p.Usage(false)
	checkPreds := make([]int, len(checkXs))
	for i, x := range checkXs {
		if checkPreds[i], err = rg.p.Classify(bg, x); err != nil {
			return nil, err
		}
	}
	checkAgreement(r, "chip", checkPreds, ref, checkYs)
	if remote {
		if err := checkAgainstInProcess(r, rg, checkXs, checkPreds, usageSub(rg.p.Usage(false), u0)); err != nil {
			return nil, err
		}
	}
	seq := checkPreds[:len(xs)]

	// Warm-up round, which also sizes the timed phase's buffers.
	t0 := time.Now()
	closedLoop(rg.p, xs, 0, newClosedLoopRun(len(xs)))
	rate := float64(len(xs)) / time.Since(t0).Seconds()
	seconds := o.seconds
	if o.trace {
		seconds /= 3
	}
	capacity := int(rate*seconds*1.5) + 2*len(xs)

	var sh0 []procUsage
	if remote {
		if sh0, err = rg.shards.usage(); err != nil {
			return nil, err
		}
	}
	run := newClosedLoopRun(capacity)
	u0 = rg.p.Usage(true)
	ph := beginPhase()
	closedLoop(rg.p, xs, seconds, run)
	_, cpu, al := ph.end()
	usage := usageSub(rg.p.Usage(true), u0)
	n := len(run.lat)
	r.attempted, r.failed = n, run.failed
	mismatch := 0
	for i, c := range run.class {
		if c != seq[i%len(xs)] {
			mismatch++
		}
	}
	r.check("timed predictions equal the reference pass", mismatch == 0,
		fmt.Sprintf("%d of %d differ", mismatch, n))
	rss, err := peakRSSKiB()
	if err != nil {
		return nil, err
	}
	var shardCPU time.Duration
	if remote {
		sh1, err := rg.shards.usage()
		if err != nil {
			return nil, err
		}
		for i := range sh1 {
			shardCPU += time.Duration(sh1[i].CPUNanos - sh0[i].CPUNanos)
			rss += sh1[i].PeakRSSKB
		}
		r.note("exchange window %d ticks (widest proven exact for this mapping)", neurogo.MaxExchangeWindow(rg.m.mapping))
	}

	if !o.trace {
		done := append([]time.Duration(nil), run.done...)
		sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
		e := &endToEnd{ops: n, done: done, latencyMs: sortedMillis(run.lat), cpu: cpu + shardCPU, al: al,
			energyPJ: energyPJ(r, usage), simTicks: float64(usage.Ticks) / float64(n),
			peakRSSKB: rss, setup: st, latencyWhy: "of one Classify call"}
		e.record(r)
		closed = true
		if err := rg.close(); err != nil {
			return nil, err
		}
		return r, nil
	}

	t := &traceResult{publicAlloc: float64(al.Objects) / float64(n)}
	var latSum time.Duration
	for _, l := range run.lat {
		latSum += l
	}
	t.publicWall = latSum / time.Duration(n)
	rep := &classifyReplay{
		enc: neurogo.NewBinaryEncoder(0.5, convWindow), dec: neurogo.NewCounterDecoder(neurogo.NumDigitClasses),
		lines: neurogo.TwinLines(rg.m.conv.LinesFor), classes: rg.m.fc.ClassOf,
		window: convWindow, drain: convDrain,
	}
	var clk *rpcClock
	closeReplay := func() {}
	if remote {
		clk = &rpcClock{}
		runner, sys, err := dialTimed(rg.m.mapping, rg.shards.addrs(), clk)
		if err != nil {
			return nil, err
		}
		closeReplay = func() { sys.Close() }
		rep.runner = runner
	} else {
		cfg := neurogo.SystemConfig{ChipCoresX: rg.m.chipX, ChipCoresY: rg.m.chipY}
		if rep.runner, err = neurogo.NewSystemRunner(rg.m.mapping, cfg, neurogo.EngineEvent, 1); err != nil {
			return nil, err
		}
	}
	err = replayClassify(r, t, rep, xs, seq, o.seconds/6, clk, rg.shards)
	closeReplay()
	if err != nil {
		return nil, err
	}
	recordSetupLayers(r, st)
	t.record(r)
	closed = true
	if err := rg.close(); err != nil {
		return nil, err
	}
	return r, nil
}

// checkAgainstInProcess classifies xs on an in-process tile of the same
// mapping and requires the shard run's predictions, chip counters and
// boundary traffic (remoteUsage, over the same inputs) to be identical.
func checkAgainstInProcess(r *report, rg *convRig, xs [][]float64, preds []int, remoteUsage neurogo.EnergyUsage) error {
	opts := append(convPipelineOpts(rg.m), neurogo.WithSystem(rg.m.chipX, rg.m.chipY))
	p, err := neurogo.NewPipeline(rg.m.mapping, opts...)
	if err != nil {
		return err
	}
	defer p.Close()
	differ := 0
	for i, x := range xs {
		c, err := p.Classify(bg, x)
		if err != nil {
			return err
		}
		if c != preds[i] {
			differ++
		}
	}
	local := p.Usage(false)
	r.check("shard predictions equal in-process", differ == 0, fmt.Sprintf("%d of %d differ", differ, len(xs)))
	r.check("shard chip counters and inter-chip spikes equal in-process", local == remoteUsage,
		fmt.Sprintf("shards %+v, in process %+v", remoteUsage, local))
	return nil
}
