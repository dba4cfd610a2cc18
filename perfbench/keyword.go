package main

// keyword-stream: the pattern detector fed a pre-generated motif
// stream through Stream.Inject/Stream.Tick as fast as it accepts
// ticks, with decisions consumed from Stream.Decisions. An operation
// is one stream tick.

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"github.com/neurogo/neurogo"
)

const (
	// keywordSegment is the minimum length of the pre-generated stream
	// segment the workload cycles through.
	keywordSegment = 4096
	// keywordTrailer is the number of motif-free ticks that end the
	// segment, so cycling it never cuts an embedding.
	keywordTrailer = 10
	// keywordDrain is the pipeline's default drain, which Stream.Drain
	// runs and the replay mirrors.
	keywordDrain = 2
)

// keywordInput is the pre-generated segment: the spiking lines of each
// tick and the offsets of the ticks that end an embedding.
type keywordInput struct {
	ticks [][]int
	ends  []int64
}

func genKeywordInput(pat *neurogo.Pattern, seed uint64) keywordInput {
	ms := neurogo.NewMotifStream(pat, 0.02, 20, 60, seed)
	var in keywordInput
	for trailer := -1; trailer != 0; {
		lines, end := ms.Tick()
		if trailer > 0 {
			trailer--
		}
		if end {
			in.ends = append(in.ends, int64(len(in.ticks)))
			if len(in.ticks)+1 >= keywordSegment {
				trailer = keywordTrailer
			}
		}
		in.ticks = append(in.ticks, lines)
	}
	return in
}

// decisionSum is an order-free digest of a set of decisions: their
// count and the sum of their hashes.
type decisionSum struct {
	n, h uint64
}

func (s *decisionSum) add(d neurogo.Decision) {
	x := uint64(d.Tick)*0x9e3779b97f4a7c15 ^ uint64(d.Class)<<48 ^ math.Float64bits(d.Margin)
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	s.n++
	s.h += x
}

func (s *decisionSum) plus(o decisionSum) { s.n += o.n; s.h += o.h }

type keywordRig struct {
	m      *keywordModel
	p      *neurogo.Pipeline
	st     *neurogo.PipelineStream
	decCh  <-chan neurogo.Decision
	cancel context.CancelFunc
}

func (rg *keywordRig) close() {
	rg.cancel()
	for range rg.decCh {
	}
	rg.p.Close()
}

func buildKeyword(c *setupClock) (*keywordRig, error) {
	m, err := buildKeywordModel(c)
	if err != nil {
		return nil, err
	}
	p, err := neurogo.NewPipeline(m.mapping, neurogo.WithDecoder(keywordDecoder()), neurogo.WithClassMapper(m.classOf))
	if err != nil {
		return nil, err
	}
	ctx, cancel := context.WithCancel(bg)
	st := p.NewSession().Stream(ctx)
	rg := &keywordRig{m: m, p: p, st: st, decCh: st.Decisions(), cancel: cancel}
	c.lap(layerPipeline)
	return rg, nil
}

// keywordSampledCycles is about how many cycles of a run keep
// per-embedding timings, so the recorder's memory does not grow with
// the tick rate.
const keywordSampledCycles = 256

// motifSample is the timing of one embedding of a sampled cycle. The
// feeder writes feedAt; the decision consumer writes the rest.
type motifSample struct {
	feedAt time.Duration // when its last tick was fed
	at     time.Duration // when its first decision arrived
	tick   int64         // that decision's tick
}

// keywordRecorder matches the decisions arriving on the stream's
// channel with the embeddings of the fed stream.
type keywordRecorder struct {
	in    *keywordInput
	span  int64
	start time.Time

	mu          sync.Mutex // guards everything below against the feeder's grow
	sampleEvery int        // every sampleEvery-th cycle keeps timings
	seen        []bool     // per embedding of every fed cycle
	cycleSums   []decisionSum
	samples     []motifSample // per embedding of every sampled cycle
	unmatched   int
	wrongClass  int
}

// sampleIndex returns the sample slot of embedding j of a cycle.
func (rc *keywordRecorder) sampleIndex(cycle, j int) (int, bool) {
	if cycle%rc.sampleEvery != 0 {
		return 0, false
	}
	return cycle/rc.sampleEvery*len(rc.in.ends) + j, true
}

// grow adds the records of one more fed cycle.
func (rc *keywordRecorder) grow(cycle int) {
	rc.mu.Lock()
	for range rc.in.ends {
		rc.seen = append(rc.seen, false)
		if cycle%rc.sampleEvery == 0 {
			rc.samples = append(rc.samples, motifSample{})
		}
	}
	rc.cycleSums = append(rc.cycleSums, decisionSum{})
	rc.mu.Unlock()
}

// reserve sets the sampling period and makes room for cycles more
// cycles without reallocating. Only cycle 0 may have been fed before.
func (rc *keywordRecorder) reserve(cycles, sampleEvery int) {
	rc.mu.Lock()
	rc.sampleEvery = sampleEvery
	m := len(rc.in.ends)
	rc.seen = append(make([]bool, 0, len(rc.seen)+cycles*m), rc.seen...)
	rc.cycleSums = append(make([]decisionSum, 0, len(rc.cycleSums)+cycles), rc.cycleSums...)
	rc.samples = append(make([]motifSample, 0, len(rc.samples)+(cycles/rc.sampleEvery+1)*m), rc.samples...)
	rc.mu.Unlock()
}

func (rc *keywordRecorder) consume(ch <-chan neurogo.Decision, done chan<- struct{}) {
	defer close(done)
	L := int64(len(rc.in.ticks))
	m := len(rc.in.ends)
	for d := range ch {
		at := time.Since(rc.start)
		rc.mu.Lock()
		cycle, off := int(d.Tick/L), d.Tick%L
		if cycle < len(rc.cycleSums) {
			rc.cycleSums[cycle].add(d)
		}
		if d.Class != 0 {
			rc.wrongClass++
		}
		j := sort.Search(m, func(j int) bool { return rc.in.ends[j] > off }) - 1
		idx := cycle*m + j
		if j < 0 || off > rc.in.ends[j]+rc.span || idx >= len(rc.seen) {
			rc.unmatched++
		} else if !rc.seen[idx] {
			rc.seen[idx] = true
			if si, ok := rc.sampleIndex(cycle, j); ok {
				rc.samples[si].at, rc.samples[si].tick = at, d.Tick
			}
		}
		rc.mu.Unlock()
	}
}

func runKeyword(o options) (*report, error) {
	r := newReport("keyword-stream")
	rg, st, err := repeatSetup(buildKeyword, func(rg *keywordRig) { rg.close() })
	if err != nil {
		return nil, err
	}
	defer rg.close()
	in := genKeywordInput(rg.m.pat, o.seed)
	L := len(in.ticks)
	M := len(in.ends)
	rc := &keywordRecorder{in: &in, span: int64(rg.m.pat.Span), start: time.Now(), sampleEvery: 1}
	consumed := make(chan struct{})
	go rc.consume(rg.decCh, consumed)

	cycles := 0
	feedCycle := func() error {
		rc.grow(cycles)
		j := 0
		for k, lines := range in.ticks {
			if j < M && int64(k) == in.ends[j] {
				if si, ok := rc.sampleIndex(cycles, j); ok {
					rc.samples[si].feedAt = time.Since(rc.start)
				}
				j++
			}
			for _, l := range lines {
				if err := rg.st.Inject(rg.m.pd.In.First + int32(l)); err != nil {
					return err
				}
			}
			if _, err := rg.st.Tick(); err != nil {
				return err
			}
		}
		cycles++
		return nil
	}

	// Warm-up cycle (part of the stream and of the checks), which also
	// sizes the timed phase's buffers.
	t0 := time.Now()
	if err := feedCycle(); err != nil {
		return nil, err
	}
	seconds := o.seconds
	if o.trace {
		seconds /= 3
	}
	estimate := int(seconds/time.Since(t0).Seconds()*1.5) + 4
	rc.reserve(estimate, max(1, estimate/keywordSampledCycles))
	blockEnds := make([]time.Duration, 0, estimate)
	warm := cycles

	u0 := rg.p.Usage(true)
	limit := time.Duration(seconds * float64(time.Second))
	ph := beginPhase()
	for cycles == warm || time.Since(ph.start) < limit {
		if err := feedCycle(); err != nil {
			return nil, err
		}
		blockEnds = append(blockEnds, time.Since(ph.start))
	}
	wall, cpu, al := ph.end()
	usage := usageSub(rg.p.Usage(true), u0)
	if _, err := rg.st.Drain(); err != nil {
		return nil, err
	}
	<-consumed
	ops := (cycles - warm) * L
	r.attempted = ops

	missed := 0
	for _, seen := range rc.seen {
		if !seen {
			missed++
		}
	}
	var latMs, simTicks []float64
	for si, smp := range rc.samples {
		cycle := si / M * rc.sampleEvery
		if cycle < warm {
			continue
		}
		end := int64(cycle*L) + in.ends[si%M]
		latMs = append(latMs, float64(smp.at-smp.feedAt)/float64(time.Millisecond))
		simTicks = append(simTicks, float64(smp.tick-end))
	}
	sort.Float64s(latMs)
	r.check("every embedded motif detected within its span", missed == 0,
		fmt.Sprintf("%d of %d missed", missed, len(rc.seen)))
	r.check("no decision without a motif", rc.unmatched == 0 && rc.wrongClass == 0,
		fmt.Sprintf("%d unmatched, %d with a wrong class", rc.unmatched, rc.wrongClass))

	if !o.trace {
		rss, err := peakRSSKiB()
		if err != nil {
			return nil, err
		}
		// One throughput block per cycle of L ticks.
		e := &endToEnd{ops: ops, done: blockEnds, blockOps: L, latencyMs: latMs, cpu: cpu, al: al,
			energyPJ: energyPJ(r, usage), simTicks: median(simTicks),
			peakRSSKB: rss, setup: st, latencyWhy: "from feeding a motif's last tick to its decision"}
		e.record(r)
		r.note("%d timed cycles of %d ticks with %d motifs each; timings kept for one cycle in %d", cycles-warm, L, M, rc.sampleEvery)
		return r, nil
	}

	t := &traceResult{publicWall: wall / time.Duration(ops), publicAlloc: float64(al.Objects) / float64(ops)}
	dec, ok := keywordDecoder().Clone().(neurogo.StreamDecoder)
	if !ok {
		return nil, fmt.Errorf("keyword decoder is not a stream decoder")
	}
	rep := &keywordReplay{
		runner: neurogo.NewRunner(rg.m.mapping, neurogo.EngineEvent, 1),
		dec:    dec, classes: rg.m.classOf, in: rg.m.pd.In.First,
	}
	rounds := &keywordRounds{rep: rep, in: &in, public: rc.cycleSums}
	budget := time.Duration(o.seconds / 6 * float64(time.Second))
	if err := replayPasses(r, t, rounds, budget, len(rc.cycleSums), nil, nil); err != nil {
		return nil, err
	}
	recordSetupLayers(r, st)
	t.record(r)
	return r, nil
}

// keywordRounds replays the fed stream cycle by cycle from a fresh
// stream, and at the end of a pass compares its decisions with the
// public run's over the same cycles.
type keywordRounds struct {
	rep    *keywordReplay
	in     *keywordInput
	public []decisionSum // per fed cycle
}

func (k *keywordRounds) round(tr *tracer, i int) (int, error) {
	rep := k.rep
	if i == 0 {
		rep.runner.Reset()
		rep.dec.Reset()
		rep.decided, rep.sum, rep.limit = -1, decisionSum{}, math.MaxInt64
	}
	rep.tr = tr
	tr.mark()
	for _, lines := range k.in.ticks {
		if err := rep.tick(lines); err != nil {
			return 0, err
		}
	}
	return len(k.in.ticks), nil
}

func (k *keywordRounds) finish(rounds int) (int, error) {
	k.rep.limit = int64(rounds * len(k.in.ticks))
	k.rep.drain(keywordDrain)
	var want decisionSum
	for _, s := range k.public[:rounds] {
		want.plus(s)
	}
	if k.rep.sum != want {
		return 1, nil
	}
	return 0, nil
}

func (k *keywordRounds) work() workSnap { return workSnap{chipWorkOf(k.rep.runner), k.rep.wc} }
