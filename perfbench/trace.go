package main

// The traced run: the benchmark replays the public-call sequence of
// Session.Classify (or of a Stream's Inject/Tick) on its own runner
// and codec clones, timing each call into a layer. The replay runs
// three times over the same operations: untimed (the reference for
// the trace overhead), timed (per-layer host time and coverage) and
// with allocation snapshots around each span (per-layer allocations;
// those snapshots stop the world, so that pass is never timed).

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"github.com/neurogo/neurogo"
	"github.com/neurogo/neurogo/internal/remote"
	"github.com/neurogo/neurogo/internal/sim"
	"github.com/neurogo/neurogo/internal/system"
)

// layer indexes the traced spans. Every layer but rpc is a top-level
// span of an operation; rpc nests inside step and drain.
type layer int

const (
	lReset layer = iota
	lEncode
	lInject
	lStep
	lDrain
	lDecode
	lRPC
	nLayers
)

var layerNames = [nLayers]string{"sim.reset", "codec.encode", "sim.inject", "sim.step", "sim.drain", "codec.decode", "remote.rpc"}

type traceMode int

const (
	traceOff traceMode = iota
	traceTime
	traceAllocs
)

// tracer accumulates per-layer durations or allocation counts. Spans
// are contiguous: lap charges everything since the previous mark to a
// layer and marks again, so one clock read closes one span and opens
// the next.
type tracer struct {
	mode   traceMode
	dur    [nLayers]time.Duration
	allocs [nLayers]uint64
	last   time.Time
	lastM  uint64
	ms     runtime.MemStats
}

// mark opens a span without charging the time before it.
func (tr *tracer) mark() {
	switch tr.mode {
	case traceTime:
		tr.last = time.Now()
	case traceAllocs:
		runtime.ReadMemStats(&tr.ms)
		tr.lastM = tr.ms.Mallocs
	}
}

// lap closes the open span, charging it to l, and opens the next.
func (tr *tracer) lap(l layer) {
	switch tr.mode {
	case traceTime:
		now := time.Now()
		tr.dur[l] += now.Sub(tr.last)
		tr.last = now
	case traceAllocs:
		runtime.ReadMemStats(&tr.ms)
		tr.allocs[l] += tr.ms.Mallocs - tr.lastM
		tr.lastM = tr.ms.Mallocs
	}
}

// covered is the summed duration of the top-level spans.
func (tr *tracer) covered() time.Duration {
	var d time.Duration
	for l := layer(0); l < lRPC; l++ {
		d += tr.dur[l]
	}
	return d
}

// coveredAllocs is the summed allocations of the top-level spans.
func (tr *tracer) coveredAllocs() uint64 {
	var n uint64
	for l := layer(0); l < lRPC; l++ {
		n += tr.allocs[l]
	}
	return n
}

// workCounts are the exact per-operation work counts of a replay.
type workCounts struct {
	spikes, injections, events, decisions uint64
}

// classifyReplay replays Session.Classify's calls on its own runner.
type classifyReplay struct {
	runner        *sim.Runner
	enc           neurogo.Encoder
	dec           neurogo.Decoder
	lines         neurogo.LineMapper
	classes       neurogo.ClassMapper
	window, drain int
	tr            *tracer
	wc            workCounts
	idx           []int
	emit          func(int) // appends to idx; made once, so encoding allocates nothing of the replay's own
}

func (r *classifyReplay) feed(evs []sim.Event) {
	for _, e := range evs {
		if c := r.classes(e.Neuron); c >= 0 {
			r.dec.ObserveAt(c, e.Tick)
		}
	}
	r.wc.events += uint64(len(evs))
}

// classify is one presentation: reset, encode and inject each window
// tick's frame, step the window, drain, decide.
func (r *classifyReplay) classify(x []float64) (int, error) {
	tr := r.tr
	tr.mark()
	r.runner.Reset()
	r.enc.Reset()
	r.dec.Reset()
	tr.lap(lReset)
	if err := r.runner.Err(); err != nil {
		return -1, err
	}
	for t, w := 0, r.runner.ExchangeWindow(); t < r.window; {
		n := min(w, r.window-t)
		base := r.runner.Now()
		for k := 0; k < n; k++ {
			r.idx = r.idx[:0]
			if r.emit == nil {
				r.emit = func(i int) { r.idx = append(r.idx, i) }
			}
			r.enc.Tick(x, r.emit)
			tr.lap(lEncode)
			for _, i := range r.idx {
				for _, line := range r.lines(i) {
					if err := r.runner.InjectLineAt(line, base+int64(k)); err != nil {
						return -1, err
					}
					r.wc.injections++
				}
			}
			r.wc.spikes += uint64(len(r.idx))
			tr.lap(lInject)
		}
		evs := r.runner.StepN(n)
		tr.lap(lStep)
		r.feed(evs)
		tr.lap(lDecode)
		if err := r.runner.Err(); err != nil {
			return -1, err
		}
		t += n
	}
	evs := r.runner.Drain(r.drain)
	tr.lap(lDrain)
	if err := r.runner.Err(); err != nil {
		return -1, err
	}
	r.feed(evs)
	class := r.dec.Decide()
	r.wc.decisions++
	tr.lap(lDecode)
	return class, nil
}

// rpcClock measures the wall time during which at least one shard
// round-trip is in flight: the concurrent round-trips of one exchange
// window count once, as the critical path does.
type rpcClock struct {
	tr     *tracer
	mu     sync.Mutex // guards the fields below
	active int
	since  time.Time
	total  time.Duration
	trips  uint64
	spikes uint64
	allocs uint64
	serial sync.Mutex // held across a call in the allocation pass
	ms     runtime.MemStats
}

// timedConn wraps a remote shard client, timing its window round-trips
// and counting its round-trips and boundary spikes.
type timedConn struct {
	system.ShardConn
	clk *rpcClock
}

func (c *timedConn) TickLocalN(mode system.EvalMode, workers int, in []system.BoundarySpike, n int) (system.WindowResult, error) {
	clk := c.clk
	if clk.tr.mode == traceAllocs {
		// Serialize the shards' calls so a call's allocation delta is
		// its own.
		clk.serial.Lock()
		defer clk.serial.Unlock()
		runtime.ReadMemStats(&clk.ms)
		m0 := clk.ms.Mallocs
		res, err := c.ShardConn.TickLocalN(mode, workers, in, n)
		runtime.ReadMemStats(&clk.ms)
		clk.mu.Lock()
		clk.allocs += clk.ms.Mallocs - m0
		clk.mu.Unlock()
		clk.count(len(res.Boundary))
		return res, err
	}
	clk.mu.Lock()
	if clk.active == 0 {
		clk.since = time.Now()
	}
	clk.active++
	clk.mu.Unlock()
	res, err := c.ShardConn.TickLocalN(mode, workers, in, n)
	clk.mu.Lock()
	clk.active--
	if clk.active == 0 && clk.tr.mode == traceTime {
		clk.total += time.Since(clk.since)
	}
	clk.mu.Unlock()
	clk.count(len(res.Boundary))
	return res, err
}

func (c *timedConn) Reset() error {
	c.clk.count(0)
	return c.ShardConn.Reset()
}

// count records one round-trip carrying boundary spikes.
func (clk *rpcClock) count(boundary int) {
	clk.mu.Lock()
	clk.trips++
	clk.spikes += uint64(boundary)
	clk.mu.Unlock()
}

// dialTimed connects to running shard servers through timing wrappers
// and returns a runner over them at the widest exact exchange window.
func dialTimed(m *neurogo.Mapping, addrs []string, clk *rpcClock) (*sim.Runner, *system.Sharded, error) {
	cfg := system.Config{ChipCoresX: m.Stats.ChipCoresX, ChipCoresY: m.Stats.ChipCoresY}
	n := (m.Chip.Width / cfg.ChipCoresX) * (m.Chip.Height / cfg.ChipCoresY)
	parts := system.PartitionChips(n, len(addrs))
	conns := make([]system.ShardConn, len(addrs))
	for i, addr := range addrs {
		c, err := remote.Dial(m, cfg, addr, len(addrs), i, remote.ClientOptions{})
		if err != nil {
			for _, done := range conns[:i] {
				done.Close()
			}
			return nil, nil, fmt.Errorf("dial shard %d: %w", i, err)
		}
		conns[i] = &timedConn{ShardConn: c, clk: clk}
	}
	sh, err := system.NewShardedFrom(m.Chip, cfg, conns, parts)
	if err != nil {
		for _, c := range conns {
			c.Close()
		}
		return nil, nil, err
	}
	r := sim.NewTiledRunner(m, sh, sim.EngineEvent, 1)
	r.SetExchangeWindow(0)
	return r, sh, nil
}

// chipWork is a snapshot of the runner's cumulative work counters.
type chipWork struct {
	synaptic, updates, spikes, routed, hops, inter, ticks uint64
}

func chipWorkOf(r *sim.Runner) chipWork {
	c := r.Counters()
	_, inter := r.BoundarySpikes()
	return chipWork{c.Core.SynapticEvents, c.Core.NeuronUpdates, c.Core.Spikes, c.RoutedSpikes, c.TotalHops, inter, r.LifetimeTicks()}
}

// keywordReplay replays a Stream's Inject/Tick calls and its decision
// pump on its own runner.
type keywordReplay struct {
	runner  *sim.Runner
	dec     neurogo.StreamDecoder
	classes neurogo.ClassMapper
	in      int32 // first input line of the detector
	decided int64
	tr      *tracer
	wc      workCounts
	limit   int64       // decisions at ticks from here on are not summed
	sum     decisionSum // decisions before limit
}

// tick is one stream tick: inject the tick's spiking lines, step, feed
// the events to the decoder and decide every newly complete tick.
func (r *keywordReplay) tick(lines []int) error {
	tr := r.tr
	now := r.runner.Now()
	for _, l := range lines {
		if err := r.runner.InjectLineAt(r.in+int32(l), now); err != nil {
			return err
		}
	}
	r.wc.spikes += uint64(len(lines))
	r.wc.injections += uint64(len(lines))
	tr.lap(lInject)
	evs := r.runner.StepN(1)
	tr.lap(lStep)
	r.observe(evs, r.runner.CompleteThrough())
	tr.lap(lDecode)
	return r.runner.Err()
}

func (r *keywordReplay) observe(evs []sim.Event, through int64) {
	for _, e := range evs {
		if c := r.classes(e.Neuron); c >= 0 {
			r.dec.ObserveAt(c, e.Tick)
		}
	}
	r.wc.events += uint64(len(evs))
	for t := r.decided + 1; t <= through; t++ {
		if class, margin, ok := r.dec.DecideAt(t); ok {
			r.wc.decisions++
			if t < r.limit {
				r.sum.add(neurogo.Decision{Tick: t, Class: class, Margin: margin})
			}
		}
	}
	if through > r.decided {
		r.decided = through
	}
}

// drain ends the stream as Stream.Drain does: drain ticks, then decide
// through the last executed tick.
func (r *keywordReplay) drain(ticks int) {
	r.observe(r.runner.Drain(ticks), r.runner.Now()-1)
}

// replayer is a workload's replay: round runs the i-th round of a
// pass (i == 0 starts the pass), finish ends a pass outside any timing
// and reports how many outputs differed from the public run's, and
// work snapshots the cumulative work counts.
type replayer interface {
	round(tr *tracer, i int) (ops int, err error)
	finish(rounds int) (mismatches int, err error)
	work() workSnap
}

// replayPasses runs a replay's three passes over whole rounds and
// fills t. The untraced pass runs rounds until budget is spent (at
// most maxRounds, if positive); the traced pass repeats that many
// rounds; the allocation pass runs one.
func replayPasses(r *report, t *traceResult, rp replayer, budget time.Duration, maxRounds int,
	clk *rpcClock, shards *shardSet) error {
	pass := func(mode traceMode, rounds int) (tr *tracer, ops, done, bad int, wall time.Duration, err error) {
		tr = &tracer{mode: mode}
		if clk != nil {
			clk.tr = tr
		}
		runtime.GC()
		start := time.Now()
		for done = 0; ; done++ {
			if rounds > 0 && done == rounds {
				break
			}
			if rounds == 0 && done > 0 && (time.Since(start) >= budget || done == maxRounds) {
				break
			}
			n, err := rp.round(tr, done)
			if err != nil {
				return tr, 0, 0, 0, 0, err
			}
			ops += n
		}
		wall = time.Since(start)
		bad, err = rp.finish(done)
		return tr, ops, done, bad, wall, err
	}
	_, _, rounds, bad0, untraced, err := pass(traceOff, 0)
	if err != nil {
		return err
	}
	var before []procUsage
	if shards != nil {
		if before, err = shards.usage(); err != nil {
			return err
		}
	}
	w0 := rp.work()
	var trips0, spikes0 uint64
	if clk != nil {
		trips0, spikes0 = clk.trips, clk.spikes
		clk.total = 0
	}
	spans, ops, _, bad1, traced, err := pass(traceTime, rounds)
	if err != nil {
		return err
	}
	t.work = rp.work().sub(w0)
	if clk != nil {
		t.rpc = clk.total
		t.trips, t.boundary = clk.trips-trips0, clk.spikes-spikes0
	}
	if shards != nil {
		after, err := shards.usage()
		if err != nil {
			return err
		}
		for i := range after {
			t.shardCPU += time.Duration(after[i].CPUNanos - before[i].CPUNanos)
		}
	}
	var rpcAllocs0 uint64
	if clk != nil {
		rpcAllocs0 = clk.allocs
	}
	allocSpans, allocOps, _, bad2, _, err := pass(traceAllocs, 1)
	if err != nil {
		return err
	}
	if clk != nil {
		t.rpcAllocs = clk.allocs - rpcAllocs0
	}
	t.ops, t.untraced, t.traced = ops, untraced, traced
	t.spans, t.allocSpans, t.allocOps = *spans, *allocSpans, allocOps
	r.check("traced replay reproduces the untraced outputs", bad0+bad1+bad2 == 0,
		fmt.Sprintf("%d mismatches over %d untraced, %d traced and %d allocation-pass ops", bad0+bad1+bad2, ops, ops, allocOps))
	return nil
}

// classifyRounds replays whole rounds of xs, checking every prediction
// against expect.
type classifyRounds struct {
	rep    *classifyReplay
	xs     [][]float64
	expect []int
	bad    int
}

func (c *classifyRounds) round(tr *tracer, _ int) (int, error) {
	c.rep.tr = tr
	for i, x := range c.xs {
		class, err := c.rep.classify(x)
		if err != nil {
			return 0, err
		}
		if class != c.expect[i] {
			c.bad++
		}
	}
	return len(c.xs), nil
}

func (c *classifyRounds) finish(int) (int, error) {
	bad := c.bad
	c.bad = 0
	return bad, nil
}

func (c *classifyRounds) work() workSnap { return workSnap{chipWorkOf(c.rep.runner), c.rep.wc} }
