package main

// Shared measurement of the untraced (end-to-end) and traced
// (per-layer) phases.

import (
	"runtime"
	"time"
)

// phase measures wall time, process CPU and heap allocations between
// begin and end. It collects garbage first so every phase starts from
// a comparable heap.
type phase struct {
	start time.Time
	cpu0  time.Duration
	al0   allocs
	ms    runtime.MemStats
}

func beginPhase() *phase {
	runtime.GC()
	p := &phase{}
	p.al0 = readAllocs(&p.ms)
	p.cpu0 = cpuTime()
	p.start = time.Now()
	return p
}

func (p *phase) end() (wall, cpu time.Duration, al allocs) {
	wall = time.Since(p.start)
	cpu = cpuTime() - p.cpu0
	al = readAllocs(&p.ms).sub(p.al0)
	return wall, cpu, al
}

// blockOps is the size of the blocks the throughput median is taken
// over: small blocks (a few ms to tens of ms of ops), so that most are
// free of the host's stalls, yet larger than a batch of concurrent
// completions.
const blockOps = 8

// endToEnd is one workload's end-to-end measurement.
type endToEnd struct {
	ops        int
	done       []time.Duration // completion offsets, ascending
	blockOps   int             // if positive, done holds block ends of blockOps ops each
	latencyMs  []float64       // ascending
	cpu        time.Duration   // serving processes' CPU over the timed phase
	al         allocs
	energyPJ   float64 // over the timed ops
	simTicks   float64 // simulated ticks to a decision
	peakRSSKB  int64
	setup      setupStats
	latencyWhy string // what latency_p50_ms times, for the tail note
}

// record prints every end-to-end metric into r.
func (e *endToEnd) record(r *report) {
	ops := float64(e.ops)
	if e.blockOps > 0 {
		r.metric("throughput_ops_s", "1/s", float64(e.blockOps)*blockMedianRate(e.done, 1))
	} else {
		r.metric("throughput_ops_s", "1/s", blockMedianRate(e.done, blockOps))
	}
	r.metric("latency_p50_ms", "ms", quantile(e.latencyMs, 0.5))
	r.metric("cpu_us_per_op", "us", float64(e.cpu)/float64(time.Microsecond)/ops)
	r.metric("allocs_per_op", "count", float64(e.al.Objects)/ops)
	r.metric("alloc_bytes_per_op", "B", float64(e.al.Bytes)/ops)
	r.metric("energy_pj_per_op", "pJ", e.energyPJ/ops)
	r.metric("sim_latency_ticks", "ticks", e.simTicks)
	r.metric("peak_rss_mb", "MiB", float64(e.peakRSSKB)/1024)
	r.metric("setup_s", "s", median(e.setup.totals))
	if t, ok := highestTail(e.latencyMs); ok {
		r.note("latency %s: p%g = %.4f ms with %d of %d samples beyond it (reference only, not bounded)",
			e.latencyWhy, t.Pct, t.Value, t.Beyond, len(e.latencyMs))
	}
	r.note("set-up repeated %d times; median %.4f s", len(e.setup.totals), median(e.setup.totals))
}

// recordSetupLayers prints the per-layer set-up medians.
func recordSetupLayers(r *report, st setupStats) {
	for _, l := range setupLayers {
		r.metric(l, "s", median(st.stages[l]))
	}
}

// traceResult is one workload's traced measurement, per operation.
type traceResult struct {
	ops         int
	spans       tracer        // traced pass
	allocSpans  tracer        // allocation pass
	allocOps    int           // operations of the allocation pass
	untraced    time.Duration // replay wall time without spans
	traced      time.Duration // replay wall time with spans
	publicWall  time.Duration // mean op wall time on the public serving path
	publicAlloc float64       // allocations per op on the public serving path
	rpc         time.Duration // traced pass's shard round-trip time
	rpcAllocs   uint64
	shardCPU    time.Duration // shard processes' CPU over the traced pass
	work        workSnap      // traced pass's work
	trips       uint64
	boundary    uint64
	meanBatch   float64
	queueWaitUs float64
}

// record prints every per-layer metric into r.
func (t *traceResult) record(r *report) {
	ops := float64(t.ops)
	us := func(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) / ops }
	aops := float64(t.allocOps)
	for l := layer(0); l < lRPC; l++ {
		r.metric(layerNames[l]+"_us", "us", us(t.spans.dur[l]))
		r.metric(layerNames[l]+"_allocs", "count", float64(t.allocSpans.allocs[l])/aops)
	}
	r.metric("remote.rpc_us", "us", us(t.rpc))
	r.metric("remote.rpc_allocs", "count", float64(t.rpcAllocs)/aops)
	r.metric("remote.shard_cpu_us", "us", us(t.shardCPU))
	covered := t.spans.covered()
	r.metric("pipeline.overhead_us", "us", float64(t.publicWall)/float64(time.Microsecond)-us(t.untraced))
	r.metric("pipeline.overhead_allocs", "count", t.publicAlloc-float64(t.allocSpans.coveredAllocs())/aops)
	r.metric("codec.spikes_per_op", "count", float64(t.work.wc.spikes)/ops)
	r.metric("sim.injections_per_op", "count", float64(t.work.wc.injections)/ops)
	r.metric("sim.ticks_per_op", "count", float64(t.work.chip.ticks)/ops)
	r.metric("sim.events_per_op", "count", float64(t.work.wc.events)/ops)
	r.metric("core.synaptic_events_per_op", "count", float64(t.work.chip.synaptic)/ops)
	r.metric("core.neuron_updates_per_op", "count", float64(t.work.chip.updates)/ops)
	r.metric("core.spikes_per_op", "count", float64(t.work.chip.spikes)/ops)
	r.metric("chip.routed_spikes_per_op", "count", float64(t.work.chip.routed)/ops)
	r.metric("chip.hops_per_op", "count", float64(t.work.chip.hops)/ops)
	r.metric("system.interchip_spikes_per_op", "count", float64(t.work.chip.inter)/ops)
	r.metric("remote.round_trips_per_op", "count", float64(t.trips)/ops)
	r.metric("remote.boundary_spikes_per_op", "count", float64(t.boundary)/ops)
	r.metric("pipeline.decisions_per_op", "count", float64(t.work.wc.decisions)/ops)
	r.metric("pipeline.mean_batch", "count", t.meanBatch)
	r.metric("pipeline.queue_wait_p50_us", "us", t.queueWaitUs)
	r.metric("trace.coverage", "share", float64(covered)/float64(t.traced))
	r.metric("trace.overhead", "x", float64(t.traced)/float64(t.untraced))
	r.note("trace: %d ops per replay pass, %d in the allocation pass; replay %.2f us/op untraced, %.2f us/op traced, public path %.2f us/op",
		t.ops, t.allocOps, us(t.untraced), us(t.traced), float64(t.publicWall)/float64(time.Microsecond))
}

func (w chipWork) sub(b chipWork) chipWork {
	return chipWork{w.synaptic - b.synaptic, w.updates - b.updates, w.spikes - b.spikes,
		w.routed - b.routed, w.hops - b.hops, w.inter - b.inter, w.ticks - b.ticks}
}

// workSnap is a snapshot of a replay's cumulative work counts.
type workSnap struct {
	chip chipWork
	wc   workCounts
}

func (a workSnap) sub(b workSnap) workSnap {
	return workSnap{a.chip.sub(b.chip), workCounts{a.wc.spikes - b.wc.spikes, a.wc.injections - b.wc.injections,
		a.wc.events - b.wc.events, a.wc.decisions - b.wc.decisions}}
}
