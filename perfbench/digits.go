package main

// digits-async: the flat digit classifier served through AsyncPipeline
// with adaptive micro-batching, closed loop with one client per worker.
// The traced run also offers an open loop at a fixed rate, for
// reference (see openLoopProbe).

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"syscall"
	"time"

	"github.com/neurogo/neurogo"
)

const (
	// digitsRate is the open-loop probe's offered load in
	// classifications per second, about half of what the two-worker
	// pool sustains on a 2-vCPU host.
	digitsRate   = 3000.0
	digitsInputs = 256
	// digitsClients is the closed loop's concurrency: one outstanding
	// request per pool worker on a 2-vCPU host.
	digitsClients = 2
)

type digitsRig struct {
	m  *digitsModel
	p  *neurogo.Pipeline
	ap *neurogo.AsyncPipeline
}

func buildDigits(c *setupClock) (*digitsRig, error) {
	m, err := buildDigitsModel(c)
	if err != nil {
		return nil, err
	}
	p, err := neurogo.NewPipeline(m.mapping, digitsPipelineOpts(m)...)
	if err != nil {
		return nil, err
	}
	ap, err := p.Async(neurogo.WithAsyncWorkers(runtime.NumCPU()),
		neurogo.WithMaxBatch(64), neurogo.WithBatchWindow(200*time.Microsecond))
	if err != nil {
		p.Close()
		return nil, err
	}
	c.lap(layerPipeline)
	return &digitsRig{m: m, p: p, ap: ap}, nil
}

// openLoopRun is one open-loop phase: request i is due at i/rate
// after the start and its latency runs from then to its result.
type openLoopRun struct {
	due, arrival, late []time.Duration
	class              []int
	failed             int
}

func newOpenLoopRun(n int) *openLoopRun {
	return &openLoopRun{
		due: make([]time.Duration, n), arrival: make([]time.Duration, n),
		late: make([]time.Duration, n), class: make([]int, n),
	}
}

// openLoop offers len(run.due) requests (input i%len(xs)) at rate per
// second and collects every result from the shared Results stream.
// seqBase is the number of submissions the front-end has already
// stamped. The run's buffers are allocated by the caller, so the
// benchmark allocates nothing per request.
func openLoop(ap *neurogo.AsyncPipeline, results <-chan neurogo.AsyncResult, xs [][]float64,
	run *openLoopRun, rate float64, seqBase uint64) error {
	n := len(run.due)
	interval := float64(time.Second) / rate
	for i := range run.due {
		run.due[i] = time.Duration(float64(i) * interval)
	}
	collected := make(chan error, 1)
	start := time.Now()
	go func() {
		for got := 0; got < n; got++ {
			res, ok := <-results
			if !ok {
				collected <- fmt.Errorf("results closed after %d of %d", got, n)
				return
			}
			at := time.Since(start)
			i := res.Seq - seqBase
			if res.Seq < seqBase || i >= uint64(n) {
				collected <- fmt.Errorf("result with sequence %d outside the phase", res.Seq)
				return
			}
			run.arrival[i], run.class[i] = at, res.Class
			if res.Err != nil {
				run.failed++
			}
		}
		collected <- nil
	}()
	// The generator sleeps in the kernel on its own thread: the
	// runtime's timers wake an idle process only to the millisecond,
	// which would add up to a millisecond of lateness to each request.
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	for i := 0; i < n; i++ {
		if d := run.due[i] - time.Since(start); d > 0 {
			ts := syscall.NsecToTimespec(int64(d))
			syscall.Nanosleep(&ts, nil)
		}
		run.late[i] = time.Since(start) - run.due[i]
		ap.Submit(bg, xs[i%len(xs)])
	}
	return <-collected
}

// asyncClosedRun is a closed-loop phase through the async front-end:
// each client submits its next request when the previous one returns.
type asyncClosedRun struct {
	lat, done [][]time.Duration // per client
	class     [][]int
	failed    []int
}

func newAsyncClosedRun(clients, capacity int) *asyncClosedRun {
	run := &asyncClosedRun{lat: make([][]time.Duration, clients), done: make([][]time.Duration, clients),
		class: make([][]int, clients), failed: make([]int, clients)}
	for c := 0; c < clients; c++ {
		run.lat[c] = make([]time.Duration, 0, capacity)
		run.done[c] = make([]time.Duration, 0, capacity)
		run.class[c] = make([]int, 0, capacity)
	}
	return run
}

// asyncClosedLoop runs the clients until seconds have passed, each
// over whole rounds of its share of xs: client c serves inputs c,
// c+clients, c+2*clients and so on.
func asyncClosedLoop(ap *neurogo.AsyncPipeline, xs [][]float64, seconds float64, run *asyncClosedRun) {
	limit := time.Duration(seconds * float64(time.Second))
	clients := len(run.lat)
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for len(run.lat[c]) == 0 || time.Since(start) < limit {
				for i := c; i < len(xs); i += clients {
					t0 := time.Now()
					res := <-ap.Submit(bg, xs[i])
					t1 := time.Now()
					if res.Err != nil {
						run.failed[c]++
					}
					run.lat[c] = append(run.lat[c], t1.Sub(t0))
					run.done[c] = append(run.done[c], t1.Sub(start))
					run.class[c] = append(run.class[c], res.Class)
				}
			}
		}(c)
	}
	wg.Wait()
}

// latencies returns the sorted latencies from due time, in ms.
func (run *openLoopRun) latencies() []float64 {
	lat := make([]time.Duration, len(run.due))
	for i := range lat {
		lat[i] = run.arrival[i] - run.due[i]
	}
	return sortedMillis(lat)
}

func runDigits(o options) (*report, error) {
	r := newReport("digits-async")
	gen := neurogo.NewDigitGenerator(digitsSize, 0.03, 1, o.seed)
	xs, ys := gen.Batch(digitsInputs)
	rg, st, err := repeatSetup(buildDigits, func(rg *digitsRig) { rg.p.Close() })
	if err != nil {
		return nil, err
	}
	defer rg.p.Close()

	// Reference outputs: sequential Classify on the same inputs, and
	// the ternary model's argmax.
	seq := make([]int, len(xs))
	ref := make([]int, len(xs))
	for i, x := range xs {
		if seq[i], err = rg.p.Classify(bg, x); err != nil {
			return nil, err
		}
		ref[i] = ternaryArgmax(rg.m.tern, x)
	}
	checkAgreement(r, "sequential Classify", seq, ref, ys)

	// Warm-up round, which also sizes the timed phase's buffers.
	t0 := time.Now()
	asyncClosedLoop(rg.ap, xs, 0, newAsyncClosedRun(digitsClients, len(xs)))
	rate := float64(len(xs)) / time.Since(t0).Seconds()
	seconds := o.seconds
	if o.trace {
		seconds /= 3
	}
	run := newAsyncClosedRun(digitsClients, int(rate*seconds*1.5)/digitsClients+len(xs))
	u0 := rg.p.Usage(true)
	ph := beginPhase()
	asyncClosedLoop(rg.ap, xs, seconds, run)
	_, cpu, al := ph.end()
	usage := usageSub(rg.p.Usage(true), u0)
	var lat, done []time.Duration
	mismatch := 0
	for c := range run.lat {
		per := (len(xs) - c + digitsClients - 1) / digitsClients
		for k, class := range run.class[c] {
			if class != seq[c+(k%per)*digitsClients] {
				mismatch++
			}
		}
		lat = append(lat, run.lat[c]...)
		done = append(done, run.done[c]...)
		r.failed += run.failed[c]
	}
	n := len(lat)
	r.attempted = n
	r.check("async results equal sequential Classify", mismatch == 0,
		fmt.Sprintf("%d of %d differ", mismatch, n))
	sort.Slice(done, func(i, j int) bool { return done[i] < done[j] })
	latMs := sortedMillis(lat)
	m := rg.ap.Metrics()
	r.note("%d clients, mean batch %.2f, queue wait p50 %v", digitsClients, m.MeanBatch, m.QueueWait.P50)

	if !o.trace {
		rss, err := peakRSSKiB()
		if err != nil {
			return nil, err
		}
		e := &endToEnd{ops: n, done: done, latencyMs: latMs, cpu: cpu, al: al,
			energyPJ: energyPJ(r, usage), simTicks: float64(usage.Ticks) / float64(n),
			peakRSSKB: rss, setup: st, latencyWhy: "from Submit to result"}
		e.record(r)
		return r, nil
	}

	t := &traceResult{meanBatch: m.MeanBatch,
		queueWaitUs: float64(m.QueueWait.P50) / float64(time.Microsecond),
		publicAlloc: float64(al.Objects) / float64(n),
		publicWall:  time.Duration(quantile(latMs, 0.5) * float64(time.Millisecond))}
	if err := openLoopProbe(r, rg.ap, xs, o.seconds/6); err != nil {
		return nil, err
	}
	rep := &classifyReplay{
		runner: neurogo.NewRunner(rg.m.mapping, neurogo.EngineEvent, 1),
		enc:    neurogo.NewBernoulliEncoder(0.5, 99), dec: neurogo.NewCounterDecoder(neurogo.NumDigitClasses),
		lines: neurogo.TwinLines(rg.m.cls.LinesFor), classes: rg.m.cls.ClassOf,
		window: digitsWindow, drain: digitsDrain,
	}
	if err := replayClassify(r, t, rep, xs, seq, o.seconds/6, nil, nil); err != nil {
		return nil, err
	}
	recordSetupLayers(r, st)
	t.record(r)
	return r, nil
}

// openLoopProbe offers whole rounds of xs at digitsRate for about
// seconds and notes the latency from each request's due time and how
// late the generator ran. It is reference only: on a shared 2-vCPU
// host its median moved between 0.9 and 6.2 ms from run to run, so no
// bounded metric comes from it.
func openLoopProbe(r *report, ap *neurogo.AsyncPipeline, xs [][]float64, seconds float64) error {
	n := max(1, int(digitsRate*seconds)/len(xs)) * len(xs)
	run := newOpenLoopRun(n)
	if err := openLoop(ap, ap.Results(), xs, run, digitsRate, ap.Metrics().Submitted); err != nil {
		return err
	}
	latMs := run.latencies()
	lateMs := sortedMillis(run.late)
	r.note("open loop at %.0f/s, %d requests, %d failed: latency from due time p50 %.3f ms, p90 %.3f ms; generator lateness p50 %.3f ms, p90 %.3f ms, max %.3f ms",
		digitsRate, n, run.failed, quantile(latMs, 0.5), quantile(latMs, 0.9),
		quantile(lateMs, 0.5), quantile(lateMs, 0.9), lateMs[len(lateMs)-1])
	return nil
}

// replayClassify runs the replay passes of a classifier workload over
// whole rounds of xs, checking every prediction against expect.
func replayClassify(r *report, t *traceResult, rep *classifyReplay, xs [][]float64, expect []int,
	budgetSeconds float64, clk *rpcClock, shards *shardSet) error {
	budget := time.Duration(budgetSeconds * float64(time.Second))
	return replayPasses(r, t, &classifyRounds{rep: rep, xs: xs, expect: expect}, budget, 0, clk, shards)
}
