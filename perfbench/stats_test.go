package main

import (
	"math"
	"runtime"
	"strings"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) <= 1e-9*math.Max(1, math.Abs(b)) }

func TestBlockMedianRate(t *testing.T) {
	ms := time.Millisecond
	// Blocks of 2 ops ending at 10, 30, 35 and 75 ms: rates 2/10ms,
	// 2/20ms, 2/5ms and 2/40ms = 200, 100, 400 and 50 ops/s; median of
	// {50, 100, 200, 400} is 150. The ninth op is a partial block.
	done := []time.Duration{5 * ms, 10 * ms, 20 * ms, 30 * ms, 31 * ms, 35 * ms, 50 * ms, 75 * ms, 80 * ms}
	if got := blockMedianRate(done, 2); !near(got, 150) {
		t.Fatalf("blockMedianRate = %v, want 150", got)
	}
	// One stolen slice slows one block only: 4 blocks of 1 op at 1 ms
	// apart and one 100 ms gap still give 1000 ops/s.
	done = []time.Duration{1 * ms, 2 * ms, 102 * ms, 103 * ms, 104 * ms}
	if got := blockMedianRate(done, 1); !near(got, 1000) {
		t.Fatalf("blockMedianRate with a stall = %v, want 1000", got)
	}
	if got := blockMedianRate(done[:1], 2); got != 0 {
		t.Fatalf("no complete block: %v, want 0", got)
	}
}

func TestMedianAndQuantile(t *testing.T) {
	if got := median([]float64{3, 1, 2}); got != 2 {
		t.Fatalf("median odd = %v", got)
	}
	xs := []float64{4, 1, 3, 2}
	if got := median(xs); got != 2.5 {
		t.Fatalf("median even = %v", got)
	}
	if xs[0] != 4 {
		t.Fatal("median reordered its input")
	}
	sorted := []float64{10, 20, 30, 40, 50}
	for _, c := range []struct{ q, want float64 }{{0, 10}, {0.5, 30}, {0.25, 20}, {0.9, 46}, {1, 50}} {
		if got := quantile(sorted, c.q); !near(got, c.want) {
			t.Fatalf("quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	if quantile(nil, 0.5) != 0 || median(nil) != 0 {
		t.Fatal("empty input must give 0")
	}
}

func TestHighestTail(t *testing.T) {
	seq := func(n int) []float64 {
		s := make([]float64, n)
		for i := range s {
			s[i] = float64(i + 1)
		}
		return s
	}
	cases := []struct {
		n      int
		pct    float64
		beyond int
	}{
		{39, 50, 19},   // under 40 samples: the median alone
		{40, 50, 20},   // p90 would leave 4 beyond it
		{100, 90, 10},  // p90 leaves exactly 10
		{999, 90, 99},  // p99 leaves 9
		{1000, 99, 10}, // p99 leaves exactly 10
		{20000, 99.9, 20},
	}
	for _, c := range cases {
		got, ok := highestTail(seq(c.n))
		if !ok || got.Pct != c.pct || got.Beyond != c.beyond {
			t.Fatalf("n=%d: got %+v, want p%v with %d beyond", c.n, got, c.pct, c.beyond)
		}
	}
	if got, _ := highestTail(seq(100)); !near(got.Value, 90.1) {
		t.Fatalf("p90 of 1..100 = %v, want 90.1", got.Value)
	}
	if _, ok := highestTail(nil); ok {
		t.Fatal("empty input must report no tail")
	}
}

func TestParseVmHWM(t *testing.T) {
	doc := "Name:\tperfbench\nVmPeak:\t  900 kB\nVmHWM:\t   12345 kB\nVmRSS:\t 1000 kB\n"
	got, err := parseVmHWM(strings.NewReader(doc))
	if err != nil || got != 12345 {
		t.Fatalf("parseVmHWM = %v, %v; want 12345", got, err)
	}
	if _, err := parseVmHWM(strings.NewReader("VmRSS:\t1 kB\n")); err == nil {
		t.Fatal("missing VmHWM must be an error")
	}
	if _, err := parseVmHWM(strings.NewReader("VmHWM:\t12 MB\n")); err == nil {
		t.Fatal("unexpected unit must be an error")
	}
	if kb, err := peakRSSKiB(); err != nil || kb <= 0 {
		t.Fatalf("peakRSSKiB = %v, %v", kb, err)
	}
}

var sink [][]byte

func TestAllocationDelta(t *testing.T) {
	var ms runtime.MemStats
	sink = make([][]byte, 0, 100)
	before := readAllocs(&ms)
	for i := 0; i < 100; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	d := readAllocs(&ms).sub(before)
	// 100 buffers; the runtime may add a handful of its own objects.
	if d.Objects < 100 || d.Objects > 110 {
		t.Fatalf("allocated objects = %d, want 100 (+ at most 10 of the runtime's)", d.Objects)
	}
	if d.Bytes < 100*4096 || d.Bytes > 100*4096+64<<10 {
		t.Fatalf("allocated bytes = %d, want about %d", d.Bytes, 100*4096)
	}
}

func TestCPUTimeCountsWork(t *testing.T) {
	before := cpuTime()
	deadline := time.Now().Add(50 * time.Millisecond)
	x := 0
	for time.Now().Before(deadline) {
		x++
	}
	if used := cpuTime() - before; used < 20*time.Millisecond {
		t.Fatalf("50 ms of busy work charged %v of CPU (x=%d)", used, x)
	}
}
