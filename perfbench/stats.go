package main

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// blockMedianRate splits a run's completion times (offsets from the
// start of the timed phase, in completion order) into consecutive
// blocks of k operations and returns the median of the blocks' rates
// in operations per second. A block's rate is k over the time from the
// previous block's last completion (or the phase start) to its own
// last completion, so one stolen time slice slows one block and cannot
// decide the figure. A tail shorter than k is left out. It returns 0
// when there is no complete block.
func blockMedianRate(done []time.Duration, k int) float64 {
	if k < 1 {
		return 0
	}
	var rates []float64
	prev := time.Duration(0)
	for end := k - 1; end < len(done); end += k {
		if span := done[end] - prev; span > 0 {
			rates = append(rates, float64(k)/span.Seconds())
		}
		prev = done[end]
	}
	return median(rates)
}

// median returns the middle value of xs (the mean of the two middle
// values for an even count), or 0 for an empty slice. xs is not
// modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile returns the q-quantile (0 <= q <= 1) of an ascending slice
// by linear interpolation between closest ranks, or 0 when it is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	pos := q * float64(len(sorted)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return sorted[lo] + (sorted[hi]-sorted[lo])*(pos-float64(lo))
}

// tail is one reported percentile with the number of samples above it.
type tail struct {
	Pct    float64 // percentile, e.g. 99
	Value  float64 // its value
	Beyond int     // samples strictly above the percentile's rank
}

// tailPercentiles are the candidates highestTail chooses from.
var tailPercentiles = []float64{99.99, 99.9, 99, 90, 50}

// highestTail returns the highest of tailPercentiles that still has at
// least 10 samples beyond it, with its value and that count. With
// fewer than 40 samples no percentile above the median is a tail, so
// it reports the median. ok is false for an empty slice.
func highestTail(sorted []float64) (t tail, ok bool) {
	n := len(sorted)
	if n == 0 {
		return tail{}, false
	}
	for _, p := range tailPercentiles {
		beyond := n - int(math.Ceil(p*float64(n)/100-1e-9)) // epsilon: 99.9% of 20000 is 19980
		if (beyond >= 10 && n >= 40) || p == 50 {
			return tail{Pct: p, Value: quantile(sorted, p/100), Beyond: beyond}, true
		}
	}
	return tail{}, false
}

// cpuTime returns the user plus system CPU time the calling process
// has consumed. Time stolen by the hypervisor is not included.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSKiB returns the calling process's peak resident set (VmHWM).
func peakRSSKiB() (int64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	return parseVmHWM(f)
}

// parseVmHWM reads the VmHWM line of a /proc/<pid>/status document.
func parseVmHWM(r io.Reader) (int64, error) {
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		line := sc.Text()
		if !strings.HasPrefix(line, "VmHWM:") {
			continue
		}
		f := strings.Fields(strings.TrimPrefix(line, "VmHWM:"))
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("malformed VmHWM line %q", line)
		}
		return strconv.ParseInt(f[0], 10, 64)
	}
	if err := sc.Err(); err != nil {
		return 0, err
	}
	return 0, fmt.Errorf("no VmHWM line")
}

// allocs is a snapshot of the heap's cumulative allocation counters.
type allocs struct {
	Objects uint64
	Bytes   uint64
}

// readAllocs snapshots the allocation counters. It stops the world
// briefly, so it belongs outside timed regions.
func readAllocs(ms *runtime.MemStats) allocs {
	runtime.ReadMemStats(ms)
	return allocs{Objects: ms.Mallocs, Bytes: ms.TotalAlloc}
}

// sub returns the allocations made between snapshot b and a.
func (a allocs) sub(b allocs) allocs {
	return allocs{Objects: a.Objects - b.Objects, Bytes: a.Bytes - b.Bytes}
}
