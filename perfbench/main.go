// Command perfbench is neurogo's benchmark: it serves one of four
// canonical workloads through the program's public API, checks the
// outputs against independent computations, and prints every metric by
// name and unit, ending with one JSON line.
//
//	perfbench --workload conv-tiled --seed 3 --seconds 10 --trace 0
//
// With --trace 0 the run reports the end-to-end metrics; with --trace 1
// it replays the same operations with each layer's calls timed and
// reports the per-layer metrics. See README.md.
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

// options are one run's settings.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	scratch  string // directory for shard sockets and mapping files
}

var workloads = map[string]func(options) (*report, error){
	"digits-async":   runDigits,
	"conv-tiled":     func(o options) (*report, error) { return runConv(o, false) },
	"conv-shards":    func(o options) (*report, error) { return runConv(o, true) },
	"keyword-stream": runKeyword,
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		workload = flag.String("workload", "", "digits-async, conv-tiled, conv-shards or keyword-stream")
		seed     = flag.Uint64("seed", 1, "seed of the served inputs")
		seconds  = flag.Float64("seconds", 10, "length of the measured phase in seconds")
		trace    = flag.Int("trace", 0, "1: report per-layer metrics from a traced replay")
		scratch  = flag.String("scratch", filepath.Join(".bench_build", "shards"), "directory for shard sockets and mapping files")

		shardServe = flag.Bool("shard-serve", false, "internal: run as a shard server process")
		mapping    = flag.String("mapping", "", "internal: shard mapping file")
		shards     = flag.Int("shards", 0, "internal: shard count")
		shard      = flag.Int("shard", 0, "internal: shard index")
		listen     = flag.String("listen", "", "internal: shard socket path")
	)
	flag.Parse()
	if *shardServe {
		if err := serveShard(*mapping, *listen, *shards, *shard); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench shard:", err)
			return 1
		}
		return 0
	}
	w, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	r, err := w(options{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, scratch: *scratch})
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		return 1
	}
	if err := r.write(os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench %s: %v\n", *workload, err)
		return 1
	}
	if !r.correct() {
		fmt.Fprintf(os.Stderr, "perfbench %s: a correctness check failed\n", *workload)
		return 1
	}
	return 0
}
