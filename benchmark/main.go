// Command benchmark is the repository's wall-clock benchmark: a 2-node
// STAR cluster on real loopback TCP with the WAL on, measured end to end
// and layer by layer. See README.md in this directory and BENCHMARK.json
// at the repository root.
//
//	go run ./benchmark --workload ycsb_mix --seed 1 --seconds 20 --trace 0
//	go run ./benchmark --workload all --seed 1
//	go run ./benchmark -compare setA.jsonl setB.jsonl
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"
)

func main() {
	var (
		workload = flag.String("workload", "", "workload name (see BENCHMARK.json) or all")
		seed     = flag.Int64("seed", 1, "seeds the engines, the client key walks and the drill sequences")
		seconds  = flag.Int("seconds", 20, "measured window in seconds")
		trace    = flag.Int("trace", 0, "0: untraced run, end-to-end metrics; 1: traced run, per-layer metrics and a span file")
		scratch  = flag.String("scratch", ".bench_build", "directory for WAL files and the span file (created if missing)")
		compare  = flag.Bool("compare", false, "compare two result sets: -compare <setA> <setB> (files of captured benchmark output)")
	)
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			fatal("usage: benchmark -compare <setA> <setB>")
		}
		os.Exit(runCompare("BENCHMARK.json", flag.Arg(0), flag.Arg(1)))
	}
	var run []spec
	if *workload == "all" {
		run = specs
	} else if s, ok := specByName(*workload); ok {
		run = []spec{s}
	} else {
		fatal("unknown -workload %q", *workload)
	}
	if *seconds < 1 {
		fatal("-seconds must be at least 1")
	}
	if err := os.MkdirAll(*scratch, 0o755); err != nil {
		fatal("%v", err)
	}
	for _, s := range run {
		out, err := runBenchmark(s, benchOpts{
			sz:      fullSizes,
			seed:    *seed,
			window:  time.Duration(*seconds) * time.Second,
			traced:  *trace != 0,
			scratch: *scratch,
		})
		if err != nil {
			fatal("%s: %v", s.name, err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.Encode(map[string]any{"header": out.header})
		enc.Encode(map[string]any{"detail": out.detail})
		enc.Encode(out.result)
	}
}

func fatal(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "benchmark: "+format+"\n", args...)
	os.Exit(1)
}
