// Command bench-diff is the benchmark-trajectory guardrail: it compares
// a fresh sweep (or a previously written results file) against the
// committed BENCH_results.json baseline and exits non-zero when any
// matched point's throughput regressed by more than the threshold.
//
// The fresh sweep reruns on the deterministic simulation runtime with
// the baseline's recorded seed and scale, so the comparison is stable
// across machines — a regression means the code changed the modelled
// behaviour, not that the CI host was slow.
//
// Usage:
//
//	bench-diff                                  # fresh short sweep vs BENCH_results.json
//	bench-diff -engines STAR -workloads ycsb    # subset (faster; compares the intersection)
//	bench-diff -current other.json              # compare two files, no fresh run
//	bench-diff -threshold 10                    # tighter regression bound
package main

import (
	"flag"
	"fmt"
	"os"
	"time"

	"star/internal/bench"
)

func main() {
	baseline := flag.String("baseline", "BENCH_results.json", "committed baseline results file")
	current := flag.String("current", "", "results file to compare (empty: run a fresh sweep)")
	threshold := flag.Float64("threshold", 15, "regression threshold in percent")
	engines := flag.String("engines", "", "comma-separated engines for the fresh sweep (default: all in the baseline)")
	workloads := flag.String("workloads", "", "comma-separated workloads for the fresh sweep")
	verbose := flag.Bool("v", false, "print every matched point, not just regressions")
	flag.Parse()

	base, err := bench.ReadResultsFile(*baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "baseline:", err)
		os.Exit(2)
	}

	var cur bench.SweepResults
	if *current != "" {
		cur, err = bench.ReadResultsFile(*current)
		if err != nil {
			fmt.Fprintln(os.Stderr, "current:", err)
			os.Exit(2)
		}
		// The subset flags narrow a file comparison too, not just the
		// fresh sweep.
		cur.Results = filterPoints(cur.Results, bench.SplitList(*workloads), bench.SplitList(*engines))
	} else {
		// Rerun at the baseline's recorded scale and seed.
		opt := bench.Options{Out: os.Stderr, Short: base.Short, Seed: base.Seed}
		cfg := bench.SweepConfig{
			Nodes:     base.Nodes,
			Workloads: bench.SplitList(*workloads),
			Engines:   bench.SplitList(*engines),
			CrossPcts: base.CrossPcts,
		}
		if cfg.Workloads == nil {
			cfg.Workloads = base.Workloads
		}
		if cfg.Engines == nil {
			cfg.Engines = base.Engines
		}
		start := time.Now()
		cur, err = bench.RunSweep(opt, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			os.Exit(2)
		}
		fmt.Fprintf(os.Stderr, "# fresh sweep: %d points in %v\n",
			len(cur.Results), time.Since(start).Round(time.Millisecond))
	}

	deltas := bench.DiffResults(base, cur, *threshold)
	if len(deltas) == 0 {
		fmt.Fprintln(os.Stderr, "bench-diff: no matching points between baseline and current")
		os.Exit(2)
	}
	regs := bench.Regressions(deltas)
	for _, d := range deltas {
		if *verbose || d.Regressed {
			fmt.Println(bench.FormatDelta(d))
		}
	}
	if len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "bench-diff: %d of %d points regressed more than %.0f%%\n",
			len(regs), len(deltas), *threshold)
		os.Exit(1)
	}
	fmt.Printf("bench-diff: %d points within %.0f%% of baseline\n", len(deltas), *threshold)
}

// filterPoints keeps the points matching the requested workloads and
// engines (nil filter = keep all).
func filterPoints(pts []bench.SweepPoint, workloads, engines []string) []bench.SweepPoint {
	keep := func(list []string, v string) bool {
		if len(list) == 0 {
			return true
		}
		for _, x := range list {
			if x == v {
				return true
			}
		}
		return false
	}
	var out []bench.SweepPoint
	for _, p := range pts {
		if keep(workloads, p.Workload) && keep(engines, p.Engine) {
			out = append(out, p)
		}
	}
	return out
}
