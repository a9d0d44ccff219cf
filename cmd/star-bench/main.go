// Command star-bench is the benchmark harness. Its default mode runs the
// paper-figure sweeps — cross-partition % on YCSB and TPC-C, STAR versus
// the Calvin/PB.OCC/distributed baselines — on the deterministic
// simulation runtime and writes a machine-readable BENCH_results.json
// (throughput, abort rate, replication bytes and messages per committed
// transaction, plus the snapshot-read comparison), so successive PRs
// have a perf trajectory to beat. It can also regenerate any individual
// figure/table of the paper's evaluation (§7).
//
// With -baseline it is the trajectory guardrail instead: it reruns the
// sweep at the baseline file's recorded seed, scale, cluster size and
// cross points (narrowed by -workloads/-engines), or reads -current, and
// exits 1 when a matched point's throughput fell by more than -threshold
// percent (2 when no point matches). The simulation is deterministic, so
// a regression means the code changed the modelled behaviour, not that
// the host was slow.
//
// Usage:
//
//	star-bench                         # full sweep → BENCH_results.json
//	star-bench -short -out B.json      # CI-scale sweep
//	star-bench -workloads ycsb -engines STAR,Calvin -cross 0,50,100
//	star-bench -experiment fig11a      # one paper figure to stdout
//	star-bench -experiment all
//	star-bench -list
//	star-bench -baseline BENCH_results.json -workloads ycsb -v   # rerun and compare
//	star-bench -baseline BENCH_results.json -current B.json      # compare two files
//
// Paper-scale runs (12 workers/node, the default) take a few minutes per
// figure on one core; -short shrinks workers, data and measured time.
package main

import (
	"flag"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"star/internal/bench"
)

func main() {
	experiment := flag.String("experiment", "", "paper experiment id (see -list), 'all', or empty for the sweep")
	short := flag.Bool("short", false, "reduced scale for quick runs")
	seed := flag.Int64("seed", 42, "deterministic seed")
	list := flag.Bool("list", false, "list experiment ids and exit")
	out := flag.String("out", "BENCH_results.json", "sweep results file")
	nodes := flag.Int("nodes", 4, "sweep cluster size")
	workloads := flag.String("workloads", "", "comma-separated sweep workloads (default: ycsb,tpcc,tpcc-full)")
	engines := flag.String("engines", "", "comma-separated sweep engines (default: STAR,PB.OCC,Dist.OCC,Dist.S2PL,Calvin)")
	cross := flag.String("cross", "", "comma-separated cross-partition percentages (default: the Fig 11 x-axis)")
	baseline := flag.String("baseline", "", "results file to compare against: rerun the sweep at its seed, scale, nodes and cross points instead of writing one")
	current := flag.String("current", "", "with -baseline: results file to compare instead of rerunning the sweep")
	threshold := flag.Float64("threshold", 15, "with -baseline: throughput regression threshold in percent")
	verbose := flag.Bool("v", false, "with -baseline: print every matched point, not just regressions")
	flag.Parse()

	if *list {
		for _, id := range bench.Order {
			fmt.Println(id)
		}
		return
	}
	if *baseline != "" {
		os.Exit(compare(*baseline, *current, splitList(*workloads), splitList(*engines), *threshold, *verbose))
	}
	opt := bench.Options{Out: os.Stdout, Short: *short, Seed: *seed}

	if *experiment == "" {
		cfg := bench.SweepConfig{
			Nodes:     *nodes,
			Workloads: splitList(*workloads),
			Engines:   splitList(*engines),
			CrossPcts: parseInts(*cross),
		}
		start := time.Now()
		res, err := bench.RunSweep(opt, cfg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		if err := bench.WriteResultsFile(*out, res); err != nil {
			fmt.Fprintln(os.Stderr, "write results:", err)
			os.Exit(1)
		}
		fmt.Printf("# sweep: %d points → %s in %v\n",
			len(res.Results), *out, time.Since(start).Round(time.Millisecond))
		return
	}

	run := func(id string) {
		fn, ok := bench.Experiments[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q; try -list\n", id)
			os.Exit(2)
		}
		start := time.Now()
		fn(opt)
		fmt.Printf("# (%s finished in %v)\n\n", id, time.Since(start).Round(time.Millisecond))
	}
	if *experiment == "all" {
		for _, id := range bench.Order {
			run(id)
		}
		return
	}
	run(*experiment)
}

// compare checks the sweep's points against the baseline file's, on the
// workloads and engines named (all the baseline's when nil): those of
// the file current, or of a fresh sweep at the baseline's seed and scale
// when current is empty. It prints the regressions (every matched point
// with verbose) and returns the exit code: 0 when every matched point is
// within threshold percent, 1 on a regression, 2 when nothing matched or
// a file or the sweep failed.
func compare(baseline, current string, workloads, engines []string, threshold float64, verbose bool) int {
	base, err := bench.ReadResultsFile(baseline)
	if err != nil {
		fmt.Fprintln(os.Stderr, "baseline:", err)
		return 2
	}
	if workloads == nil {
		workloads = base.Workloads
	}
	if engines == nil {
		engines = base.Engines
	}
	var cur bench.SweepResults
	if current != "" {
		if cur, err = bench.ReadResultsFile(current); err != nil {
			fmt.Fprintln(os.Stderr, "current:", err)
			return 2
		}
		cur.Results = slices.DeleteFunc(cur.Results, func(p bench.SweepPoint) bool {
			return !slices.Contains(workloads, p.Workload) || !slices.Contains(engines, p.Engine)
		})
	} else {
		start := time.Now()
		cur, err = bench.RunSweep(bench.Options{Out: os.Stderr, Short: base.Short, Seed: base.Seed},
			bench.SweepConfig{Nodes: base.Nodes, Workloads: workloads, Engines: engines, CrossPcts: base.CrossPcts})
		if err != nil {
			fmt.Fprintln(os.Stderr, "sweep:", err)
			return 2
		}
		fmt.Fprintf(os.Stderr, "# fresh sweep: %d points in %v\n",
			len(cur.Results), time.Since(start).Round(time.Millisecond))
	}

	deltas := bench.DiffResults(base, cur, threshold)
	if len(deltas) == 0 {
		fmt.Fprintln(os.Stderr, "star-bench: no matching points between baseline and current")
		return 2
	}
	for _, d := range deltas {
		if verbose || d.Regressed {
			fmt.Println(bench.FormatDelta(d))
		}
	}
	if regs := bench.Regressions(deltas); len(regs) > 0 {
		fmt.Fprintf(os.Stderr, "star-bench: %d of %d points regressed more than %.0f%%\n",
			len(regs), len(deltas), threshold)
		return 1
	}
	fmt.Printf("star-bench: %d points within %.0f%% of baseline\n", len(deltas), threshold)
	return 0
}

// splitList parses a comma-separated flag value into its non-empty,
// trimmed elements (nil for an empty string).
func splitList(s string) []string {
	var out []string
	for _, p := range strings.Split(s, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseInts(s string) []int {
	var out []int
	for _, p := range splitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 100 {
			fmt.Fprintf(os.Stderr, "bad -cross value %q (want a percentage in 0..100)\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
