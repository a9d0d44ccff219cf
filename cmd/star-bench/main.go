// Command star-bench is the benchmark harness. Its default mode runs the
// paper-figure sweeps — cross-partition % on YCSB and TPC-C, STAR versus
// the Calvin/PB.OCC/distributed baselines — on the deterministic
// simulation runtime and writes a machine-readable BENCH_results.json
// (throughput, abort rate, replication bytes and messages per committed
// transaction, plus the snapshot-read comparison), so successive PRs
// have a perf trajectory to beat. It can also regenerate any individual
// figure/table of the paper's evaluation (§7).
//
// Usage:
//
//	star-bench                         # full sweep → BENCH_results.json
//	star-bench -short -out B.json      # CI-scale sweep
//	star-bench -workloads ycsb -engines STAR,Calvin -cross 0,50,100
//	star-bench -experiment fig11a      # one paper figure to stdout
//	star-bench -experiment all
//	star-bench -list
//
// Paper-scale runs (12 workers/node, the default) take a few minutes per
// figure on one core; -short shrinks workers, data and measured time.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
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
	workloads := flag.String("workloads", "", "comma-separated sweep workloads (default: ycsb,tpcc)")
	engines := flag.String("engines", "", "comma-separated sweep engines (default: STAR,PB.OCC,Dist.OCC,Dist.S2PL,Calvin)")
	cross := flag.String("cross", "", "comma-separated cross-partition percentages (default: the Fig 11 x-axis)")
	flag.Parse()

	if *list {
		for _, id := range bench.Order {
			fmt.Println(id)
		}
		return
	}
	opt := bench.Options{Out: os.Stdout, Short: *short, Seed: *seed}

	if *experiment == "" {
		cfg := bench.SweepConfig{
			Nodes:     *nodes,
			Workloads: bench.SplitList(*workloads),
			Engines:   bench.SplitList(*engines),
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

func parseInts(s string) []int {
	var out []int
	for _, p := range bench.SplitList(s) {
		v, err := strconv.Atoi(p)
		if err != nil || v < 0 || v > 100 {
			fmt.Fprintf(os.Stderr, "bad -cross value %q (want a percentage in 0..100)\n", p)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
