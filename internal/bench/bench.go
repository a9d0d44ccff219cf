// Package bench regenerates every table and figure of the paper's
// evaluation (§7). Each runner sweeps the figure's x-axis, executes the
// relevant engines on the deterministic simulation runtime, and prints
// the same series the paper plots. Absolute numbers depend on the cost
// model; the reproduction target is the shape: who wins, by what factor,
// and where the crossovers sit. Every engine run, figure or sweep, goes
// through Options.run.
package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"star/internal/baseline"
	"star/internal/core"
	"star/internal/metrics"
	"star/internal/model"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/workload"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

// Options scales an experiment run.
type Options struct {
	// Out receives the table rows.
	Out io.Writer
	// Short shrinks workers, data and measured time for CI-speed runs.
	Short bool
	Seed  int64
	// Duration overrides the measured virtual time per run (0 keeps the
	// Short/paper default); smoke tests use a few milliseconds.
	Duration time.Duration
}

func (o Options) workers() int {
	if o.Short {
		return 4
	}
	return 12 // §7.1: 12 worker threads per node
}

func (o Options) duration() time.Duration {
	if o.Duration > 0 {
		return o.Duration
	}
	if o.Short {
		return 60 * time.Millisecond
	}
	return 250 * time.Millisecond
}

func (o Options) ycsbRecords() int {
	if o.Short {
		return 4096
	}
	return 20000
}

func (o Options) tpccCfg(warehouses int) tpcc.Config {
	c := tpcc.Config{Warehouses: warehouses}
	if o.Short {
		c.Districts = 4
		c.CustomersPerDistrict = 96
		c.Items = 512
	} else {
		c.Districts = 10
		c.CustomersPerDistrict = 600
		c.Items = 4000
	}
	return c
}

func (o Options) printf(format string, args ...any) {
	fmt.Fprintf(o.Out, format, args...)
}

// bandwidth is the modelled per-node egress capacity. It is scaled with
// the worker count so that TPC-C saturates the wire around 4 nodes, as
// on the paper's 4.8 Gbit/s EC2 network (§7.6).
func (o Options) bandwidth() float64 {
	if o.Short {
		return 800e6
	}
	return 2.4e9
}

func (o Options) netCfg(nodes int) simnet.Config {
	cfg := simnet.DefaultConfig(nodes+1, o.Seed)
	cfg.Bandwidth = o.bandwidth()
	return cfg
}

func (o Options) ycsbWorkload(nodes, crossPct int) workload.Workload {
	if crossPct < 0 {
		crossPct = 10 // the paper's YCSB default (§7.1.1)
	}
	return ycsb.New(ycsb.Config{
		Partitions:          nodes * o.workers(),
		RecordsPerPartition: o.ycsbRecords(),
		CrossPct:            crossPct,
	})
}

func (o Options) tpccWorkload(nodes, crossPct int) workload.Workload {
	cfg := o.tpccCfg(nodes * o.workers())
	if crossPct >= 0 {
		cfg.SetCrossPct(crossPct)
	}
	return tpcc.New(cfg)
}

// tpccOrderStatusWorkload is the by-name read-only point: pure
// Order-Status (60% by last name through the customer_by_name index),
// every query about a remote warehouse's customer — the class the
// snapshot-read path serves with zero master routing.
func (o Options) tpccOrderStatusWorkload(nodes, crossPct int) workload.Workload {
	cfg := o.tpccCfg(nodes * o.workers())
	cfg.OrderStatusPct = 100
	cfg.CrossPctOrderStatus = crossPct
	return tpcc.New(cfg)
}

// tpccFullWorkload is the standard-weighted five-transaction mix
// (45/43/4/4/4 NewOrder/Payment/Delivery/Stock-Level/Order-Status):
// Delivery runs in deferred mode, Payment and Order-Status resolve
// by-name customers through the secondary index at execution time, and
// the cross-partition percentage also governs the multi-warehouse
// Stock-Level and remote-customer Order-Status variants the
// snapshot-read path serves.
func (o Options) tpccFullWorkload(nodes, crossPct int) workload.Workload {
	cfg := o.tpccCfg(nodes * o.workers())
	cfg.SetFullMix()
	if crossPct >= 0 {
		cfg.SetCrossPct(crossPct)
	}
	return tpcc.New(cfg)
}

// ---- the engine runner ----

// variant is what a figure varies in an engine run beyond its engine,
// cluster size and workload. The zero value is the sweep's run: the
// asynchronous replication + epoch group commit of Figure 11a/b.
type variant struct {
	sync bool               // synchronous replication (Figures 11c/d, 12 and 15a)
	lms  int                // Calvin-x's x (Figure 13); 0 takes NewCalvin's default
	dur  time.Duration      // measured virtual time; 0 takes o.duration()
	star func(*core.Config) // STAR's config edits (Figures 14 and 15b, the snapshot comparison)
}

// run builds engine (one of SweepEngines) on a fresh simulation of nodes
// nodes, its workload from wl at that size and cross% cross, measures its
// virtual run time and returns its stats and the cluster size it ran on:
// PB.OCC always runs as a two-node primary/backup pair holding the whole
// database.
func (o Options) run(engine string, nodes int, wl func(nodes, crossPct int) workload.Workload, cross int, v variant) (metrics.Stats, int) {
	if engine == "PB.OCC" {
		nodes = 2
	}
	s := rt.NewSim()
	cfg := baseline.Config{
		RT: s, Nodes: nodes, WorkersPerNode: o.workers(), Workload: wl(nodes, cross),
		SyncRepl: v.sync, LockManagers: v.lms, Seed: o.Seed, Transport: simnet.New(s, o.netCfg(nodes)),
	}
	var stats func() metrics.Stats
	switch engine {
	case "STAR":
		c := core.Config{
			RT: s, Nodes: nodes, WorkersPerNode: cfg.WorkersPerNode, Workload: cfg.Workload,
			SyncRepl: v.sync, Seed: o.Seed, Transport: cfg.Transport,
		}
		if v.star != nil {
			v.star(&c)
		}
		stats = core.New(c).Stats
	case "PB.OCC":
		stats = baseline.NewPBOCC(cfg).Stats
	case "Dist.OCC":
		stats = baseline.NewDist(cfg, baseline.DistOCC).Stats
	case "Dist.S2PL":
		stats = baseline.NewDist(cfg, baseline.DistS2PL).Stats
	case "Calvin":
		stats = baseline.NewCalvin(cfg).Stats
	default:
		panic(fmt.Sprintf("bench: unknown engine %q (known: %v)", engine, SweepEngines))
	}
	dur := v.dur
	if dur == 0 {
		dur = o.duration()
	}
	s.Run(dur)
	st := stats()
	st.Duration = s.Now()
	s.Stop()
	return st, nodes
}

// crossPoints is the x-axis of the Fig 11/13/15 sweeps.
func (o Options) crossPoints() []int {
	if o.Short {
		return []int{0, 20, 50, 80, 100}
	}
	return []int{0, 10, 20, 40, 60, 80, 100}
}

// kTxnsPerSec is a run's throughput in thousands of transactions per
// second; it takes run's two results as they come.
func kTxnsPerSec(st metrics.Stats, _ int) float64 { return st.Throughput() / 1000 }

// ---- Figure 3 and Figure 10: the analytical model ----

// Fig03 prints the model speedup of STAR over one node (Figure 3).
func Fig03(o Options) {
	o.printf("# Figure 3: modelled speedup of STAR over single-node execution\n")
	o.printf("%-8s", "nodes")
	for _, p := range []float64{0.01, 0.05, 0.10, 0.15} {
		o.printf("  %-8s", fmt.Sprintf("P=%.0f%%", p*100))
	}
	o.printf("\n")
	for n := 1; n <= 16; n++ {
		o.printf("%-8d", n)
		for _, p := range []float64{0.01, 0.05, 0.10, 0.15} {
			o.printf("  %-8.2f", model.Speedup(n, p))
		}
		o.printf("\n")
	}
}

// Fig10 prints the model improvement of STAR over both system classes on
// four nodes (Figure 10).
func Fig10(o Options) {
	o.printf("# Figure 10: modelled improvement of STAR (4 nodes) in %%\n")
	o.printf("%-8s", "P%")
	for _, k := range []float64{2, 4, 8, 16} {
		o.printf("  K=%-6.0f", k)
	}
	o.printf("  %s\n", "NonPart")
	for p := 0; p <= 100; p += 10 {
		pf := float64(p) / 100
		o.printf("%-8d", p)
		for _, k := range []float64{2, 4, 8, 16} {
			o.printf("  %-8.0f", 100*model.ImprovementOverPartitioned(4, k, pf))
		}
		o.printf("  %-8.0f\n", 100*model.ImprovementOverNonPartitioned(4, pf))
	}
}

// ---- Figure 11: throughput vs %% cross-partition ----

// Fig11a: YCSB, asynchronous replication + epoch group commit.
func Fig11a(o Options) {
	o.fig11(true, false)
}

// Fig11b: TPC-C, asynchronous replication + epoch group commit.
func Fig11b(o Options) {
	o.fig11(false, false)
}

// Fig11c: YCSB, synchronous replication baselines.
func Fig11c(o Options) {
	o.fig11(true, true)
}

// Fig11d: TPC-C, synchronous replication baselines.
func Fig11d(o Options) {
	o.fig11(false, true)
}

func (o Options) fig11(isYCSB, sync bool) {
	name, mk := "TPC-C", o.tpccWorkload
	if isYCSB {
		name, mk = "YCSB", o.ycsbWorkload
	}
	mode, engines := "async replication + epoch group commit", []string{"STAR", "PB.OCC", "Dist.OCC", "Dist.S2PL"}
	if sync {
		mode, engines = "synchronous replication", engines[1:]
	}
	o.printf("# Figure 11 (%s, %s): throughput (k txns/s) vs %%cross-partition, 4 nodes\n", name, mode)
	o.header("P%", engines)
	const nodes = 4
	for _, p := range o.crossPoints() {
		o.printf("%-8d", p)
		for _, engine := range engines {
			o.printf(" %-12.0f", kTxnsPerSec(o.run(engine, nodes, mk, p, variant{sync: sync})))
		}
		o.printf("\n")
	}
}

// header prints a figure's column line: first, then one column per name.
func (o Options) header(first string, names []string) {
	o.printf("%-8s", first)
	for _, n := range names {
		o.printf(" %-12s", n)
	}
	o.printf("\n")
}

// ---- Figure 12: latency table ----

// Fig12 prints p50/p99 latency (ms) for the sync baselines at P ∈
// {10,50,90} plus the async group-commit rows.
func Fig12(o Options) {
	o.printf("# Figure 12: latency ms (p50/p99), 4 nodes\n")
	o.printf("%-24s %-10s %-16s %-16s\n", "system", "workload", "P=10%", "P=50%/90%...")
	const nodes = 4
	for _, wlName := range []string{"YCSB", "TPC-C"} {
		mk := o.ycsbWorkload
		if wlName == "TPC-C" {
			mk = o.tpccWorkload
		}
		for _, engine := range []string{"PB.OCC", "Dist.OCC", "Dist.S2PL"} {
			o.printf("%-24s %-10s", engine+" (sync)", wlName)
			for _, p := range []int{10, 50, 90} {
				st, _ := o.run(engine, nodes, mk, p, variant{sync: true})
				o.printf(" %5.2f/%-8.2f", ms(st.Latency.Quantile(.5)), ms(st.Latency.Quantile(.99)))
			}
			o.printf("\n")
		}
	}
	// Async rows (latency dominated by the epoch/iteration, §7.2.3).
	for _, engine := range []string{"STAR", "PB.OCC", "Dist.OCC"} {
		label := engine + " (async)"
		if engine == "STAR" {
			label = engine
		}
		st, _ := o.run(engine, nodes, o.ycsbWorkload, 10, variant{})
		o.printf("%-24s %-10s %5.2f/%-8.2f (group commit)\n", label, "YCSB",
			ms(st.Latency.Quantile(.5)), ms(st.Latency.Quantile(.99)))
	}
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ---- Figure 13: Calvin comparison ----

// Fig13a: YCSB vs Calvin-x.
func Fig13a(o Options) { o.fig13(true) }

// Fig13b: TPC-C vs Calvin-x.
func Fig13b(o Options) { o.fig13(false) }

func (o Options) fig13(isYCSB bool) {
	name, mk := "TPC-C", o.tpccWorkload
	if isYCSB {
		name, mk = "YCSB", o.ycsbWorkload
	}
	lms := []int{2, 4, 6}
	if o.workers() <= 4 {
		lms = []int{1, 2, 3}
	}
	o.printf("# Figure 13 (%s): STAR vs Calvin-x, 4 nodes, k txns/s\n", name)
	o.printf("%-8s %-12s", "P%", "STAR")
	for _, x := range lms {
		o.printf(" %-12s", fmt.Sprintf("Calvin-%d", x))
	}
	o.printf("\n")
	const nodes = 4
	for _, p := range o.crossPoints() {
		o.printf("%-8d %-12.0f", p, kTxnsPerSec(o.run("STAR", nodes, mk, p, variant{})))
		for _, x := range lms {
			o.printf(" %-12.0f", kTxnsPerSec(o.run("Calvin", nodes, mk, p, variant{lms: x})))
		}
		o.printf("\n")
	}
}

// ---- Figure 14: phase transition overhead ----

// Fig14a sweeps the iteration time (YCSB, 4 nodes): throughput plus the
// overhead relative to a 200ms iteration.
func Fig14a(o Options) {
	o.printf("# Figure 14a: iteration time vs throughput and overhead (YCSB, 4 nodes, P=10%%)\n")
	o.printf("%-10s %-14s %-10s %-12s\n", "iter(ms)", "ktxns/s", "overhead", "fence-share")
	iters := []time.Duration{1, 2, 5, 10, 20, 50, 100, 200}
	base := -1.0
	for i := len(iters) - 1; i >= 0; i-- {
		it := iters[i] * time.Millisecond
		// Steady state needs several complete iterations per point.
		dur := o.duration() * 2
		if min := 6 * it; dur < min {
			dur = min
		}
		st, _ := o.run("STAR", 4, o.ycsbWorkload, 10, variant{dur: dur, star: func(c *core.Config) { c.Iteration = it }})
		tput := st.Throughput()
		if base < 0 {
			base = tput // 200ms reference, measured first
		}
		overhead := 100 * (1 - tput/base)
		if overhead < 0 {
			overhead = 0
		}
		o.printf("%-10d %-14.0f %-9.1f%% %-12.3f\n",
			iters[i], tput/1000, overhead, st.Extra["fence_share"])
	}
}

// Fig14b sweeps the node count at 10ms and 20ms iterations.
func Fig14b(o Options) {
	o.printf("# Figure 14b: phase-transition overhead vs nodes (YCSB, P=10%%)\n")
	o.printf("%-8s %-14s %-14s\n", "nodes", "ovh@10ms", "ovh@20ms")
	nodesList := []int{2, 4, 8, 16}
	if o.Short {
		nodesList = []int{2, 4, 8}
	}
	refIter := 200 * time.Millisecond
	for _, n := range nodesList {
		ref, _ := o.run("STAR", n, o.ycsbWorkload, 10, variant{dur: 6 * refIter, star: func(c *core.Config) { c.Iteration = refIter }})
		row := []float64{}
		for _, it := range []time.Duration{10 * time.Millisecond, 20 * time.Millisecond} {
			dur := o.duration()
			if min := 6 * it; dur < min {
				dur = min
			}
			st, _ := o.run("STAR", n, o.ycsbWorkload, 10, variant{dur: dur, star: func(c *core.Config) { c.Iteration = it }})
			ovh := 100 * (1 - st.Throughput()/ref.Throughput())
			if ovh < 0 {
				ovh = 0
			}
			row = append(row, ovh)
		}
		o.printf("%-8d %-13.1f%% %-13.1f%%\n", n, row[0], row[1])
	}
}

// ---- Figure 15: replication strategies and durability ----

// Fig15a compares SYNC STAR and STAR on TPC-C, reporting throughput and,
// per transaction, the encoded replication entry bytes shipped next to
// what the same entries would have cost as whole records. STAR replicates
// updates as field ops where §5's hybrid strategy allows (the only one the
// engine has), so the second number is its own counter, not a run.
func Fig15a(o Options) {
	o.printf("# Figure 15a: replication strategies (TPC-C, 4 nodes), k txns/s [shipped B / value-equivalent B per txn]\n")
	o.printf("%-8s %-26s %-26s\n", "P%", "SYNC STAR", "STAR")
	const nodes = 4
	for _, p := range o.crossPoints() {
		cell := func(sync bool) string {
			st, _ := o.run("STAR", nodes, o.tpccWorkload, p, variant{sync: sync})
			per := func(key string) float64 {
				if st.Committed == 0 {
					return 0
				}
				return st.Extra[key] / float64(st.Committed)
			}
			return fmt.Sprintf("%.0f [%.0fB / %.0fB]", st.Throughput()/1000, per("repl_entry_bytes"), per("repl_value_equiv_bytes"))
		}
		o.printf("%-8d %-26s %-26s\n", p, cell(true), cell(false))
	}
}

// Fig15b reports the disk-logging overhead on YCSB and TPC-C.
func Fig15b(o Options) {
	o.printf("# Figure 15b: durability overhead (4 nodes), k txns/s\n")
	o.printf("%-8s %-12s %-16s %-10s\n", "wl", "STAR", "STAR+logging", "overhead")
	const nodes = 4
	for _, wlName := range []string{"YCSB", "TPC-C"} {
		mk := o.ycsbWorkload
		if wlName == "TPC-C" {
			mk = o.tpccWorkload
		}
		// -1 is each workload's paper default mix.
		plain, _ := o.run("STAR", nodes, mk, -1, variant{})
		// A node logs iff it has a log directory: the logged run writes its
		// recovery logs to a temporary one.
		dir, err := os.MkdirTemp("", "star-fig15b-")
		if err != nil {
			o.printf("%-8s log directory: %v\n", wlName, err)
			continue
		}
		logged, _ := o.run("STAR", nodes, mk, -1, variant{star: func(c *core.Config) { c.LogDir = dir }})
		os.RemoveAll(dir)
		ovh := 100 * (1 - logged.Throughput()/plain.Throughput())
		if ovh < 0 {
			ovh = 0
		}
		o.printf("%-8s %-12.0f %-16.0f %-9.1f%%\n", wlName, plain.Throughput()/1000, logged.Throughput()/1000, ovh)
	}
}

// ---- Figure 16: scalability ----

// Fig16a: YCSB scalability, 2..16 nodes.
func Fig16a(o Options) { o.fig16(true) }

// Fig16b: TPC-C scalability (network-bound beyond ~4 nodes).
func Fig16b(o Options) { o.fig16(false) }

func (o Options) fig16(isYCSB bool) {
	name, mk := "TPC-C", o.tpccWorkload
	if isYCSB {
		name, mk = "YCSB", o.ycsbWorkload
	}
	o.printf("# Figure 16 (%s): scalability, k txns/s\n", name)
	engines := []string{"STAR", "Dist.OCC", "Dist.S2PL", "Calvin"}
	o.header("nodes", engines)
	nodesList := []int{2, 4, 8, 16}
	if o.Short {
		nodesList = []int{2, 4, 8}
	}
	for _, n := range nodesList {
		o.printf("%-8d", n)
		for _, engine := range engines {
			o.printf(" %-12.0f", kTxnsPerSec(o.run(engine, n, mk, -1, variant{})))
		}
		o.printf("\n")
	}
}

// Experiments maps experiment ids to their runners.
var Experiments = map[string]func(Options){
	"fig3":   Fig03,
	"fig10":  Fig10,
	"fig11a": Fig11a,
	"fig11b": Fig11b,
	"fig11c": Fig11c,
	"fig11d": Fig11d,
	"fig12":  Fig12,
	"fig13a": Fig13a,
	"fig13b": Fig13b,
	"fig14a": Fig14a,
	"fig14b": Fig14b,
	"fig15a": Fig15a,
	"fig15b": Fig15b,
	"fig16a": Fig16a,
	"fig16b": Fig16b,
}

// Order lists experiment ids in paper order.
var Order = []string{
	"fig3", "fig10", "fig11a", "fig11b", "fig11c", "fig11d", "fig12",
	"fig13a", "fig13b", "fig14a", "fig14b", "fig15a", "fig15b",
	"fig16a", "fig16b",
}
