// star-admin drives a live STAR cluster's unified control-plane API
// through any node's client front door (star-node -client): freezing
// the workload, reading per-node checksums and fault-injection
// counters, inspecting the installed topology, and changing membership
// at epoch fences (join / drain). It is a thin CLI over the
// admin verbs of internal/client, the one front-door client: -timeout is
// the client's ReqTimeout and -dial-deadline its DialDeadline.
//
// Usage:
//
//	star-admin -addr HOST:PORT freeze|unfreeze
//	star-admin -addr HOST:PORT -node N checksums
//	star-admin -addr HOST:PORT -node N fault-stats
//	star-admin -addr HOST:PORT -node N join
//	star-admin -addr HOST:PORT -node N drain
//	star-admin -addr HOST:PORT topology
//	star-admin -addr HOST:PORT [-node N] stat
//	star-admin -addr HOST:PORT [-node N] [-interval D] [-iters N] top
//
// join admits slot N at the next epoch fence, whatever kept it out: a dark
// or drained slot joins the next topology version, and a member the
// cluster evicted as failed — its process restarted — rejoins the
// installed one, which is how a crashed node is brought back. A failed
// member can always be joined; drain and the join of a dark slot are
// refused until every member is back.
//
// stat prints one metric-registry snapshot — the targeted node's, or
// (without -node) the cluster-merged aggregate of every member, all
// fetched through the single connected door. top re-samples every
// -interval and prints delta rates (txn/s, abort/s, epochs/s) plus the
// window's latency quantiles, like a tiny cluster-wide htop.
//
// Exit status 0 on success; the failure reason goes to stderr.
package main

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"slices"
	"strings"
	"time"

	"star/internal/client"
	"star/internal/core"
	"star/internal/metrics"
)

func main() {
	addr := flag.String("addr", "", "front-door address (host:port) of any cluster member")
	node := flag.Int("node", -1, "target slot id for node-scoped and membership verbs")
	reqTimeout := flag.Duration("timeout", 30*time.Second, "per-operation timeout")
	dialDeadline := flag.Duration("dial-deadline", 15*time.Second, "overall connect deadline")
	interval := flag.Duration("interval", 2*time.Second, "top: sampling interval")
	iters := flag.Int("iters", 0, "top: number of refreshes (0 = until interrupted)")
	flag.Parse()

	verb := flag.Arg(0)
	if *addr == "" || verb == "" {
		fmt.Fprintln(os.Stderr, "usage: star-admin -addr HOST:PORT [-node N] freeze|unfreeze|checksums|fault-stats|join|drain|topology|stat|top")
		os.Exit(2)
	}
	needNode := func() int {
		if *node < 0 {
			fatalf("%s: -node is required", verb)
		}
		return *node
	}

	// Admin envelopes carry no workload payloads: the codec needs no
	// workload registration.
	c, err := client.Dial(client.Config{Addr: *addr, Codec: core.NewWireCodec(nil), ReqTimeout: *reqTimeout, DialDeadline: *dialDeadline})
	if err != nil {
		fatalf("%v", err)
	}
	defer c.Close()

	switch verb {
	case "freeze":
		check(c.Freeze(true))
		fmt.Println("frozen")
	case "unfreeze":
		check(c.Freeze(false))
		fmt.Println("unfrozen")
	case "checksums":
		cs, err := c.Checksums(needNode())
		check(err)
		for i, p := range cs.Parts {
			fmt.Printf("part %d sum %016x\n", p, cs.Sums[i])
		}
	case "fault-stats":
		stats, err := c.FaultStats(needNode())
		check(err)
		for _, k := range slices.Sorted(maps.Keys(stats)) {
			fmt.Printf("%s %d\n", k, stats[k])
		}
	case "join":
		t, err := c.Join(needNode())
		check(err)
		printTopology(t)
	case "drain":
		t, err := c.Drain(needNode())
		check(err)
		printTopology(t)
	case "topology":
		t, err := c.Topology()
		check(err)
		printTopology(t)
	case "stat":
		s, err := clusterStats(c, *node)
		check(err)
		printSnapshot(s)
	case "top":
		runTop(c, *node, *interval, *iters)
	default:
		fatalf("unknown verb %q", verb)
	}
}

// clusterStats fetches one node's metric snapshot, or — when node < 0 —
// every member's through the single connected door (the door forwards
// node-targeted AdminStats internally) merged into the cluster view.
func clusterStats(c *client.Client, node int) (metrics.Snapshot, error) {
	if node >= 0 {
		return c.Stats(node)
	}
	t, err := c.Topology()
	if err != nil {
		return metrics.Snapshot{}, err
	}
	var agg metrics.Snapshot
	for _, m := range t.Members {
		s, err := c.Stats(m)
		if err != nil {
			return metrics.Snapshot{}, err
		}
		agg.Merge(s)
	}
	return agg, nil
}

// printSnapshot renders a snapshot in sorted name order: scalars one per
// line, histograms as count + quantiles.
func printSnapshot(s metrics.Snapshot) {
	scalars := func(kind string, m map[string]int64) {
		for _, n := range slices.Sorted(maps.Keys(m)) {
			fmt.Printf("%s %s %d\n", kind, n, m[n])
		}
	}
	scalars("counter", s.Counters)
	scalars("gauge", s.Gauges)
	for _, n := range slices.Sorted(maps.Keys(s.Hists)) {
		h := s.Hists[n]
		fmt.Printf("hist %s count %d mean %v p50 %v p99 %v max %v\n",
			n, h.Count, h.Mean(), h.Quantile(0.5), h.Quantile(0.99), time.Duration(h.Max))
	}
}

// runTop samples the cluster-merged (or node-targeted) snapshot every
// interval and prints per-window delta rates plus the window's latency
// quantiles.
func runTop(c *client.Client, node int, interval time.Duration, iters int) {
	prev, err := clusterStats(c, node)
	check(err)
	for i := 0; iters <= 0 || i < iters; i++ {
		time.Sleep(interval)
		cur, err := clusterStats(c, node)
		check(err)
		rate := func(name string) float64 {
			return float64(cur.Counters[name]-prev.Counters[name]) / interval.Seconds()
		}
		lat := histDelta(cur.Hists["latency"], prev.Hists["latency"])
		var lag int64
		for name, v := range cur.Gauges {
			if strings.HasPrefix(name, "repl_lag{") {
				lag += v
			}
		}
		fmt.Printf("txn/s %8.0f  abort/s %6.0f  epoch/s %5.1f  p50 %-10v p99 %-10v shed/s %5.0f  repl_lag %d\n",
			rate("committed"), rate("aborted")+rate("user_aborts"), rate("epochs"),
			lat.Quantile(0.5), lat.Quantile(0.99),
			rate("shed_frontdoor")+rate("rejected"), lag)
		// The phase switch: the slices the tuner set now (the coordinator's
		// τp/τs gauges), how far phases ran past their slice, how long the
		// fences took, and the share of the window that was neither slice
		// nor work — overrun plus fence.
		over := histDelta(cur.Hists["phase_overrun"], prev.Hists["phase_overrun"])
		fence := histDelta(cur.Hists["fence"], prev.Hists["fence"])
		us := func(name string) time.Duration { return time.Duration(cur.Gauges[name]) * time.Microsecond }
		fmt.Printf("  switch: τp %-8v τs %-8v overrun p50 %-10v p99 %-10v fence p50 %-10v p99 %-10v outside-slice %4.1f%%\n",
			us("tau_p_us"), us("tau_s_us"), over.Quantile(0.5), over.Quantile(0.99), fence.Quantile(0.5), fence.Quantile(0.99),
			100*float64(over.Sum+fence.Sum)/float64(interval))
		// Replication by entry kind (worker shards, folded at each fence):
		// encoded entry bytes per committed transaction, what shipping
		// updates as field ops where §5's rule allows, and rows packed,
		// saved against the same entries as whole unpacked rows, and the
		// share that were ops (the rest ship rows or tombstones).
		delta := func(name string) float64 { return float64(cur.Counters[name] - prev.Counters[name]) }
		ops, shipped, asValues := delta("repl_op_entries"), delta("repl_entry_bytes"), delta("repl_value_equiv_bytes")
		fmt.Printf("  repl: %6.0f B/txn shipped  %4.1f%% saved vs value-equivalent  %4.1f%% operation entries\n",
			ratio(shipped, delta("committed")), 100*ratio(asValues-shipped, asValues),
			100*ratio(ops, ops+delta("repl_value_entries")))
		// Recovery-log bytes per committed transaction, twice: what the
		// cost model charged (log_bytes: len(row)+32 per logged write, on
		// every runtime) and what the log files took (wal_file_bytes: the
		// envelope frames, rows zero-packed; 0 without a LogDir).
		gauge := func(name string) float64 { return float64(cur.Gauges[name] - prev.Gauges[name]) }
		fmt.Printf("  wal:  %6.0f B/txn charged (log_bytes)  %6.0f B/txn written (wal_file_bytes)\n",
			ratio(gauge("log_bytes"), delta("committed")), ratio(gauge("wal_file_bytes"), delta("committed")))
		// Frames dropped so far: undecodable (each closed its link), shed by a dead link, refused.
		fmt.Printf("  net:  %d undecodable  %d shed  %d refused\n",
			cur.Gauges["net_decode_errors"], cur.Gauges["net_shed_frames"], cur.Counters["frames_refused"])
		prev = cur
	}
}

// ratio is a/b, or 0 when there is nothing to divide by.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// histDelta subtracts two cumulative snapshots of the same histogram,
// yielding the window's samples (Max stays the cumulative max — the
// buckets bound the window quantiles fine without it).
func histDelta(cur, prev metrics.HistSnapshot) metrics.HistSnapshot {
	d := metrics.HistSnapshot{
		Count: cur.Count - prev.Count,
		Sum:   cur.Sum - prev.Sum,
		Max:   cur.Max,
	}
	for b, n := range cur.Buckets {
		if delta := n - prev.Buckets[b]; delta > 0 {
			if d.Buckets == nil {
				d.Buckets = make(map[int]int64)
			}
			d.Buckets[b] = delta
		}
	}
	return d
}

func printTopology(t client.Topology) {
	fmt.Printf("version %d\n", t.Version)
	for i, m := range t.Members {
		addr := ""
		if i < len(t.ClientAddrs) {
			addr = t.ClientAddrs[i]
		}
		fmt.Printf("member %d addr %s\n", m, addr)
	}
	fmt.Printf("masters %v\n", t.Masters)
}

func check(err error) {
	if err != nil {
		fatalf("%v", err)
	}
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "star-admin: "+format+"\n", args...)
	os.Exit(1)
}
