package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"sort"

	"star/internal/core"
	"star/internal/metrics"
	"star/internal/workload"
)

// ResultsSchema versions the BENCH_results.json layout so later PRs can
// evolve it without breaking trajectory tooling.
const ResultsSchema = "star-bench/sweep/v1"

// SweepEngines are the engine names RunSweep understands, in report
// order: STAR plus the paper's baseline systems (§7.1.2).
var SweepEngines = []string{"STAR", "PB.OCC", "Dist.OCC", "Dist.S2PL", "Calvin"}

// SweepWorkloads are the workload names RunSweep understands:
// "tpcc" is the paper's NewOrder+Payment subset, "tpcc-full" the
// standard-weighted 45/43/4/4 mix with deferred Delivery and
// (cross-partition) Stock-Level.
var SweepWorkloads = []string{"ycsb", "tpcc", "tpcc-full"}

// SweepConfig selects what a sweep covers. Zero fields take the full
// paper-figure defaults (4 nodes, both workloads, all engines, the
// Fig 11/13 cross-partition x-axis).
type SweepConfig struct {
	Nodes     int
	Workloads []string
	Engines   []string
	CrossPcts []int
}

func (c SweepConfig) withDefaults(o Options) SweepConfig {
	if c.Nodes == 0 {
		c.Nodes = 4
	}
	if len(c.Workloads) == 0 {
		c.Workloads = SweepWorkloads
	}
	if len(c.Engines) == 0 {
		c.Engines = SweepEngines
	}
	if len(c.CrossPcts) == 0 {
		c.CrossPcts = o.crossPoints()
	}
	return c
}

// SweepPoint is one (workload, engine, cross%) measurement.
type SweepPoint struct {
	Workload string `json:"workload"`
	Engine   string `json:"engine"`
	CrossPct int    `json:"cross_pct"`
	Nodes    int    `json:"nodes"`

	Committed        int64   `json:"committed"`
	ThroughputTxnS   float64 `json:"throughput_txn_s"`
	AbortRate        float64 `json:"abort_rate"`
	P50Ms            float64 `json:"p50_ms"`
	P99Ms            float64 `json:"p99_ms"`
	ReplicationBytes int64   `json:"replication_bytes"`
	ReplicationMsgs  int64   `json:"replication_msgs"`
	BytesPerCommit   float64 `json:"repl_bytes_per_commit"`
	MsgsPerCommit    float64 `json:"repl_msgs_per_commit"`
}

// SnapshotPoint is one leg of the read-only snapshot-path comparison:
// STAR on the full TPC-C mix with cross-partition Stock-Level, with the
// snapshot-read path off (every read-only transaction routes to the
// master) versus on (served from the generating node's fence snapshot).
type SnapshotPoint struct {
	// Workload is "tpcc-full" (the mixed five-transaction run) or
	// "order-status" (the pure by-name read-only point).
	Workload       string  `json:"workload,omitempty"`
	Mode           string  `json:"mode"` // "master-routed" or "snapshot-reads"
	CrossPct       int     `json:"cross_pct"`
	Committed      int64   `json:"committed"`
	ThroughputTxnS float64 `json:"throughput_txn_s"`
	AbortRate      float64 `json:"abort_rate"`
	SnapshotReads  int64   `json:"snapshot_reads"`
	// SnapshotFallbacks counts read-only transactions that reached the
	// snapshot path but deferred to the master anyway (footprint not
	// held locally, or a session freshness token the local fence had
	// not covered yet).
	SnapshotFallbacks int64   `json:"snapshot_fallbacks"`
	Deferred          int64   `json:"deferred"`
	P50Ms             float64 `json:"p50_ms"`
	P99Ms             float64 `json:"p99_ms"`
}

// SweepResults is the machine-readable bundle star-bench writes to
// BENCH_results.json: the paper's headline cross-partition sweeps plus
// the snapshot-read comparison, so every later PR has a trajectory to
// beat.
type SweepResults struct {
	Schema     string          `json:"schema"`
	Seed       int64           `json:"seed"`
	Short      bool            `json:"short"`
	Nodes      int             `json:"nodes"`
	Workers    int             `json:"workers_per_node"`
	DurationMs float64         `json:"duration_ms"`
	Workloads  []string        `json:"workloads"`
	Engines    []string        `json:"engines"`
	CrossPcts  []int           `json:"cross_pcts"`
	Results    []SweepPoint    `json:"results"`
	Snapshot   []SnapshotPoint `json:"snapshot_reads,omitempty"`
}

// toPoint converts engine stats into a sweep point.
func toPoint(wl, engine string, crossPct, nodes int, st metrics.Stats) SweepPoint {
	return SweepPoint{
		Workload: wl, Engine: engine, CrossPct: crossPct, Nodes: nodes,
		Committed:        st.Committed,
		ThroughputTxnS:   st.Throughput(),
		AbortRate:        st.AbortRate(),
		P50Ms:            ms(st.Latency.Quantile(.5)),
		P99Ms:            ms(st.Latency.Quantile(.99)),
		ReplicationBytes: st.ReplicationBytes,
		ReplicationMsgs:  st.ReplicationMsgs,
		BytesPerCommit:   st.ReplBytesPerCommit(),
		MsgsPerCommit:    st.ReplMsgsPerCommit(),
	}
}

// sweepWorkload is the named workload's constructor.
func (o Options) sweepWorkload(name string) func(nodes, crossPct int) workload.Workload {
	switch name {
	case "ycsb":
		return o.ycsbWorkload
	case "tpcc-full":
		return o.tpccFullWorkload
	}
	return o.tpccWorkload
}

// RunSweep executes the cross-partition sweeps plus, with tpcc-full, the
// snapshot-read comparison and returns the result bundle. Progress lines
// go to o.Out.
func RunSweep(o Options, cfg SweepConfig) (SweepResults, error) {
	cfg = cfg.withDefaults(o)
	res := SweepResults{
		Schema:     ResultsSchema,
		Seed:       o.Seed,
		Short:      o.Short,
		Nodes:      cfg.Nodes,
		Workers:    o.workers(),
		DurationMs: ms(o.duration()),
		Workloads:  cfg.Workloads,
		Engines:    cfg.Engines,
		CrossPcts:  append([]int(nil), cfg.CrossPcts...),
	}
	sort.Ints(res.CrossPcts)
	for _, wl := range cfg.Workloads {
		if !slices.Contains(SweepWorkloads, wl) {
			return res, fmt.Errorf("bench: unknown sweep workload %q (known: %v)", wl, SweepWorkloads)
		}
	}
	// Reject unknown engines before any (possibly minutes-long) run, not
	// when the sweep loop first reaches them.
	for _, engine := range cfg.Engines {
		if !slices.Contains(SweepEngines, engine) {
			return res, fmt.Errorf("bench: unknown sweep engine %q (known: %v)", engine, SweepEngines)
		}
	}
	for _, wl := range cfg.Workloads {
		for _, engine := range cfg.Engines {
			for _, p := range res.CrossPcts {
				// All engines run the sweep's asynchronous replication +
				// epoch group commit (Figure 11a/b, STAR's default mode).
				st, ranNodes := o.run(engine, cfg.Nodes, o.sweepWorkload(wl), p, variant{})
				pt := toPoint(wl, engine, p, ranNodes, st)
				res.Results = append(res.Results, pt)
				o.printf("# sweep %-5s %-10s P=%-3d  %8.0f txn/s  abort=%.3f  %6.2f msg/txn  %7.0f B/txn\n",
					wl, engine, p, pt.ThroughputTxnS, pt.AbortRate, pt.MsgsPerCommit, pt.BytesPerCommit)
			}
		}
	}
	if slices.Contains(cfg.Workloads, "tpcc-full") {
		res.Snapshot = o.runSnapshotComparison(cfg.Nodes)
	}
	return res, nil
}

// runSnapshotComparison measures the read-only snapshot path on the
// full TPC-C mix: with SnapshotReads on, cross-partition Stock-Level
// scans run against the generating node's fence snapshot instead of the
// master's OCC queue — no master routing, no group-commit latency, no
// validation retries against the write-heavy mix.
func (o Options) runSnapshotComparison(nodes int) []SnapshotPoint {
	modes := []struct {
		name string
		on   bool
	}{{"master-routed", false}, {"snapshot-reads", true}}
	wls := []struct {
		name string
		mk   func(nodes, crossPct int) workload.Workload
	}{
		{"tpcc-full", o.tpccFullWorkload},
		// The by-name read-only point: pure cross-partition Order-Status
		// resolved through the customer_by_name secondary index.
		{"order-status", o.tpccOrderStatusWorkload},
	}
	var out []SnapshotPoint
	for _, wl := range wls {
		for _, crossPct := range []int{10, 50} {
			for _, m := range modes {
				st, _ := o.run("STAR", nodes, wl.mk, crossPct, variant{star: func(c *core.Config) { c.SnapshotReads = m.on }})
				pt := SnapshotPoint{
					Workload: wl.name, Mode: m.name, CrossPct: crossPct,
					Committed:         st.Committed,
					ThroughputTxnS:    st.Throughput(),
					AbortRate:         st.AbortRate(),
					SnapshotReads:     int64(st.Extra["snapshot_reads"]),
					SnapshotFallbacks: int64(st.Extra["snapshot_fallbacks"]),
					Deferred:          int64(st.Extra["deferred"]),
					P50Ms:             ms(st.Latency.Quantile(.5)),
					P99Ms:             ms(st.Latency.Quantile(.99)),
				}
				out = append(out, pt)
				o.printf("# snapshot %-12s %-14s P=%-3d  %8.0f txn/s  %7d snapshot reads  %5d fallbacks  %7d deferred\n",
					wl.name, m.name, crossPct, pt.ThroughputTxnS, pt.SnapshotReads, pt.SnapshotFallbacks, pt.Deferred)
			}
		}
	}
	return out
}

// WriteResultsFile marshals the bundle to path as indented JSON.
func WriteResultsFile(path string, res SweepResults) error {
	data, err := json.MarshalIndent(res, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
