package core

import (
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

func ycsbCluster(t *testing.T, s *rt.Sim, nodes, workers, crossPct int, mod func(*Config)) *Engine {
	t.Helper()
	wl := ycsb.New(ycsb.Config{
		Partitions:          nodes * workers,
		RecordsPerPartition: 256,
		CrossPct:            crossPct,
	})
	cfg := Config{
		RT:             s,
		Nodes:          nodes,
		WorkersPerNode: workers,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		Seed:           1,
	}
	if mod != nil {
		mod(&cfg)
	}
	return New(cfg)
}

func settle(s *rt.Sim, e *Engine, extra time.Duration) {
	e.Freeze()
	s.Run(s.Now() + extra)
}

func TestSTARCommitsAndAlternatesPhases(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, nil)
	s.Run(60 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no transactions committed")
	}
	if st.Extra["deferred"] == 0 {
		t.Fatal("no cross-partition transactions were deferred to the master")
	}
	if st.Extra["tau_p_ms"] <= 0 || st.Extra["tau_s_ms"] <= 0 {
		t.Fatalf("phase tuning degenerate: τp=%.2f τs=%.2f", st.Extra["tau_p_ms"], st.Extra["tau_s_ms"])
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

func TestSTARPureSinglePartitionSkipsSingleMaster(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 3, 2, 0, nil)
	s.Run(50 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	// Equations (1)-(2): P=0 → τp=e, τs=0.
	if st.Extra["tau_s_ms"] != 0 {
		t.Fatalf("τs=%.3fms, want 0 at P=0", st.Extra["tau_s_ms"])
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

func TestSTARAllCrossBehavesLikeNonPartitioned(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 3, 2, 100, nil)
	s.Run(60 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	// P=1 → τp≈0: virtually all time in the single-master phase.
	if st.Extra["tau_p_ms"] > 0.3 {
		t.Fatalf("τp=%.3fms, want ≈0 at P=100", st.Extra["tau_p_ms"])
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

func TestSTARGroupCommitLatency(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, func(c *Config) { c.Iteration = 4 * time.Millisecond })
	s.Run(100 * time.Millisecond)
	st := e.Stats()
	if st.Latency.Count == 0 {
		t.Fatal("no latency samples: results were never released")
	}
	p50 := st.Latency.Quantile(0.5)
	// Mean latency should be on the order of the iteration time
	// ((τp+τs)/2 plus fence time, §4.3) — not microseconds, not seconds.
	if p50 < 500*time.Microsecond || p50 > 40*time.Millisecond {
		t.Fatalf("p50 latency %v implausible for 4ms iteration", p50)
	}
	s.Stop()
}

func TestSTARTPCCConsistencyInvariants(t *testing.T) {
	s := rt.NewSim()
	wl := tpcc.New(tpcc.Config{
		Warehouses:           6,
		Districts:            2,
		CustomersPerDistrict: 32,
		Items:                64,
	})
	e := New(Config{
		RT:             s,
		Nodes:          3,
		WorkersPerNode: 2,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		Seed:           7,
	})
	s.Run(50 * time.Millisecond)
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	// TPC-C invariant on the full replica: every district's d_next_o_id-1
	// equals its number of orders, and order lines exist per order.
	db := e.Node(0).db
	cfg := wl.Config()
	orders := 0
	for wid := 0; wid < cfg.Warehouses; wid++ {
		for did := 0; did < cfg.Districts; did++ {
			drow, _, ok := db.Table(tpcc.TDistrict).Get(wid, tpcc.DKey(wid, did)).ReadStable(nil)
			if !ok {
				t.Fatal("district missing")
			}
			nextOID := wl.Config().Districts // schema access below
			_ = nextOID
			next := int(dGet(wl, drow))
			for oid := 1; oid < next; oid++ {
				rec := db.Table(tpcc.TOrder).Get(wid, tpcc.OKey(wid, did, oid))
				if rec == nil {
					t.Fatalf("order w%d d%d o%d missing but d_next_o_id=%d", wid, did, oid, next)
				}
				if _, _, present := rec.ReadStable(nil); !present {
					t.Fatalf("order w%d d%d o%d is a tombstone but d_next_o_id=%d", wid, did, oid, next)
				}
				orders++
			}
			// No live orders beyond the counter (absent placeholders from
			// aborted inserts are fine).
			if rec := db.Table(tpcc.TOrder).Get(wid, tpcc.OKey(wid, did, next)); rec != nil {
				if _, _, present := rec.ReadStable(nil); present {
					t.Fatalf("order beyond d_next_o_id at w%d d%d", wid, did)
				}
			}
		}
	}
	if orders == 0 {
		t.Fatal("no orders inserted")
	}
	s.Stop()
}

// dGet reads d_next_o_id through the workload schema.
func dGet(wl *tpcc.Workload, drow []byte) uint64 {
	db := wl.BuildDB(wl.Config().Warehouses, make([]bool, wl.Config().Warehouses))
	return db.Table(tpcc.TDistrict).Schema().GetUint64(drow, tpcc.DNextOID)
}

func TestSTARSyncReplicationStillConsistent(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 3, 2, 30, func(c *Config) { c.SyncRepl = true })
	s.Run(40 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits under SYNC STAR")
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

// TestSTARHybridReplicationConsistentAndCheaper pins what operation
// replication and row packing buy on TPC-C in one run: the engine counts
// the encoded entries it shipped and what the same entries would have
// cost as whole, unpacked records. Overall savings are diluted by
// NewOrder's inserts and the single-master phase (both ship rows — packed
// to about half, since most of a TPC-C row is zeros); the
// order-of-magnitude §5 claim concerns the Payment record and is asserted
// at the entry level in the replication package. Cluster-wide the deltas
// and the packing together must clearly win, on the NewOrder/Payment
// subset and on the full mix (Delivery's customer rows, Trim's
// tombstones).
func TestSTARHybridReplicationConsistentAndCheaper(t *testing.T) {
	for _, c := range []struct {
		name    string
		fullMix bool
		cheaper float64 // value-equivalent bytes per byte shipped, at least
	}{{"subset", false, 2.5}, {"full mix", true, 2.4}} {
		s := rt.NewSim()
		cfg := tpcc.Config{Warehouses: 4, Districts: 2, CustomersPerDistrict: 32, Items: 64}
		if c.fullMix {
			cfg.SetFullMix()
		}
		e := New(Config{RT: s, Nodes: 2, WorkersPerNode: 2, Workload: tpcc.New(cfg), Iteration: 2 * time.Millisecond, Seed: 3})
		s.Run(40 * time.Millisecond)
		settle(s, e, 20*time.Millisecond)
		if err := e.CheckReplicaConsistency(); err != nil {
			t.Fatalf("%s: replicas diverged under operation replication: %v", c.name, err)
		}
		n := e.StatsSnapshot().Counters
		if n["committed"] == 0 || n["repl_op_entries"] == 0 || n["repl_value_entries"] == 0 {
			t.Fatalf("%s: committed=%d op entries=%d value entries=%d: want all non-zero",
				c.name, n["committed"], n["repl_op_entries"], n["repl_value_entries"])
		}
		shipped, asValues := n["repl_entry_bytes"], n["repl_value_equiv_bytes"]
		t.Logf("%s: shipped %d B for %d B of whole rows: %.2fx", c.name, shipped, asValues, float64(asValues)/float64(shipped))
		if float64(asValues) < c.cheaper*float64(shipped) {
			t.Fatalf("%s: shipped %d B not ≥%.1fx cheaper than the %d B value-equivalent (paper §5)", c.name, shipped, c.cheaper, asValues)
		}
		// The entry counters describe the same traffic the transport
		// carried. The simulated transport charges the cost model's fixed
		// 30-byte entry header and whole rows (replication.Entry.Size);
		// the counters price the real encoding, which codes an entry
		// against its envelope and the entry before it and packs its row —
		// so the model bounds them from above, by up to a factor of two on
		// these mixes. What real sockets carry is pinned against the
		// counters to the byte in tcpnet's loopback tests.
		if st := e.Stats(); st.ReplicationBytes < shipped || st.ReplicationBytes > shipped*2 {
			t.Fatalf("%s: transport charged %d replication bytes for %d encoded entry bytes", c.name, st.ReplicationBytes, shipped)
		}
		s.Stop()
	}
}

func TestSTARFailPartialNodeRemastersAndContinues(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, nil)
	s.Run(20 * time.Millisecond)
	before := e.Stats().Committed
	if before == 0 {
		t.Fatal("no commits before failure")
	}
	e.FailNode(3) // a partial replica: case 1/3 — re-master onto survivors
	s.Run(s.Now() + 120*time.Millisecond)
	if halted, reason := e.Halted(); halted {
		t.Fatalf("cluster halted after partial failure: %s", reason)
	}
	after := e.Stats().Committed
	if after <= before {
		t.Fatalf("no progress after failure: %d -> %d", before, after)
	}
	settle(s, e, 30*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

func TestSTARFullReplicaFailureIsCase2(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, nil)
	s.Run(20 * time.Millisecond)
	e.FailNode(0) // the only full replica
	s.Run(s.Now() + 150*time.Millisecond)
	halted, reason := e.Halted()
	if !halted {
		t.Fatal("case 2 must stop the phase-switching engine")
	}
	if reason == "" {
		t.Fatal("halt reason missing")
	}
	s.Stop()
}

func TestSTARSecondFullReplicaTakesOver(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 20, func(c *Config) { c.FullReplicas = 2 })
	s.Run(20 * time.Millisecond)
	e.FailNode(0)
	s.Run(s.Now() + 150*time.Millisecond)
	if halted, reason := e.Halted(); halted {
		t.Fatalf("with f=2 the second full replica must take over: %s", reason)
	}
	before := e.Stats().Committed
	s.Run(s.Now() + 40*time.Millisecond)
	if e.Stats().Committed <= before {
		t.Fatal("no progress under the failover master")
	}
	settle(s, e, 30*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

func TestSTARCase4HaltsWhenPartitionLosesAllReplicas(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, nil)
	s.Run(20 * time.Millisecond)
	// Partitions mastered by node 1 live on nodes {0,1}: failing both
	// loses every copy → loss of availability (case 4).
	e.FailNode(0)
	e.FailNode(1)
	s.Run(s.Now() + 200*time.Millisecond)
	halted, _ := e.Halted()
	if !halted {
		t.Fatal("case 4 must halt the cluster")
	}
	s.Stop()
}

func TestSTARNodeRejoinCatchesUp(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, nil)
	s.Run(20 * time.Millisecond)
	e.FailNode(2)
	s.Run(s.Now() + 100*time.Millisecond)
	if halted, reason := e.Halted(); halted {
		t.Fatalf("halted: %s", reason)
	}
	midway := e.Stats().Committed
	e.RecoverNode(2)
	s.Run(s.Now() + 150*time.Millisecond)
	if e.Stats().Committed <= midway {
		t.Fatal("no progress after rejoin")
	}
	settle(s, e, 40*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatalf("rejoined replica diverged: %v", err)
	}
	s.Stop()
}

func TestSTARRealRuntimeSmoke(t *testing.T) {
	r := rt.NewReal()
	wl := ycsb.New(ycsb.Config{Partitions: 4, RecordsPerPartition: 128, CrossPct: 20})
	e := New(Config{
		RT:             r,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       wl,
		Iteration:      5 * time.Millisecond,
		Seed:           2,
	})
	deadline := time.Now().Add(5 * time.Second)
	for e.Stats().Committed == 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	st := e.Stats()
	r.Stop()
	if st.Committed == 0 {
		t.Fatal("no commits on the real runtime")
	}
}

func TestTopologyHelpers(t *testing.T) {
	cfg := Config{Nodes: 4, WorkersPerNode: 3, FullReplicas: 1}
	cfg = cfg.withDefaults()
	if cfg.NumPartitions() != 12 {
		t.Fatal("partitions")
	}
	topo := cfg.Topology()
	if topo.MasterOf(0) != 0 || topo.MasterOf(11) != 3 {
		t.Fatal("master mapping")
	}
	// Partitions mastered by the full replica need a partial secondary.
	for p := 0; p < 3; p++ {
		s := topo.SecondaryOf(p)
		if s < 1 || s > 3 {
			t.Fatalf("secondary of %d = %d", p, s)
		}
	}
	// Partitions mastered by partials are already on the full replica.
	if topo.SecondaryOf(5) != -1 {
		t.Fatal("unexpected secondary")
	}
	// Every partition must have ≥2 holders (f+1 copies, §3).
	for p := 0; p < 12; p++ {
		if len(topo.HoldersOf(p)) < 2 {
			t.Fatalf("partition %d under-replicated", p)
		}
	}
	// The partials together hold a complete copy (paper Fig 2).
	covered := make([]bool, 12)
	for n := 1; n < 4; n++ {
		for p, h := range topo.HoldsMask(n) {
			if h {
				covered[p] = true
			}
		}
	}
	for p, c := range covered {
		if !c {
			t.Fatalf("partition %d missing from the partial replicas", p)
		}
	}
}
