package baseline

import (
	"reflect"
	"testing"
	"time"

	"star/internal/metrics"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

func ycsbWL(nodes, workers, crossPct int) *ycsb.Workload {
	return ycsb.New(ycsb.Config{
		Partitions:          nodes * workers,
		RecordsPerPartition: 128,
		CrossPct:            crossPct,
	})
}

func baseCfg(s *rt.Sim, nodes, workers int, wl interface {
	Name() string
}) Config {
	return Config{
		RT:             s,
		Nodes:          nodes,
		WorkersPerNode: workers,
		Seed:           1,
	}
}

// orderPresent reports whether a live (non-tombstone) order row exists.
func orderPresent(db *storage.DB, wid, did, oid int) bool {
	rec := db.Table(tpcc.TOrder).Get(wid, tpcc.OKey(wid, did, oid))
	if rec == nil {
		return false
	}
	_, _, present := rec.ReadStable(nil)
	return present
}

// checkPair compares a partition across two databases.
func checkPair(t *testing.T, a, b *storage.DB, p int, what string) {
	t.Helper()
	if a.PartitionChecksum(p) != b.PartitionChecksum(p) {
		t.Fatalf("%s: partition %d diverged between replicas", what, p)
	}
}

func TestPBOCCAsyncCommitsAndReplicates(t *testing.T) {
	s := rt.NewSim()
	wl := ycsbWL(2, 2, 20)
	cfg := baseCfg(s, 2, 2, wl)
	cfg.Workload = wl
	e := NewPBOCC(cfg)
	s.Run(40 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	if st.Latency.Count == 0 {
		t.Fatal("group commit never released results")
	}
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	for p := 0; p < 4; p++ {
		checkPair(t, e.Primary(), e.Backup(), p, "pbocc")
	}
	s.Stop()
}

func TestPBOCCSyncLatencyIsRoundTrip(t *testing.T) {
	s := rt.NewSim()
	wl := ycsbWL(2, 2, 20)
	cfg := baseCfg(s, 2, 2, wl)
	cfg.Workload = wl
	cfg.SyncRepl = true
	e := NewPBOCC(cfg)
	s.Run(30 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	// Sync replication: per-txn latency ≈ RTT (~100µs), far below the
	// 2ms group-commit epoch (paper Fig 12's contrast).
	if p50 := st.Latency.Quantile(0.5); p50 > time.Millisecond {
		t.Fatalf("sync p50=%v, want sub-millisecond", p50)
	}
	e.Freeze()
	s.Run(s.Now() + 10*time.Millisecond)
	for p := 0; p < 4; p++ {
		checkPair(t, e.Primary(), e.Backup(), p, "pbocc-sync")
	}
	s.Stop()
}

func distConsistency(t *testing.T, e *Dist) {
	t.Helper()
	cfg := e.Config()
	for p := 0; p < cfg.NumPartitions(); p++ {
		m, b := cfg.MasterOf(p), cfg.BackupOf(p)
		checkPair(t, e.NodeDB(m), e.NodeDB(b), p, e.Stats().Engine)
	}
}

func TestDistOCCAsync(t *testing.T) {
	s := rt.NewSim()
	wl := ycsbWL(3, 2, 30)
	cfg := baseCfg(s, 3, 2, wl)
	cfg.Workload = wl
	e := NewDist(cfg, DistOCC)
	s.Run(40 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	distConsistency(t, e)
	s.Stop()
}

func TestDistOCCSync2PC(t *testing.T) {
	s := rt.NewSim()
	wl := ycsbWL(3, 2, 30)
	cfg := baseCfg(s, 3, 2, wl)
	cfg.Workload = wl
	cfg.SyncRepl = true
	e := NewDist(cfg, DistOCC)
	s.Run(40 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits under 2PC")
	}
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	distConsistency(t, e)
	s.Stop()
}

func TestDistS2PLAsyncAndAborts(t *testing.T) {
	s := rt.NewSim()
	wl := ycsbWL(3, 2, 80) // heavy cross-partition => NO_WAIT conflicts
	cfg := baseCfg(s, 3, 2, wl)
	cfg.Workload = wl
	e := NewDist(cfg, DistS2PL)
	s.Run(40 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	distConsistency(t, e)
	s.Stop()
}

func TestDistS2PLSync(t *testing.T) {
	s := rt.NewSim()
	wl := ycsbWL(2, 2, 30)
	cfg := baseCfg(s, 2, 2, wl)
	cfg.Workload = wl
	cfg.SyncRepl = true
	e := NewDist(cfg, DistS2PL)
	s.Run(40 * time.Millisecond)
	if e.Stats().Committed == 0 {
		t.Fatal("no commits")
	}
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	distConsistency(t, e)
	s.Stop()
}

func TestDistTPCCInvariant(t *testing.T) {
	s := rt.NewSim()
	wl := tpcc.New(tpcc.Config{
		Warehouses:           4,
		Districts:            2,
		CustomersPerDistrict: 32,
		Items:                64,
	})
	cfg := Config{RT: s, Nodes: 2, WorkersPerNode: 2, Workload: wl, Seed: 3}
	e := NewDist(cfg, DistOCC)
	s.Run(40 * time.Millisecond)
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	if e.Stats().Committed == 0 {
		t.Fatal("no commits")
	}
	// d_next_o_id-1 == number of orders, per district, on the master.
	sch := wl.BuildDB(4, make([]bool, 4)).Table(tpcc.TDistrict).Schema()
	for wid := 0; wid < 4; wid++ {
		db := e.NodeDB(e.Config().MasterOf(wid))
		for did := 0; did < 2; did++ {
			drow, _, _ := db.Table(tpcc.TDistrict).Get(wid, tpcc.DKey(wid, did)).ReadStable(nil)
			next := int(sch.GetUint64(drow, tpcc.DNextOID))
			for oid := 1; oid < next; oid++ {
				if !orderPresent(db, wid, did, oid) {
					t.Fatalf("order w%d d%d o%d missing (next=%d)", wid, did, oid, next)
				}
			}
			// Aborted inserts may leave absent placeholders; only a
			// PRESENT row beyond the counter is an anomaly.
			if orderPresent(db, wid, did, next) {
				t.Fatalf("order beyond counter at w%d d%d", wid, did)
			}
		}
	}
	distConsistency(t, e)
	s.Stop()
}

func TestCalvinCommitsAndIsDeterministic(t *testing.T) {
	run := func() (*Calvin, []uint64, int64) {
		s := rt.NewSim()
		wl := ycsbWL(2, 3, 30)
		cfg := Config{RT: s, Nodes: 2, WorkersPerNode: 3, Workload: wl,
			LockManagers: 1, Seed: 5}
		e := NewCalvin(cfg)
		s.Run(40 * time.Millisecond)
		e.Freeze()
		s.Run(s.Now() + 20*time.Millisecond)
		sums := make([]uint64, cfg.NumPartitions())
		for p := 0; p < cfg.NumPartitions(); p++ {
			sums[p] = e.NodeDB(cfg.MasterOf(p)).PartitionChecksum(p)
		}
		c := e.Stats().Committed
		s.Stop()
		return e, sums, c
	}
	_, sumsA, cA := run()
	_, sumsB, cB := run()
	if cA == 0 {
		t.Fatal("no commits")
	}
	if cA != cB {
		t.Fatalf("commit counts differ across identical runs: %d vs %d", cA, cB)
	}
	for p := range sumsA {
		if sumsA[p] != sumsB[p] {
			t.Fatalf("partition %d state differs across identical runs: determinism broken", p)
		}
	}
}

func TestCalvinLockManagerConfigs(t *testing.T) {
	for _, x := range []int{1, 2} {
		s := rt.NewSim()
		wl := ycsbWL(2, 3, 20)
		cfg := Config{RT: s, Nodes: 2, WorkersPerNode: 3, Workload: wl,
			LockManagers: x, Seed: 6}
		e := NewCalvin(cfg)
		s.Run(40 * time.Millisecond)
		if e.Stats().Committed == 0 {
			t.Fatalf("Calvin-%d: no commits", x)
		}
		s.Stop()
	}
}

func TestCalvinTPCC(t *testing.T) {
	s := rt.NewSim()
	wl := tpcc.New(tpcc.Config{
		Warehouses:           6,
		Districts:            2,
		CustomersPerDistrict: 32,
		Items:                64,
	})
	cfg := Config{RT: s, Nodes: 2, WorkersPerNode: 3, Workload: wl,
		LockManagers: 1, Seed: 7}
	e := NewCalvin(cfg)
	s.Run(60 * time.Millisecond)
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	if st.Extra["user_aborts"] == 0 {
		t.Log("note: no invalid-item rollbacks observed (small run)")
	}
	s.Stop()
}

func TestTopology(t *testing.T) {
	cfg := Config{Nodes: 4, WorkersPerNode: 3}
	cfg = cfg.withDefaults()
	if cfg.NumPartitions() != 12 {
		t.Fatal("partitions")
	}
	for p := 0; p < 12; p++ {
		if cfg.MasterOf(p) == cfg.BackupOf(p) {
			t.Fatalf("partition %d: primary and secondary on the same node", p)
		}
	}
	mask := cfg.HoldsMask(1)
	holds := 0
	for _, h := range mask {
		if h {
			holds++
		}
	}
	if holds != 6 { // 3 mastered + 3 backed up
		t.Fatalf("node 1 holds %d partitions, want 6", holds)
	}
}

// A Transport handed in is the network the engine runs on: the default
// simnet passed explicitly carries all of the run's traffic, and the run
// equals the one a nil Transport builds.
func TestTransportInput(t *testing.T) {
	run := func(net transport.Transport, s *rt.Sim) metrics.Stats {
		e := NewPBOCC(Config{RT: s, Nodes: 2, WorkersPerNode: 2, Workload: ycsbWL(2, 2, 20), Seed: 1, Transport: net})
		s.Run(30 * time.Millisecond)
		st := e.Stats()
		s.Stop()
		return st
	}
	implicit := run(nil, rt.NewSim())
	s := rt.NewSim()
	net := simnet.New(s, simnet.DefaultConfig(3, 1))
	explicit := run(net, s)
	if implicit.Committed == 0 {
		t.Fatal("no commits")
	}
	if net.TotalBytes() == 0 || net.TotalBytes() != explicit.NetworkBytes {
		t.Fatalf("the given network carried %d bytes, the run reports %d", net.TotalBytes(), explicit.NetworkBytes)
	}
	if !reflect.DeepEqual(implicit, explicit) {
		t.Fatalf("stats differ:\nnil Transport: %+v\nexplicit simnet: %+v", implicit, explicit)
	}
}
