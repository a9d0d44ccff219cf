package core

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/workload/tpcc"
)

func scriptedTPCCConfig(r rt.Runtime, nodes, workers int, seed int64) Config {
	return Config{
		RT:             r,
		Nodes:          nodes,
		WorkersPerNode: workers,
		Workload: tpcc.New(tpcc.Config{
			Warehouses:           nodes * workers,
			Districts:            2,
			CustomersPerDistrict: 100,
			Items:                1000,
		}),
		Seed: seed,
	}
}

func runScriptedSim(t *testing.T, nodes, workers, txns int, seed int64) ScriptResult {
	t.Helper()
	s := rt.NewSim()
	defer s.Stop()
	run := StartScripted(scriptedTPCCConfig(s, nodes, workers, seed), Script{TxnsPerPartition: txns})
	s.Run(s.Now() + time.Hour)
	select {
	case res := <-run.Done():
		return res
	default:
		t.Fatal("scripted run did not finish in virtual time")
		return ScriptResult{}
	}
}

func runScriptedReal(t *testing.T, nodes, workers, txns int, seed int64) ScriptResult {
	t.Helper()
	r := rt.NewReal()
	defer r.Stop()
	run := StartScripted(scriptedTPCCConfig(r, nodes, workers, seed), Script{TxnsPerPartition: txns})
	select {
	case res := <-run.Done():
		return res
	case <-time.After(2 * time.Minute):
		t.Fatal("scripted run did not finish")
		return ScriptResult{}
	}
}

// TestScriptedRunDeterministic pins the property the loopback TCP
// integration test builds on: a scripted run's committed count and
// post-fence partition checksums are a pure function of config+seed —
// identical across repeat runs AND across runtimes (virtual simulation
// vs real goroutines), because per-partition execution is serial in
// generation order and the master drain is sorted by deterministic
// stamps.
func TestScriptedRunDeterministic(t *testing.T) {
	const (
		nodes, workers = 2, 2
		txns           = 60
		seed           = 42
	)
	a := runScriptedSim(t, nodes, workers, txns, seed)
	if a.Err != "" {
		t.Fatalf("run a failed: %s", a.Err)
	}
	if a.Committed == 0 {
		t.Fatal("scripted run committed nothing")
	}
	if len(a.Checksums) != nodes {
		t.Fatalf("checksums from %d nodes, want %d", len(a.Checksums), nodes)
	}
	b := runScriptedSim(t, nodes, workers, txns, seed)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("two sim runs differ:\n%+v\nvs\n%+v", a, b)
	}
	c := runScriptedReal(t, nodes, workers, txns, seed)
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("sim and real-runtime runs differ:\n%+v\nvs\n%+v", a, c)
	}

	// Replicas agree: both nodes hold every partition's data they share.
	// Node 0 is a full replica; every partition it reports must match the
	// owning node's copy.
	sums := map[int32]map[int]uint64{}
	for _, nc := range a.Checksums {
		for i, p := range nc.Parts {
			if sums[p] == nil {
				sums[p] = map[int]uint64{}
			}
			sums[p][nc.Node] = nc.Sums[i]
		}
	}
	for p, byNode := range sums {
		var first uint64
		firstSet := false
		for _, s := range byNode {
			if !firstSet {
				first, firstSet = s, true
				continue
			}
			if s != first {
				t.Fatalf("partition %d: replicas disagree: %v", p, byNode)
			}
		}
	}

	// A different seed must change the outcome (the test would otherwise
	// pass vacuously on constant results).
	d := runScriptedSim(t, nodes, workers, txns, seed+1)
	if reflect.DeepEqual(a.Checksums, d.Checksums) {
		t.Fatal("different seeds produced identical checksums")
	}
}

// TestScriptedRunPinned holds the seed-42 run to a fixed outcome: a
// change that takes a different number of steps, or stamps or orders them
// differently, fails here even when it does so alike on every runtime
// (which TestScriptedRunDeterministic, comparing runs with each other,
// would pass).
func TestScriptedRunPinned(t *testing.T) {
	res := runScriptedSim(t, 2, 2, 60, 42)
	if res.Err != "" {
		t.Fatalf("scripted run failed: %s", res.Err)
	}
	if res.Committed != 236 {
		t.Errorf("committed %d, want 236", res.Committed)
	}
	want := []uint64{0x7419744fdcec7afc, 0x3c6a69b9251c41cd, 0x90463b642f9ac05b, 0xaf2035d263723e19}
	for _, nc := range res.Checksums {
		if !reflect.DeepEqual(nc.Parts, []int32{0, 1, 2, 3}) || !reflect.DeepEqual(nc.Sums, want) {
			t.Errorf("node %d: partitions %v checksums %#x, want [0 1 2 3] %#x", nc.Node, nc.Parts, nc.Sums, want)
		}
	}
	if len(res.Checksums) != 2 {
		t.Errorf("checksums from %d nodes, want 2", len(res.Checksums))
	}
}

// A count-bounded run has no epoch to revert and retry: a node that is
// down before the first phase makes the run halt with a reason naming the
// phase and the node, which is the result's Err; the halt is broadcast,
// so a node-only process waiting in StartScripted is released; and the
// whole wait is virtual time.
func TestScriptedRunHaltsNamingTheMissingNode(t *testing.T) {
	const nodes = 3
	s := rt.NewSim()
	defer s.Stop()
	tap := newTapNet(s, nodes)
	cfg := scriptedTPCCConfig(s, nodes, 2, 42)
	cfg.Transport = tap
	// Two process-sides on one simulated network: nodes 0 and 1 with the
	// coordinator, node 2 on its own.
	a, b := cfg, cfg
	a.LocalNodes, a.LocalCoordinator = []int{0, 1}, true
	b.LocalNodes = []int{2}
	tap.SetDown(1, true)

	wall := time.Now()
	runB := StartScripted(b, Script{TxnsPerPartition: 20})
	runA := StartScripted(a, Script{TxnsPerPartition: 20})
	s.Run(s.Now() + time.Hour)
	var res ScriptResult
	select {
	case res = <-runA.Done():
	default:
		t.Fatal("scripted run with a failed node never returned")
	}
	if !strings.Contains(res.Err, Partitioned.String()) || !strings.Contains(res.Err, "nodes [1]") {
		t.Fatalf("Err = %q, want the partitioned phase and node 1 named", res.Err)
	}
	if res.Committed != 0 || len(res.Checksums) != 0 {
		t.Fatalf("failed run reported results: %+v", res)
	}
	if halted, reason := runA.E.Halted(); !halted || reason != res.Err {
		t.Fatalf("engine halted=%v reason %q, want the run's Err %q", halted, reason, res.Err)
	}
	select {
	case <-runB.Done():
	default:
		t.Fatal("node-only StartScripted waiter was not released by the halt")
	}
	halts := map[int]bool{}
	for _, ev := range tap.since(0) {
		if _, ok := ev.m.(msgHalt); ok {
			halts[ev.dst] = true
		}
	}
	if !halts[0] || !halts[2] {
		t.Fatalf("msgHalt sent to %v, want every node told", halts)
	}
	if s.Now() < scriptTimeout {
		t.Fatalf("gave up on node 1 after %v, before the %v it is allowed", s.Now(), scriptTimeout)
	}
	if d := time.Since(wall); d > 30*time.Second {
		t.Fatalf("a %v virtual wait took %v of wall time", scriptTimeout, d)
	}
}

// A scripted run waits on the members, not on every provisioned slot: a
// cluster booted with one slot dark completes (without burning a gather
// timeout on it), reports the members only, agrees on every partition's
// checksum across its holders, and — being two phases on the ordinary
// loop — counts its two epochs.
func TestScriptedRunWithDarkSlotCompletes(t *testing.T) {
	const nodes, workers = 4, 2
	s := rt.NewSim()
	defer s.Stop()
	cfg := scriptedTPCCConfig(s, nodes, workers, 42)
	cfg.Members = []int{0, 1, 2}
	run := StartScripted(cfg, Script{TxnsPerPartition: 30})
	s.Run(s.Now() + time.Hour)
	var res ScriptResult
	select {
	case res = <-run.Done():
	default:
		t.Fatal("scripted run with a dark slot did not finish")
	}
	if res.Err != "" || res.Committed == 0 {
		t.Fatalf("bad result: %+v", res)
	}
	if s.Now() >= scriptTimeout {
		t.Fatalf("run took %v of virtual time: it waited on the dark slot", s.Now())
	}
	if len(res.Checksums) != 3 {
		t.Fatalf("checksums from %d nodes, want the 3 members", len(res.Checksums))
	}
	topo := run.E.Topology()
	sums := map[int32]uint64{}
	reported := 0
	for i, nc := range res.Checksums {
		if nc.Node != i {
			t.Fatalf("checksums[%d] is node %d's", i, nc.Node)
		}
		for j, p := range nc.Parts {
			if !topo.Holds(nc.Node, int(p)) {
				t.Fatalf("node %d reported partition %d, which it does not hold", nc.Node, p)
			}
			if first, seen := sums[p]; seen && first != nc.Sums[j] {
				t.Fatalf("partition %d: node %d has %x, another holder %x", p, nc.Node, nc.Sums[j], first)
			}
			sums[p] = nc.Sums[j]
			reported++
		}
	}
	holders := 0
	for p := 0; p < nodes*workers; p++ {
		holders += len(topo.HoldersOf(p))
	}
	if len(sums) != nodes*workers || reported != holders {
		t.Fatalf("%d partitions in %d reports, want %d partitions from all %d holders", len(sums), reported, nodes*workers, holders)
	}
	if c := run.E.StatsSnapshot().Counters; c["epochs"] != 2 || c["phases_partitioned"] != 1 || c["phases_single_master"] != 1 {
		t.Fatalf("epochs=%d partitioned=%d single-master=%d, want 2/1/1", c["epochs"], c["phases_partitioned"], c["phases_single_master"])
	}
}
