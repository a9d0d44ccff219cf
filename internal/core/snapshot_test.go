package core

import (
	"reflect"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/transport"
	"star/internal/workload/tpcc"
)

// fullMixTPCC is the standard-weighted four-transaction mix at a small
// scale, with Stock-Level's cross-partition variant enabled.
func fullMixTPCC(nparts, crossSL int) *tpcc.Workload {
	cfg := tpcc.Config{
		Warehouses:           nparts,
		Districts:            2,
		CustomersPerDistrict: 100,
		Items:                1000,
		CrossPctStockLevel:   crossSL,
		CrossPctOrderStatus:  crossSL,
	}
	cfg.SetFullMix()
	return tpcc.New(cfg)
}

func runScriptedResult(t *testing.T, cfg Config, txns int) (ScriptResult, *Engine) {
	t.Helper()
	s := cfg.RT.(*rt.Sim)
	run := StartScripted(cfg, Script{TxnsPerPartition: txns})
	s.Run(s.Now() + time.Hour)
	select {
	case res := <-run.Done():
		if res.Err != "" {
			t.Fatalf("scripted run failed: %s", res.Err)
		}
		return res, run.E
	default:
		t.Fatal("scripted run did not finish in virtual time")
		return ScriptResult{}, nil
	}
}

// TestSnapshotReadsServeStockLevelWithoutMasterRouting is the pinned
// transport-accounting check for the read-only snapshot path: a pure
// cross-partition Stock-Level workload with SnapshotReads on completes
// every transaction without sending a single master-routed (Data class)
// message — every read is served from the generating node's fence
// snapshot. The same run with SnapshotReads off routes every one of
// them to the master. Both runs commit every generated transaction and
// leave identical (read-only) database state.
func TestSnapshotReadsServeStockLevelWithoutMasterRouting(t *testing.T) {
	const (
		nodes, workers = 2, 2
		txns           = 30
		nparts         = nodes * workers
	)
	mk := func(snapshot bool) (ScriptResult, int64, map[string]float64) {
		s := rt.NewSim()
		defer s.Stop()
		wcfg := tpcc.Config{
			Warehouses:           nparts,
			Districts:            2,
			CustomersPerDistrict: 100,
			Items:                1000,
			StockLevelPct:        100, // Stock-Level only...
			CrossPctStockLevel:   100, // ...always cross-partition
		}
		res, e := runScriptedResult(t, Config{
			RT: s, Nodes: nodes, WorkersPerNode: workers,
			Workload: tpcc.New(wcfg), Seed: 7, SnapshotReads: snapshot,
		}, txns)
		return res, e.Net().Messages(transport.Data), e.Stats().Extra
	}

	on, onData, onExtra := mk(true)
	off, offData, offExtra := mk(false)

	want := int64(nparts * txns)
	if on.Committed != want || off.Committed != want {
		t.Fatalf("committed on=%d off=%d, want %d each", on.Committed, off.Committed, want)
	}
	if onData != 0 {
		t.Fatalf("SnapshotReads on: %d master-routed Data messages, want 0", onData)
	}
	if onExtra["snapshot_reads"] != float64(want) || onExtra["deferred"] != 0 {
		t.Fatalf("SnapshotReads on: snapshot_reads=%v deferred=%v, want %d/0",
			onExtra["snapshot_reads"], onExtra["deferred"], want)
	}
	if offData == 0 || offExtra["deferred"] != float64(want) || offExtra["snapshot_reads"] != 0 {
		t.Fatalf("SnapshotReads off: data=%d deferred=%v snapshot_reads=%v, want all master-routed",
			offData, offExtra["deferred"], offExtra["snapshot_reads"])
	}
	// Read-only workload: both modes leave the loaded state untouched.
	if !reflect.DeepEqual(on.Checksums, off.Checksums) {
		t.Fatal("snapshot and master-routed runs diverged on read-only state")
	}
}

// TestSnapshotReadsServeOrderStatusWithoutMasterRouting is the same
// transport-accounting pin for the new by-name read-only class: a pure
// cross-partition Order-Status workload (60% by last name, resolved
// through the customer_by_name index at execution time) with
// SnapshotReads on completes every transaction with zero master-routed
// Data messages; with SnapshotReads off every one of them defers to the
// master. Both runs commit everything and leave the read-only state
// untouched.
func TestSnapshotReadsServeOrderStatusWithoutMasterRouting(t *testing.T) {
	const (
		nodes, workers = 2, 2
		txns           = 30
		nparts         = nodes * workers
	)
	mk := func(snapshot bool) (ScriptResult, int64, map[string]float64) {
		s := rt.NewSim()
		defer s.Stop()
		wcfg := tpcc.Config{
			Warehouses:           nparts,
			Districts:            2,
			CustomersPerDistrict: 100,
			Items:                1000,
			OrderStatusPct:       100, // Order-Status only...
			CrossPctOrderStatus:  100, // ...always about a remote customer
		}
		res, e := runScriptedResult(t, Config{
			RT: s, Nodes: nodes, WorkersPerNode: workers,
			Workload: tpcc.New(wcfg), Seed: 9, SnapshotReads: snapshot,
		}, txns)
		return res, e.Net().Messages(transport.Data), e.Stats().Extra
	}

	on, onData, onExtra := mk(true)
	off, offData, offExtra := mk(false)

	want := int64(nparts * txns)
	if on.Committed != want || off.Committed != want {
		t.Fatalf("committed on=%d off=%d, want %d each", on.Committed, off.Committed, want)
	}
	if onData != 0 {
		t.Fatalf("SnapshotReads on: %d master-routed Data messages, want 0", onData)
	}
	if onExtra["snapshot_reads"] != float64(want) || onExtra["deferred"] != 0 {
		t.Fatalf("SnapshotReads on: snapshot_reads=%v deferred=%v, want %d/0",
			onExtra["snapshot_reads"], onExtra["deferred"], want)
	}
	if offData == 0 || offExtra["deferred"] != float64(want) || offExtra["snapshot_reads"] != 0 {
		t.Fatalf("SnapshotReads off: data=%d deferred=%v snapshot_reads=%v, want all master-routed",
			offData, offExtra["deferred"], offExtra["snapshot_reads"])
	}
	// Read-only workload: both modes leave the loaded state untouched.
	if !reflect.DeepEqual(on.Checksums, off.Checksums) {
		t.Fatal("snapshot and master-routed order-status runs diverged on read-only state")
	}
}

// TestScriptedFullMixDeterministic extends the PR 3 determinism pin to
// the full five-table-touching TPC-C mix (45/43/4/4 with deferred
// Delivery) and to the snapshot-read path: committed counts and
// post-fence checksums are a pure function of config+seed across
// repeat runs and across runtimes.
func TestScriptedFullMixDeterministic(t *testing.T) {
	const (
		nodes, workers = 2, 2
		txns           = 40
		seed           = 11
	)
	cfg := func(r rt.Runtime, snapshot bool) Config {
		return Config{
			RT: r, Nodes: nodes, WorkersPerNode: workers,
			Workload: fullMixTPCC(nodes*workers, 50), Seed: seed,
			SnapshotReads: snapshot,
		}
	}
	runSim := func(snapshot bool) ScriptResult {
		s := rt.NewSim()
		defer s.Stop()
		res, _ := runScriptedResult(t, cfg(s, snapshot), txns)
		return res
	}

	a := runSim(false)
	if a.Committed == 0 {
		t.Fatal("full-mix run committed nothing")
	}
	if b := runSim(false); !reflect.DeepEqual(a, b) {
		t.Fatalf("two full-mix sim runs differ:\n%+v\nvs\n%+v", a, b)
	}

	// Real runtime, same config → same result.
	r := rt.NewReal()
	run := StartScripted(cfg(r, false), Script{TxnsPerPartition: txns})
	var c ScriptResult
	select {
	case c = <-run.Done():
	case <-time.After(2 * time.Minute):
		t.Fatal("real-runtime full-mix run did not finish")
	}
	r.Stop()
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("sim and real full-mix runs differ:\n%+v\nvs\n%+v", a, c)
	}

	// Snapshot reads stay deterministic too, and commit the same count
	// (read-only transactions commit on either path).
	sa := runSim(true)
	if sb := runSim(true); !reflect.DeepEqual(sa, sb) {
		t.Fatal("snapshot-read full-mix runs are not deterministic")
	}
	if sa.Committed != a.Committed {
		t.Fatalf("snapshot path changed the committed count: %d vs %d", sa.Committed, a.Committed)
	}

	// Replicas agree on every shared partition.
	for _, res := range []ScriptResult{a, sa} {
		sums := map[int32]map[int]uint64{}
		for _, nc := range res.Checksums {
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
				} else if s != first {
					t.Fatalf("partition %d: replicas disagree: %v", p, byNode)
				}
			}
		}
	}
}

// TestSnapshotCtxReadsFenceVersion pins the snapshot semantics at the
// record level inside a live worker: a record written in the in-flight
// epoch reads as its pre-epoch version through the worker's context at
// the fence, and as the new version once the next epoch begins.
func TestSnapshotCtxReadsFenceVersion(t *testing.T) {
	_, w := newHotPathHarness(128)
	req := singleReq(w)
	w.execSerial(req, 2)
	if len(w.set.Writes) == 0 {
		t.Fatal("harness transaction wrote nothing")
	}
	we := w.set.Writes[0]
	rec := w.n.db.Table(we.Table).Get(we.Part, we.Key)
	cur, _, _ := rec.ReadStable(nil)
	curCopy := append([]byte(nil), cur...)

	w.lctx.Reset()
	w.lctx.Fence = 2
	atFence, ok := w.lctx.Read(we.Table, we.Part, we.Key)
	if !ok {
		t.Fatal("fence read missed an existing record")
	}
	if reflect.DeepEqual(atFence, curCopy) {
		t.Fatal("epoch-2 snapshot read returned the in-flight epoch-2 write")
	}

	// At epoch 3 the epoch-2 write IS the fence state.
	w.lctx.Reset()
	w.lctx.Fence = 3
	atNext, ok := w.lctx.Read(we.Table, we.Part, we.Key)
	if !ok || !reflect.DeepEqual(atNext, curCopy) {
		t.Fatalf("epoch-3 snapshot read did not see the epoch-2 commit (ok=%v)", ok)
	}
}
