package baseline

import (
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/storage"
	"star/internal/workload/tpcc"
)

// fullMixWL is the standard-weighted four-transaction TPC-C mix with a
// generous Delivery/Stock-Level share so short runs exercise them.
func fullMixWL(nparts int) *tpcc.Workload {
	cfg := tpcc.Config{
		Warehouses:           nparts,
		Districts:            2,
		CustomersPerDistrict: 60,
		Items:                300,
		DeliveryPct:          10,
		StockLevelPct:        10,
		CrossPctStockLevel:   30,
		TrimPct:              6, // deletes in the mix on every engine
		TrimRetain:           2,
	}
	return tpcc.New(cfg)
}

// checkDeleteInvariants verifies the delete-side TPC-C invariants on a
// frozen db: every delivered order's NEW-ORDER row is gone and every
// undelivered one is present (a cursor write surviving an abort, or a
// lost or over-eager delete, breaks one side), and the trim cursor is
// exact — orders below d_trim_o_id are reclaimed, orders from there up
// to d_next_o_id still exist.
func checkDeleteInvariants(t *testing.T, wl *tpcc.Workload, db *storage.DB, nparts int, tag string) {
	t.Helper()
	sch := wl.BuildDB(nparts, make([]bool, nparts)).Table(tpcc.TDistrict).Schema()
	present := func(tb storage.TableID, wid int, key storage.Key) bool {
		rec := db.Table(tb).Get(wid, key)
		if rec == nil {
			return false
		}
		_, _, p := rec.ReadStable(nil)
		return p
	}
	for wid := 0; wid < nparts; wid++ {
		if db.Table(tpcc.TDistrict).Partition(wid) == nil {
			continue // this node does not hold the warehouse
		}
		for did := 0; did < wl.Config().Districts; did++ {
			rec := db.Table(tpcc.TDistrict).Get(wid, tpcc.DKey(wid, did))
			if rec == nil {
				continue
			}
			drow, _, ok := rec.ReadStable(nil)
			if !ok {
				continue
			}
			next := sch.GetUint64(drow, tpcc.DNextOID)
			del := sch.GetUint64(drow, tpcc.DNextDelOID)
			trim := sch.GetUint64(drow, tpcc.DTrimOID)
			for oid := uint64(1); oid < next; oid++ {
				no := present(tpcc.TNewOrder, wid, tpcc.OKey(wid, did, int(oid)))
				if oid < del && no {
					t.Fatalf("%s w%dd%d oid %d: NEW-ORDER row survived its delivery (cursor=%d)", tag, wid, did, oid, del)
				}
				if oid >= del && !no {
					t.Fatalf("%s w%dd%d oid %d: undelivered NEW-ORDER row missing (cursor=%d)", tag, wid, did, oid, del)
				}
				ord := present(tpcc.TOrder, wid, tpcc.OKey(wid, did, int(oid)))
				if oid < trim && ord {
					t.Fatalf("%s w%dd%d oid %d: ORDER row survived the trimmer (trim cursor=%d)", tag, wid, did, oid, trim)
				}
				if oid >= trim && !ord {
					t.Fatalf("%s w%dd%d oid %d: live ORDER row missing (trim cursor=%d)", tag, wid, did, oid, trim)
				}
			}
		}
	}
}

// deliveredSomething reports whether any district's delivery cursor
// advanced past its initial value on db (i.e. a Delivery batch ran).
func deliveredSomething(t *testing.T, wl *tpcc.Workload, db *storage.DB, nparts int) bool {
	t.Helper()
	sch := wl.BuildDB(nparts, make([]bool, nparts)).Table(tpcc.TDistrict).Schema()
	for wid := 0; wid < nparts; wid++ {
		for did := 0; did < 2; did++ {
			rec := db.Table(tpcc.TDistrict).Get(wid, tpcc.DKey(wid, did))
			if rec == nil {
				continue
			}
			drow, _, present := rec.ReadStable(nil)
			if present && sch.GetUint64(drow, tpcc.DNextDelOID) > 1 {
				return true
			}
		}
	}
	return false
}

// TestPBOCCFullMix runs the standard mix on the primary/backup baseline
// and checks that Deliveries execute (cursors advance) and the backup
// stays byte-identical.
func TestPBOCCFullMix(t *testing.T) {
	s := rt.NewSim()
	wl := fullMixWL(4)
	cfg := baseCfg(s, 2, 2, wl)
	cfg.Workload = wl
	e := NewPBOCC(cfg)
	s.Run(50 * time.Millisecond)
	if e.Stats().Committed == 0 {
		t.Fatal("no commits")
	}
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	if !deliveredSomething(t, wl, e.Primary(), 4) {
		t.Fatal("no Delivery batch ever advanced a district cursor")
	}
	checkDeleteInvariants(t, wl, e.Primary(), 4, "pbocc")
	for p := 0; p < 4; p++ {
		checkPair(t, e.Primary(), e.Backup(), p, "pbocc-fullmix")
	}
	s.Stop()
}

// TestDistFullMix runs the standard mix on both distributed baselines:
// Delivery's district write locks serialise the batch against NewOrder,
// Stock-Level's remote stock reads cross the RPC path, and
// primary/backup copies must converge.
func TestDistFullMix(t *testing.T) {
	for _, proto := range []Protocol{DistOCC, DistS2PL} {
		s := rt.NewSim()
		wl := fullMixWL(4)
		cfg := baseCfg(s, 2, 2, wl)
		cfg.Workload = wl
		e := NewDist(cfg, proto)
		s.Run(50 * time.Millisecond)
		if e.Stats().Committed == 0 {
			t.Fatalf("%v: no commits", proto)
		}
		e.Freeze()
		s.Run(s.Now() + 25*time.Millisecond)
		if !deliveredSomething(t, wl, e.NodeDB(0), 4) && !deliveredSomething(t, wl, e.NodeDB(1), 4) {
			t.Fatalf("%v: no Delivery batch ever ran", proto)
		}
		for n := 0; n < 2; n++ {
			checkDeleteInvariants(t, wl, e.NodeDB(n), 4, proto.String())
		}
		distConsistency(t, e)
		s.Stop()
	}
}

// TestCalvinFullMix runs the standard mix under deterministic
// execution: Delivery's declared district write locks order it within
// the batch, and the run must commit work from every class.
func TestCalvinFullMix(t *testing.T) {
	s := rt.NewSim()
	wl := fullMixWL(4)
	cfg := baseCfg(s, 2, 2, wl)
	cfg.Workload = wl
	e := NewCalvin(cfg)
	s.Run(60 * time.Millisecond)
	if e.Stats().Committed == 0 {
		t.Fatal("no commits")
	}
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	if !deliveredSomething(t, wl, e.NodeDB(0), 4) && !deliveredSomething(t, wl, e.NodeDB(1), 4) {
		t.Fatal("no Delivery batch ever ran under Calvin")
	}
	for n := 0; n < 2; n++ {
		checkDeleteInvariants(t, wl, e.NodeDB(n), 4, "calvin")
	}
	s.Stop()
}
