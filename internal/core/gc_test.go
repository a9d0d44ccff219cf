package core

import (
	"flag"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/storage"
	"star/internal/wal"
	"star/internal/workload/tpcc"
)

// gcSeed reruns the trim soak on a specific seed — the CI nightly
// gc-soak job sweeps a matrix with
//
//	go test ./internal/core -run TrimSoak -v -args -gc.seed=N
var gcSeed = flag.Int64("gc.seed", 21, "seed for the full-mix trim soak")

// trimMixWL is a full TPC-C mix whose Delivery share outpaces NewOrder
// per district (so the undelivered backlog drains) and whose trimmer
// reclaims delivered orders and history aggressively enough to keep the
// working set flat.
func trimMixWL(nparts int) *tpcc.Workload {
	return tpcc.New(tpcc.Config{
		Warehouses:           nparts,
		Districts:            2,
		CustomersPerDistrict: 32,
		Items:                64,
		DeliveryPct:          30,
		StockLevelPct:        4,
		OrderStatusPct:       4,
		TrimPct:              10,
		TrimRetain:           4,
	})
}

// countPresent counts present rows of a table across all partitions.
func countPresent(db *storage.DB, tb storage.TableID, nparts int) int {
	n := 0
	for p := 0; p < nparts; p++ {
		db.Table(tb).Partition(p).Range(func(storage.Key, uint64, []byte) bool {
			n++
			return true
		})
	}
	return n
}

func heapAlloc() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestSTARFullMixTrimSoakFlatAndRecoverable is the sustained-load
// acceptance run for the delete/GC path: a full-mix soak with Delivery
// deletes, trimming and WAL checkpoint truncation must (a) keep the
// live row counts and the Go heap flat instead of growing with run
// length, (b) keep the delete-side TPC-C invariants intact on the
// frozen state, (c) bound the live recovery-log set (segments covered
// by a checkpoint are truncated away), and (d) rebuild a byte-identical
// database from the latest checkpoint plus only the surviving log
// suffix.
func TestSTARFullMixTrimSoakFlatAndRecoverable(t *testing.T) {
	dir := t.TempDir()
	s := rt.NewSim()
	const nparts = 4
	wl := trimMixWL(nparts)
	e := New(Config{
		RT:             s,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		LogDir:         dir,
		Checkpoint:     true,
		Seed:           *gcSeed,
	})

	// Warm up until the trimmer has drained the initial backlog and the
	// working set is at steady state, then require the second (longer)
	// half of the soak to add almost nothing: neither rows nor heap may
	// track run length. Unbounded growth roughly triples the row count
	// over the second leg; steady-state jitter does not.
	s.Run(250 * time.Millisecond)
	rowsMid := countPresent(e.DB(0), tpcc.TOrder, nparts) +
		countPresent(e.DB(0), tpcc.TNewOrder, nparts) +
		countPresent(e.DB(0), tpcc.THistory, nparts)
	heapMid := heapAlloc()
	s.Run(s.Now() + 500*time.Millisecond)
	if halted, reason := e.Halted(); halted {
		t.Fatalf("soak halted: %s", reason)
	}
	rowsEnd := countPresent(e.DB(0), tpcc.TOrder, nparts) +
		countPresent(e.DB(0), tpcc.TNewOrder, nparts) +
		countPresent(e.DB(0), tpcc.THistory, nparts)
	heapEnd := heapAlloc()
	if rowsEnd > rowsMid*2+128 {
		t.Fatalf("live rows still growing under trim: %d at 250ms, %d at 750ms", rowsMid, rowsEnd)
	}
	if heapEnd > heapMid+heapMid/2+(16<<20) {
		t.Fatalf("heap not flat under sustained load: %dMB at 250ms, %dMB at 750ms",
			heapMid>>20, heapEnd>>20)
	}

	e.Freeze()
	s.Run(s.Now() + 30*time.Millisecond)
	s.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	st := e.Stats()
	if st.Committed == 0 {
		t.Fatal("no commits")
	}
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}

	// Delete-side invariants on the frozen full replica.
	db := e.DB(0)
	sch := db.Table(tpcc.TDistrict).Schema()
	delivered, trimmed := false, false
	for wid := 0; wid < nparts; wid++ {
		for did := 0; did < 2; did++ {
			drow, _, ok := db.Table(tpcc.TDistrict).Get(wid, tpcc.DKey(wid, did)).ReadStable(nil)
			if !ok {
				t.Fatal("district missing")
			}
			next := sch.GetUint64(drow, tpcc.DNextOID)
			del := sch.GetUint64(drow, tpcc.DNextDelOID)
			trim := sch.GetUint64(drow, tpcc.DTrimOID)
			delivered = delivered || del > 1
			trimmed = trimmed || trim > 1
			for oid := uint64(1); oid < next; oid++ {
				rec := db.Table(tpcc.TNewOrder).Get(wid, tpcc.OKey(wid, did, int(oid)))
				no := rec != nil
				if no {
					_, _, no = rec.ReadStable(nil)
				}
				if oid < del && no {
					t.Fatalf("w%dd%d oid %d: NEW-ORDER survived delivery (cursor=%d)", wid, did, oid, del)
				}
				if oid >= del && !no {
					t.Fatalf("w%dd%d oid %d: undelivered NEW-ORDER missing (cursor=%d)", wid, did, oid, del)
				}
				orec := db.Table(tpcc.TOrder).Get(wid, tpcc.OKey(wid, did, int(oid)))
				ord := orec != nil
				if ord {
					_, _, ord = orec.ReadStable(nil)
				}
				if oid < trim && ord {
					t.Fatalf("w%dd%d oid %d: ORDER survived the trimmer (cursor=%d)", wid, did, oid, trim)
				}
				if oid >= trim && !ord {
					t.Fatalf("w%dd%d oid %d: live ORDER missing (trim cursor=%d)", wid, did, oid, trim)
				}
			}
		}
	}
	if !delivered || !trimmed {
		t.Fatalf("soak exercised too little: delivered=%v trimmed=%v", delivered, trimmed)
	}

	// Truncation: ~39 checkpoint rounds rotated every logger, so without
	// segment deletion node 0 would hold about two hundred files. The
	// live set the directory holds once the logs are closed must be a
	// couple of generations per logger, and rotated names must actually
	// appear (the suffix proves rotation happened).
	ckpt, logs, err := wal.NewDir(dir, 0).Live()
	if err != nil {
		t.Fatal(err)
	}
	if len(logs) == 0 {
		t.Fatal("no live log files")
	}
	if len(logs) > 30 {
		t.Fatalf("%d live log segments: truncation is not dropping covered segments", len(logs))
	}
	rotated := false
	var liveBytes int64
	for _, p := range logs {
		if strings.Contains(p, ".log.") {
			rotated = true
		}
		if fi, err := os.Stat(p); err == nil {
			liveBytes += fi.Size()
		}
	}
	if !rotated {
		t.Fatal("no rotated segment in the live set; checkpointer never rotated")
	}
	if appended := e.StatsSnapshot().Gauges["wal_file_bytes"]; liveBytes == 0 || liveBytes >= appended {
		t.Fatalf("live log bytes %d vs %d appended: replay is not bounded", liveBytes, appended)
	}

	// Restart: the newest checkpoint + surviving suffix onto an empty DB
	// must equal the live state byte for byte — deletes, tombstone
	// reclamation and index maintenance included.
	if ckpt == "" {
		t.Fatal("checkpointer never ran")
	}
	recovered := wl.BuildDB(nparts, nil)
	if _, _, err := wal.Recover(recovered, ckpt, logs); err != nil {
		t.Fatal(err)
	}
	for p := 0; p < nparts; p++ {
		if got, want := recovered.PartitionChecksum(p), db.PartitionChecksum(p); got != want {
			t.Fatalf("partition %d: recovered %x != live %x", p, got, want)
		}
	}
}
