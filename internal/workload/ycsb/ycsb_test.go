package ycsb

import (
	"testing"

	"star/internal/storage"
	"star/internal/txn"
)

func small() *Workload {
	return New(Config{Partitions: 4, RecordsPerPartition: 64, CrossPct: 50})
}

func TestLoadIsDeterministicAcrossReplicas(t *testing.T) {
	w := small()
	full := w.BuildDB(4, nil)
	w.Load(full)
	partial := w.BuildDB(4, []bool{false, true, false, true})
	w.Load(partial)
	for _, p := range []int{1, 3} {
		if full.PartitionChecksum(p) != partial.PartitionChecksum(p) {
			t.Fatalf("partition %d differs between replicas", p)
		}
	}
	if n := full.Table(TableID).Partition(0).Len(); n != 64 {
		t.Fatalf("partition 0 has %d records", n)
	}
}

func TestKeysArePartitionLocal(t *testing.T) {
	w := small()
	if w.Key(1, 0) != storage.K1(64) || w.Key(0, 63) != storage.K1(63) {
		t.Fatal("key layout broken")
	}
}

func TestSingleTxnFootprint(t *testing.T) {
	w := small()
	g := w.NewGen(1)
	for i := 0; i < 50; i++ {
		p := g.Single(2)
		req := txn.NewRequest(p, 0)
		if req.Cross || req.Home != 2 {
			t.Fatalf("single txn crossed partitions: %+v", req.Parts)
		}
		accs := p.Accesses()
		if len(accs) != 10 {
			t.Fatalf("accesses=%d", len(accs))
		}
		writes := 0
		for _, a := range accs {
			if a.Write {
				writes++
			}
		}
		if writes != 1 {
			t.Fatalf("writes=%d, want 1 (90/10 mix)", writes)
		}
	}
}

func TestCrossTxnReallyCrosses(t *testing.T) {
	w := small()
	g := w.NewGen(2)
	for i := 0; i < 50; i++ {
		req := txn.NewRequest(g.Cross(1), 0)
		if !req.Cross {
			t.Fatal("cross txn touched one partition")
		}
		if req.Home != 1 {
			t.Fatalf("home=%d", req.Home)
		}
	}
}

func TestMixedRespectsCrossPct(t *testing.T) {
	w := New(Config{Partitions: 4, RecordsPerPartition: 64, CrossPct: 30})
	g := w.NewGen(3)
	cross := 0
	const n = 2000
	for i := 0; i < n; i++ {
		if txn.NewRequest(g.Mixed(0), 0).Cross {
			cross++
		}
	}
	got := float64(cross) / n * 100
	if got < 24 || got > 36 {
		t.Fatalf("cross rate %.1f%%, want ≈30%%", got)
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	w := small()
	g1, g2 := w.NewGen(7), w.NewGen(7)
	for i := 0; i < 20; i++ {
		a := g1.Mixed(1).(*Txn)
		b := g2.Mixed(1).(*Txn)
		if len(a.accs) != len(b.accs) {
			t.Fatal("lengths differ")
		}
		for j := range a.accs {
			if a.accs[j].Key != b.accs[j].Key || a.accs[j].Part != b.accs[j].Part {
				t.Fatal("same seed must generate identical transactions")
			}
		}
	}
}

// executor applies a txn directly to a full DB (no concurrency): a
// reference Ctx used to validate procedure logic.
type executor struct {
	db  *storage.DB
	set txn.RWSet
}

func (e *executor) Read(tb storage.TableID, part int, key storage.Key) ([]byte, bool) {
	rec := e.db.Table(tb).Get(part, key)
	if rec == nil {
		return nil, false
	}
	val, tid, present := rec.ReadStable(nil)
	if !present {
		return nil, false
	}
	e.set.AddRead(tb, part, key, rec, tid)
	return val, true
}

func (e *executor) Write(tb storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	e.set.AddWrite(tb, part, key, ops...)
}

func (e *executor) Insert(tb storage.TableID, part int, key storage.Key, row []byte) {
	e.set.AddInsert(tb, part, key, row)
}

func (e *executor) Delete(tb storage.TableID, part int, key storage.Key) {
	e.set.AddDelete(tb, part, key)
}

func (e *executor) LookupIndex(tb storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	return e.db.Table(tb).IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
}

func TestTxnRunProducesOneWrite(t *testing.T) {
	w := small()
	db := w.BuildDB(4, nil)
	w.Load(db)
	g := w.NewGen(5)
	ex := &executor{db: db}
	if err := g.Single(0).Run(ex); err != nil {
		t.Fatal(err)
	}
	if len(ex.set.Reads) != 10 || len(ex.set.Writes) != 1 {
		t.Fatalf("reads=%d writes=%d", len(ex.set.Reads), len(ex.set.Writes))
	}
	if len(ex.set.Writes[0].Ops) != 1 || ex.set.Writes[0].Ops[0].Kind != storage.OpSetBytes {
		t.Fatal("write must be a single-field op")
	}
}

func TestRowSizeMatchesPaper(t *testing.T) {
	w := New(Config{Partitions: 1})
	// 10 columns × (2-byte length prefix + 10 bytes) = 120B ≈ paper's
	// "10 columns of 10 random bytes".
	if got := w.Schema().RowSize(); got != 120 {
		t.Fatalf("row size %d", got)
	}
}

// TestLoadChecksumsPinned holds Load's generated data to fixed partition
// checksums: an edit to the row emitter that changes a row, a key or a
// TID fails here rather than silently shifting every benchmark's data.
func TestLoadChecksumsPinned(t *testing.T) {
	w := small()
	db := w.BuildDB(4, nil)
	w.Load(db)
	want := []uint64{0xbaaec9d33eab66cc, 0x53872aa52096614, 0xc2323896bf6eb884, 0x632ae129ef991f24}
	for p, sum := range want {
		if got := db.PartitionChecksum(p); got != sum {
			t.Errorf("partition %d: checksum %#x, want %#x", p, got, sum)
		}
	}
}
