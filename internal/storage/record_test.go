package storage

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
)

// landOn lands w on r through the one-table fixture tbl the way every
// commit path does: latch, Table.Land, unlatch. r need not be in tbl's
// index — Land is handed the record, and registers it for revert in
// partition 0 either way.
func landOn(t *testing.T, tbl *Table, r *Record, epoch, tid uint64, w Write) {
	t.Helper()
	r.Lock()
	defer r.Unlock()
	if _, err := tbl.Land(0, K1(1), r, epoch, tid, w); err != nil {
		t.Fatal(err)
	}
}

func rowWrite(row string) Write { return Write{Kind: WriteRow, Row: txt(row)} }

// txt is a row of the fixture's schema (testSchema) holding s in its
// bytes column: Land lands only rows the schema fits.
func txt(s string) []byte {
	row := testSchema().NewRow()
	testSchema().SetString(row, 3, s)
	return row
}

func TestRecordReadWrite(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	r := NewRecord(MakeTID(1, 1), txt("hello"))
	val, tid, present := r.ReadStable(nil)
	if !present || tid != MakeTID(1, 1) || !bytes.Equal(val, txt("hello")) {
		t.Fatalf("read: %q %s %v", val, FormatTID(tid), present)
	}
	landOn(t, tbl, r, 2, MakeTID(2, 5), rowWrite("world"))
	val, tid, _ = r.ReadStable(val)
	if !bytes.Equal(val, txt("world")) || tid != MakeTID(2, 5) {
		t.Fatalf("after write: %q %s", val, FormatTID(tid))
	}
}

func TestRecordLockSemantics(t *testing.T) {
	r := NewRecord(1<<tidSeqShift, []byte("x"))
	if !r.TryLock() {
		t.Fatal("TryLock on unlocked record failed")
	}
	if r.TryLock() {
		t.Fatal("TryLock on locked record succeeded")
	}
	r.Unlock()
	if !r.TryLock() {
		t.Fatal("TryLock after Unlock failed")
	}
	r.Unlock()
}

func TestRecordUnlockPanicsWhenUnlocked(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewRecord(0, nil).Unlock()
}

func TestRecordEpochRevert(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	r := NewRecord(MakeTID(1, 3), txt("committed"))
	landOn(t, tbl, r, 2, MakeTID(2, 1), rowWrite("uncommitted-1"))
	landOn(t, tbl, r, 2, MakeTID(2, 2), rowWrite("uncommitted-2"))

	// Only the first write of the epoch saves and registers the record.
	if n := tbl.Partition(0).RevertEpoch(2); n != 1 {
		t.Fatalf("two writes in one epoch registered the record %d times, want 1", n)
	}
	val, tid, present := r.ReadStable(nil)
	if !present || !bytes.Equal(val, txt("committed")) || tid != MakeTID(1, 3) {
		t.Fatalf("revert: %q %s %v", val, FormatTID(tid), present)
	}
}

func TestRecordRevertOfInsert(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	r := NewAbsentRecord(0)
	landOn(t, tbl, r, 5, MakeTID(5, 1), rowWrite("new"))
	if val, tid, present := r.ReadStable(nil); !present || !bytes.Equal(val, txt("new")) || tid != MakeTID(5, 1) {
		t.Fatalf("insert: %q %s %v", val, FormatTID(tid), present)
	}
	r.Lock()
	if absent := r.revertLocked(5); !absent {
		t.Fatal("reverting an insert must leave the record absent")
	}
	r.Unlock()
	if _, _, present := r.ReadStable(nil); present {
		t.Fatal("record should be absent after revert")
	}
}

func TestRecordDeleteAndRevert(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	r := NewRecord(MakeTID(1, 1), txt("v"))
	landOn(t, tbl, r, 2, MakeTID(2, 9), Write{Kind: WriteDelete})
	if _, tid, present := r.ReadStable(nil); present || tid != MakeTID(2, 9) {
		t.Fatalf("after delete: tid=%s present=%v", FormatTID(tid), present)
	}
	tbl.Partition(0).RevertEpoch(2)
	if val, _, present := r.ReadStable(nil); !present || !bytes.Equal(val, txt("v")) {
		t.Fatal("delete not reverted")
	}
}

// Property (paper §3/§5): applying value-replication writes in ANY order
// with the Thomas write rule converges to the value of the largest TID.
func TestThomasWriteRuleConvergence(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		if n == 0 {
			n = 1
		}
		rng := rand.New(rand.NewSource(seed))
		type w struct {
			tid uint64
			val []byte
		}
		writes := make([]w, 0, n)
		for i := uint8(0); i < n; i++ {
			writes = append(writes, w{
				tid: MakeTID(1, uint64(i)+1),
				val: txt(string([]byte{byte(i), byte(i >> 4), 0xAB})),
			})
		}
		maxVal := writes[len(writes)-1].val
		maxTID := writes[len(writes)-1].tid
		rng.Shuffle(len(writes), func(i, j int) { writes[i], writes[j] = writes[j], writes[i] })

		_, tbl := newTestDB(t, 1, nil)
		for _, wr := range writes {
			tbl.LandThomas(0, K1(1), 1, wr.tid, Write{Kind: WriteRow, Row: wr.val}, nil)
		}
		val, tid, present := tbl.Get(0, K1(1)).ReadStable(nil)
		return present && tid == maxTID && bytes.Equal(val, maxVal)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestThomasWriteRuleRejectsStale(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	tbl.Insert(0, K1(1), 3, MakeTID(3, 10), txt("new"))
	for _, c := range []struct {
		seq     uint64
		applied bool
	}{{9, false}, {10, false}, {11, true}} {
		applied, err := tbl.LandThomas(0, K1(1), 3, MakeTID(3, c.seq), rowWrite("w"), nil)
		if err != nil || applied != c.applied {
			t.Fatalf("write at seq %d over seq 10: applied=%v err=%v, want %v", c.seq, applied, err, c.applied)
		}
	}
	// A stale delete loses the same way.
	if applied, _ := tbl.LandThomas(0, K1(1), 3, MakeTID(3, 5), Write{Kind: WriteDelete}, nil); applied {
		t.Fatal("stale delete must be rejected")
	}
	if _, tid, present := tbl.Get(0, K1(1)).ReadStable(nil); !present || tid != MakeTID(3, 11) {
		t.Fatalf("record: tid=%s present=%v", FormatTID(tid), present)
	}
}

func TestRecordConcurrentReadersWriters(t *testing.T) {
	// Race-detector exercise: concurrent latched reads and writes.
	_, tbl := newTestDB(t, 1, nil)
	r := NewRecord(MakeTID(1, 1), bytes.Repeat([]byte{1}, testSchema().RowSize()))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			buf := make([]byte, testSchema().RowSize())
			for i := 0; i < 200; i++ {
				if g%2 == 0 {
					val, _, _ := r.ReadStable(buf)
					buf = val
					// A stable read must never see a torn row: all bytes equal.
					for _, b := range val[1:] {
						if b != val[0] {
							t.Error("torn read")
							return
						}
					}
				} else {
					row := bytes.Repeat([]byte{byte(i)}, testSchema().RowSize())
					r.Lock()
					tbl.Land(0, K1(1), r, 2, MakeTID(2, uint64(i+1)), Write{Kind: WriteRow, Row: row})
					r.Unlock()
				}
			}
		}(g)
	}
	wg.Wait()
}

func TestLandFieldOps(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	s := tbl.Schema()
	row := s.NewRow()
	s.SetFloat64(row, 1, 100)
	r := NewRecord(MakeTID(1, 1), row)
	landOn(t, tbl, r, 2, MakeTID(2, 1), Write{Kind: WriteOps, Ops: []FieldOp{AddFloat64Op(1, -30)}})
	val, tid, _ := r.ReadStable(nil)
	if got := s.GetFloat64(val, 1); got != 70 || tid != MakeTID(2, 1) {
		t.Fatalf("balance=%v tid=%s", got, FormatTID(tid))
	}

	// No ops at all is still a write: the TID moves, the row does not,
	// and the epoch's first touch is saved like any other.
	landOn(t, tbl, r, 3, MakeTID(3, 1), Write{Kind: WriteOps})
	val2, tid, _ := r.ReadStable(nil)
	if !bytes.Equal(val2, val) || tid != MakeTID(3, 1) {
		t.Fatalf("zero-op write: row changed=%v tid=%s", !bytes.Equal(val2, val), FormatTID(tid))
	}
	if _, _, ftid, _ := r.ReadStableAtFenceAppend(nil, 3); ftid != MakeTID(2, 1) {
		t.Fatalf("zero-op write did not save the prior version: fence tid=%s", FormatTID(ftid))
	}

	// Field ops need the row they were computed on: against an absent
	// record they are refused, and nothing is invented from zeros.
	gone := NewAbsentRecord(MakeTID(1, 1))
	gone.Lock()
	_, err := tbl.Land(0, K1(2), gone, 2, MakeTID(2, 2), Write{Kind: WriteOps, Ops: []FieldOp{AddFloat64Op(1, 1)}})
	gone.Unlock()
	if _, tid, present := gone.ReadStable(nil); err == nil || present || tid != MakeTID(1, 1) {
		t.Fatalf("ops on an absent record: err=%v present=%v tid=%s", err, present, FormatTID(tid))
	}
}

// TestLandSetBytesRevertsAndFenceReads: a bytes column set to a shorter
// value is one write like any other — the epoch's fence read sees the
// prior image, and a revert puts it back byte for byte.
func TestLandSetBytesRevertsAndFenceReads(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	r := NewRecord(MakeTID(1, 1), txt("a long old value"))
	landOn(t, tbl, r, 2, MakeTID(2, 1), Write{Kind: WriteOps, Ops: []FieldOp{NewFieldOp(3, OpSetBytes, []byte("new"))}})
	if val, _, _ := r.ReadStable(nil); !bytes.Equal(val, txt("new")) {
		t.Fatalf("landed %x, want %x", val, txt("new"))
	}
	if val, tid, present := fenceRead(t, r, 2); !present || !bytes.Equal(val, txt("a long old value")) || tid != MakeTID(1, 1) {
		t.Fatalf("fence read at 2: %x %s %v, want the prior image", val, FormatTID(tid), present)
	}
	tbl.Partition(0).RevertEpoch(2)
	if val, tid, _ := r.ReadStable(nil); !bytes.Equal(val, txt("a long old value")) || tid != MakeTID(1, 1) {
		t.Fatalf("revert left %x %s, want the prior image", val, FormatTID(tid))
	}
}

// A write the table's schema does not fit is refused whole, before
// anything moves: an op list whose second op names a column the table
// lacks leaves the first unapplied, the TID where it was and the record
// out of the epoch's revert bucket.
func TestLandRefusesWhatTheSchemaDoesNotFit(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	s := tbl.Schema()
	r := NewRecord(MakeTID(1, 1), s.NewRow())
	for _, w := range []Write{
		{Kind: WriteOps, Ops: []FieldOp{AddInt64Op(2, 5), AddInt64Op(9, 1)}},
		{Kind: WriteRow, Row: make([]byte, 3)},
	} {
		r.Lock()
		_, err := tbl.Land(0, K1(1), r, 2, MakeTID(2, 1), w)
		r.Unlock()
		if val, tid, _ := r.ReadStable(nil); err == nil || !bytes.Equal(val, s.NewRow()) || tid != MakeTID(1, 1) {
			t.Fatalf("%+v: err=%v, row %x, tid=%s", w, err, val, FormatTID(tid))
		}
	}
	if n := tbl.Partition(0).RevertEpoch(2); n != 0 {
		t.Fatalf("refused writes registered the record %d times", n)
	}
}
