package storage

import (
	"bytes"
	"fmt"
	"testing"
)

// fillPair builds one partition's rows twice — by Fill and by Insert at
// epoch 1 followed by CommitEpoch, the load path Fill replaces — on a
// table with a secondary index over the data column.
func fillPair(t *testing.T, n int) (filled, inserted *DB) {
	t.Helper()
	build := func(fill bool) *DB {
		db, tbl := newTestDB(t, 1, nil)
		tbl.AddIndex(byDataSpec())
		var f *Filler
		if fill {
			f = tbl.Fill(0, n)
		}
		for i := 0; i < n; i++ {
			row := fillRow(tbl.Schema(), i, fmt.Sprintf("v%d", i%7))
			if fill {
				f.Add(K1(uint64(i)), MakeTID(1, uint64(i+1)), row)
			} else {
				tbl.Insert(0, K1(uint64(i)), 1, MakeTID(1, uint64(i+1)), row)
			}
		}
		if fill {
			f.Done()
		}
		db.CommitEpoch()
		return db
	}
	return build(true), build(false)
}

func fillRow(s *Schema, i int, data string) []byte {
	row := s.NewRow()
	s.SetUint64(row, 0, uint64(i))
	s.SetInt64(row, 2, int64(i*3))
	s.SetBytes(row, 3, []byte(data))
	return row
}

// sameState fails the test unless a and b agree on the partition
// checksum and, for each of n keys, on what a current read and a fence
// read at epoch return.
func sameState(t *testing.T, what string, a, b *DB, n int, epoch uint64) {
	t.Helper()
	if ca, cb := a.PartitionChecksum(0), b.PartitionChecksum(0); ca != cb {
		t.Fatalf("%s: checksum %#x, want %#x", what, ca, cb)
	}
	ta, tb := a.Table(0), b.Table(0)
	for i := 0; i < n; i++ {
		ra, rb := ta.Get(0, K1(uint64(i))), tb.Get(0, K1(uint64(i)))
		if (ra == nil) != (rb == nil) {
			t.Fatalf("%s: key %d reachable %v, want %v", what, i, ra != nil, rb != nil)
		}
		if ra == nil {
			continue
		}
		_, va, tida, pa := ra.ReadStableAppend(nil)
		_, vb, tidb, pb := rb.ReadStableAppend(nil)
		_, fa, ftida, fpa := ra.ReadStableAtFenceAppend(nil, epoch)
		_, fb, ftidb, fpb := rb.ReadStableAtFenceAppend(nil, epoch)
		if !bytes.Equal(va, vb) || tida != tidb || pa != pb || !bytes.Equal(fa, fb) || ftida != ftidb || fpa != fpb {
			t.Fatalf("%s: key %d reads differently", what, i)
		}
	}
	for v := 0; v < 8; v++ {
		val := []byte(fmt.Sprintf("v%d", v))
		la := ta.IndexLookup(0, 0, val, epoch, nil)
		lb := tb.IndexLookup(0, 0, val, epoch, nil)
		if fmt.Sprint(la) != fmt.Sprint(lb) {
			t.Fatalf("%s: fence lookup of %s returned %v, want %v", what, val, la, lb)
		}
	}
}

// TestFillEqualsInsert holds the load-time fill to the insert path it
// replaced, and to the rest of its contract: an in-place write never
// reaches a slab neighbour, a copy (DB.FillFrom) is slot for slot, and a
// fill refuses a written partition and a duplicate key.
func TestFillEqualsInsert(t *testing.T) {
	t.Run("reads, reverts and reclaims as inserted rows do", fillReadsAsInserted)
	t.Run("a row write keeps its slab neighbour", fillRowWriteKeepsNeighbour)
	t.Run("a copy is slot for slot", fillFromCopiesSlotForSlot)
	t.Run("refuses a written partition and a duplicate key", fillRefuses)
}

// fillReadsAsInserted compares a filled partition with the one Insert
// and CommitEpoch build from the same rows: equal rows and index entries,
// equal current and fence reads at epoch 2 (the engine's first), and the
// same outcome of a landed-then-reverted epoch and of a delete reclaimed
// at its fence.
func fillReadsAsInserted(t *testing.T) {
	const n = 300
	filled, inserted := fillPair(t, n)
	sameState(t, "after the load", filled, inserted, n, 2)

	for _, db := range []*DB{filled, inserted} {
		tbl := db.Table(0)
		row := fillRow(tbl.Schema(), 1000, "moved")
		if ok, err := tbl.LandThomas(0, K1(5), 2, MakeTID(2, 1), Write{Kind: WriteRow, Row: row}, nil); !ok || err != nil {
			t.Fatalf("land a row: %v, %v", ok, err)
		}
		ops := Write{Kind: WriteOps, Ops: []FieldOp{PrependOp(3, []byte("x"))}}
		if ok, err := tbl.LandThomas(0, K1(6), 2, MakeTID(2, 2), ops, nil); !ok || err != nil {
			t.Fatalf("land ops: %v, %v", ok, err)
		}
		tbl.Delete(0, K1(7), 2, MakeTID(2, 3))
		tbl.Insert(0, K1(n), 2, MakeTID(2, 4), row)
	}
	sameState(t, "after landing epoch 2", filled, inserted, n+1, 2)
	filled.RevertEpoch(2)
	inserted.RevertEpoch(2)
	sameState(t, "after reverting epoch 2", filled, inserted, n+1, 3)
	fresh, _ := fillPair(t, n)
	sameState(t, "reverted against the load", filled, fresh, n+1, 3)

	for _, db := range []*DB{filled, inserted} {
		if !db.Table(0).Delete(0, K1(9), 3, MakeTID(3, 1)) {
			t.Fatal("delete of a loaded row failed")
		}
		db.CommitEpochBefore(4)
		if db.Table(0).Get(0, K1(9)) != nil {
			t.Fatal("a committed delete was not reclaimed at its fence")
		}
	}
	sameState(t, "after a reclaimed delete", filled, inserted, n+1, 4)
}

// fillRowWriteKeepsNeighbour writes rows of filled records in place,
// by row image, by field ops, and by a delete-revert-reinsert round
// trip, and checks that the slab neighbour's bytes never move.
func fillRowWriteKeepsNeighbour(t *testing.T) {
	filled, _ := fillPair(t, 8)
	tbl := filled.Table(0)
	next, _, _ := tbl.Get(0, K1(4)).ReadStable(nil)
	wide := fillRow(tbl.Schema(), 99, "sixteen-bytes-xx")
	writes := []Write{
		{Kind: WriteRow, Row: wide},
		{Kind: WriteOps, Ops: []FieldOp{PrependOp(3, []byte("0123456789abcdef"))}},
		{Kind: WriteDelete},
	}
	for i, w := range writes {
		if ok, err := tbl.LandThomas(0, K1(3), 2, MakeTID(2, uint64(i+1)), w, nil); !ok || err != nil {
			t.Fatalf("write %d: %v, %v", i, ok, err)
		}
	}
	filled.RevertEpoch(2)
	tbl.Delete(0, K1(3), 3, MakeTID(3, 1))
	filled.CommitEpoch()
	tbl.Insert(0, K1(3), 4, MakeTID(4, 1), wide)
	if got, _, _ := tbl.Get(0, K1(4)).ReadStable(nil); !bytes.Equal(got, next) {
		t.Fatalf("the slab neighbour changed: %x, want %x", got, next)
	}
}

// fillFromCopiesSlotForSlot copies a filled partition into another
// database: the copy holds the same rows and index entries and ranges in
// the source's order, so its key index is laid out as the source's.
func fillFromCopiesSlotForSlot(t *testing.T) {
	src, _ := fillPair(t, 500)
	dst, tbl := newTestDB(t, 1, []bool{false})
	tbl.AddIndex(byDataSpec())
	dst.SetHolds(0, true)
	dst.FillFrom(0, src)
	if dst.PartitionChecksum(0) != src.PartitionChecksum(0) {
		t.Fatal("the copy's checksum differs from its source's")
	}
	order := func(db *DB) (keys []Key) {
		db.Table(0).Partition(0).Range(func(k Key, _ uint64, _ []byte) bool {
			keys = append(keys, k)
			return true
		})
		return keys
	}
	if fmt.Sprint(order(dst)) != fmt.Sprint(order(src)) {
		t.Fatal("the copy ranges in a different order from its source")
	}
}

func fillRefuses(t *testing.T) {
	mustPanic := func(what string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s did not panic", what)
			}
		}()
		fn()
	}
	_, tbl := newTestDB(t, 1, nil)
	row := tbl.Schema().NewRow()
	f := tbl.Fill(0, 2)
	f.Add(K1(1), MakeTID(1, 1), row)
	mustPanic("a duplicate key", func() { f.Add(K1(1), MakeTID(1, 2), row) })
	f.Done()
	mustPanic("a fill of a filled partition", func() { tbl.Fill(0, 1) })

	_, tbl = newTestDB(t, 1, nil)
	tbl.Insert(0, K1(1), 1, MakeTID(1, 1), row)
	mustPanic("a fill of a written partition", func() { tbl.Fill(0, 1) })
}

// TestLandOnIndexedRowZeroAllocs pins a write to a present row of an
// indexed table, once its epoch has touched it, at zero allocations: the
// buffer Land derives index values into is lent, not made per call.
func TestLandOnIndexedRowZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	filled, _ := fillPair(t, 16)
	tbl := filled.Table(0)
	r := tbl.Get(0, K1(3))
	w := Write{Kind: WriteOps, Ops: []FieldOp{AddInt64Op(2, 1)}}
	seq := uint64(0)
	land := func() {
		seq++
		r.Lock()
		if _, err := tbl.Land(0, K1(3), r, 2, MakeTID(2, seq), w); err != nil {
			t.Fatal(err)
		}
		r.Unlock()
	}
	land()
	if allocs := testing.AllocsPerRun(1000, land); allocs != 0 {
		t.Fatalf("Land on an indexed row allocates %v per call, want 0", allocs)
	}
}
