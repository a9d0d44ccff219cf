package storage

import (
	"fmt"
	"testing"
)

func newTestDB(t *testing.T, nparts int, holds []bool) (*DB, *Table) {
	t.Helper()
	db := NewDB(nparts, holds)
	tbl := db.AddTable("t", testSchema(), false)
	return db, tbl
}

func TestTableInsertGet(t *testing.T) {
	_, tbl := newTestDB(t, 2, nil)
	s := tbl.Schema()
	row := s.NewRow()
	s.SetUint64(row, 0, 77)
	if _, ok := tbl.Insert(1, K1(7), 1, MakeTID(1, 1), row); !ok {
		t.Fatal("insert failed")
	}
	if _, ok := tbl.Insert(1, K1(7), 1, MakeTID(1, 2), row); ok {
		t.Fatal("duplicate insert must fail")
	}
	r := tbl.Get(1, K1(7))
	if r == nil {
		t.Fatal("get returned nil")
	}
	val, _, present := r.ReadStable(nil)
	if !present || s.GetUint64(val, 0) != 77 {
		t.Fatal("bad value")
	}
	if tbl.Get(0, K1(7)) != nil {
		t.Fatal("record leaked into wrong partition")
	}
}

func TestPartialReplicaPanicsOnUnheldPartition(t *testing.T) {
	_, tbl := newTestDB(t, 4, []bool{true, false, true, false})
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic accessing unheld partition")
		}
	}()
	tbl.Get(1, K1(1))
}

func TestReplicatedTableIgnoresPartitions(t *testing.T) {
	db := NewDB(4, []bool{true, false, false, false})
	item := db.AddTable("item", testSchema(), true)
	row := item.Schema().NewRow()
	item.Insert(3, K1(9), 1, MakeTID(1, 1), row) // any partition id works
	if item.Get(2, K1(9)) == nil {
		t.Fatal("replicated table must resolve from any partition id")
	}
	if !item.Replicated() || item.NumPartitions() != 1 {
		t.Fatal("replicated metadata wrong")
	}
}

func TestPartitionRevertEpochRemovesInserts(t *testing.T) {
	db, tbl := newTestDB(t, 1, nil)
	s := tbl.Schema()
	row := s.NewRow()
	tbl.Insert(0, K1(1), 1, MakeTID(1, 1), row) // epoch 1: will be committed
	db.CommitEpoch()

	// Epoch 2: update K1(1), insert K1(2); then the epoch fails.
	s.SetUint64(row, 0, 999)
	landOn(t, tbl, tbl.Get(0, K1(1)), 2, MakeTID(2, 1), Write{Kind: WriteRow, Row: row})
	tbl.Insert(0, K1(2), 2, MakeTID(2, 2), row)

	if n := db.RevertEpoch(2); n == 0 {
		t.Fatal("expected reverted records")
	}
	if tbl.Get(0, K1(2)) != nil {
		t.Fatal("insert from failed epoch must disappear")
	}
	val, _, _ := tbl.Get(0, K1(1)).ReadStable(nil)
	if s.GetUint64(val, 0) != 0 {
		t.Fatal("update from failed epoch must roll back")
	}
}

func TestPartitionLenAndRange(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	s := tbl.Schema()
	for i := 0; i < 10; i++ {
		row := s.NewRow()
		s.SetUint64(row, 0, uint64(i))
		tbl.Insert(0, K1(uint64(i)), 1, MakeTID(1, uint64(i+1)), row)
	}
	p := tbl.Partition(0)
	if p.Len() != 10 {
		t.Fatalf("len=%d", p.Len())
	}
	seen := map[uint64]bool{}
	p.Range(func(key Key, tid uint64, val []byte) bool {
		seen[key.Lo] = true
		return true
	})
	if len(seen) != 10 {
		t.Fatalf("range visited %d", len(seen))
	}
	// Early termination.
	count := 0
	p.Range(func(Key, uint64, []byte) bool { count++; return count < 3 })
	if count != 3 {
		t.Fatalf("early stop visited %d", count)
	}
}

// byDataSpec indexes the test schema's "data" column (field 3).
func byDataSpec() IndexSpec {
	return IndexSpec{
		Name: "by_data",
		Extract: func(s *Schema, key Key, row []byte, dst []byte) []byte {
			return append(dst, s.GetBytes(row, 3)...)
		},
	}
}

func TestSecondaryIndexMaintainedOnInsert(t *testing.T) {
	_, tbl := newTestDB(t, 2, nil)
	id := tbl.AddIndex(byDataSpec())
	if id != 0 || tbl.NumIndexes() != 1 || tbl.specs[0].Name != "by_data" {
		t.Fatal("index registry broken")
	}
	s := tbl.Schema()
	put := func(part int, key Key, name string, seq uint64) {
		row := s.NewRow()
		s.SetBytes(row, 3, []byte(name))
		if _, ok := tbl.Insert(part, key, 1, MakeTID(1, seq), row); !ok {
			t.Fatalf("insert %v failed", key)
		}
	}
	put(0, K1(2), "SMITH", 1)
	put(0, K1(1), "SMITH", 2)
	put(0, K1(3), "JONES", 3)
	put(1, K1(4), "SMITH", 4) // other partition: invisible to partition 0

	got := tbl.IndexLookup(0, id, []byte("SMITH"), IndexAllEpochs, nil)
	if len(got) != 2 || got[0] != K1(1) || got[1] != K1(2) {
		t.Fatalf("lookup returned %v, want ascending [1 2]", got)
	}
	if got := tbl.IndexLookup(0, id, []byte("NOBODY"), IndexAllEpochs, nil); len(got) != 0 {
		t.Fatalf("missing value must return nothing, got %v", got)
	}
	if got := tbl.IndexLookup(1, id, []byte("SMITH"), IndexAllEpochs, nil); len(got) != 1 || got[0] != K1(4) {
		t.Fatalf("partition 1 lookup: %v", got)
	}
}

// TestIndexEntryFollowsAnUpdate moves a present record's indexed value,
// by a row image and by a field op: the entry moves with it, a fence
// reader at the writing epoch still finds the old entry, and reverting
// the epoch puts it back.
func TestIndexEntryFollowsAnUpdate(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	id := tbl.AddIndex(byDataSpec())
	s := tbl.Schema()
	row := func(name string) []byte {
		r := s.NewRow()
		s.SetBytes(r, 3, []byte(name))
		return r
	}
	lookup := func(name string, at uint64) int {
		return len(tbl.IndexLookup(0, id, []byte(name), at, nil))
	}
	land := func(epoch, seq uint64, w Write) {
		if ok, err := tbl.LandThomas(0, K1(1), epoch, MakeTID(epoch, seq), w, nil); !ok || err != nil {
			t.Fatalf("epoch %d: landed %v, %v", epoch, ok, err)
		}
	}
	tbl.Insert(0, K1(1), 1, MakeTID(1, 1), row("SMITH"))
	tbl.Partition(0).CommitEpochBefore(2)

	land(2, 1, Write{Kind: WriteRow, Row: row("JONES")})
	if lookup("SMITH", IndexAllEpochs) != 0 || lookup("JONES", IndexAllEpochs) != 1 {
		t.Fatal("the entry did not follow the row image")
	}
	if lookup("SMITH", 2) != 1 || lookup("JONES", 2) != 0 {
		t.Fatal("a fence reader at epoch 2 does not see the entry as of its fence")
	}
	tbl.Partition(0).RevertEpoch(2)
	if lookup("SMITH", IndexAllEpochs) != 1 || lookup("JONES", IndexAllEpochs) != 0 {
		t.Fatal("the revert did not restore the old entry")
	}

	land(3, 1, Write{Kind: WriteOps, Ops: []FieldOp{PrependOp(3, []byte("X"))}})
	tbl.Partition(0).CommitEpochBefore(4)
	if lookup("SMITH", 4) != 0 || lookup("XSMITH", 4) != 1 || tbl.Partition(0).Index(id).Len() != 1 {
		t.Fatal("the entry did not follow the field op")
	}
}

// TestDeleteRevertReinsertRoundTrip walks one key through the full
// delete lifecycle — delete in a failed epoch (reverted), delete in a
// committed epoch (reclaimed at the fence), re-insert under a new value
// — and checks the primary index and the ordered secondary index agree
// with the record state at every step.
func TestDeleteRevertReinsertRoundTrip(t *testing.T) {
	db, tbl := newTestDB(t, 1, nil)
	id := tbl.AddIndex(byDataSpec())
	s := tbl.Schema()
	row := s.NewRow()
	s.SetBytes(row, 3, []byte("SMITH"))
	if _, ok := tbl.Insert(0, K1(1), 2, MakeTID(2, 1), row); !ok {
		t.Fatal("insert failed")
	}
	db.CommitEpoch()
	lookup := func(name string) []Key {
		return tbl.IndexLookup(0, id, []byte(name), IndexAllEpochs, nil)
	}

	// Epoch 3: delete, then the epoch fails and reverts.
	if !tbl.Delete(0, K1(1), 3, MakeTID(3, 1)) {
		t.Fatal("delete failed")
	}
	if got := lookup("SMITH"); len(got) != 0 {
		t.Fatalf("deleted row still indexed: %v", got)
	}
	db.RevertEpoch(3)
	rec := tbl.Get(0, K1(1))
	if rec == nil {
		t.Fatal("reverted delete lost the record")
	}
	if val, _, present := rec.ReadStable(nil); !present || string(s.GetBytes(val, 3)) != "SMITH" {
		t.Fatalf("record wrong after delete revert: present=%v", present)
	}
	if got := lookup("SMITH"); len(got) != 1 || got[0] != K1(1) {
		t.Fatalf("index entry not revived by delete revert: %v", got)
	}

	// Epoch 4: delete for real; the fence reclaims record and slot.
	if !tbl.Delete(0, K1(1), 4, MakeTID(4, 1)) {
		t.Fatal("second delete failed")
	}
	db.CommitEpoch()
	if tbl.Get(0, K1(1)) != nil {
		t.Fatal("reclaimed record still reachable through the primary index")
	}
	if got := lookup("SMITH"); len(got) != 0 {
		t.Fatalf("reclaimed row still indexed: %v", got)
	}

	// Epoch 5: re-insert the same key with a different indexed value.
	s.SetBytes(row, 3, []byte("JONES"))
	if _, ok := tbl.Insert(0, K1(1), 5, MakeTID(5, 1), row); !ok {
		t.Fatal("re-insert after reclamation failed")
	}
	db.CommitEpoch()
	if got := lookup("JONES"); len(got) != 1 || got[0] != K1(1) {
		t.Fatalf("re-inserted key missing from index: %v", got)
	}
	if got := lookup("SMITH"); len(got) != 0 {
		t.Fatalf("stale index value survived the round trip: %v", got)
	}
	if val, _, present := tbl.Get(0, K1(1)).ReadStable(nil); !present || string(s.GetBytes(val, 3)) != "JONES" {
		t.Fatal("re-inserted record unreadable")
	}
}

func TestDBChecksumDetectsDivergence(t *testing.T) {
	mk := func(v uint64) *DB {
		db := NewDB(2, nil)
		tbl := db.AddTable("t", testSchema(), false)
		s := tbl.Schema()
		for i := uint64(0); i < 20; i++ {
			row := s.NewRow()
			s.SetUint64(row, 0, i*v)
			tbl.Insert(int(i%2), K1(i), 1, MakeTID(1, i+1), row)
		}
		return db
	}
	a, b, c := mk(1), mk(1), mk(2)
	for p := 0; p < 2; p++ {
		if a.PartitionChecksum(p) != b.PartitionChecksum(p) {
			t.Fatalf("identical DBs disagree on partition %d", p)
		}
		if a.PartitionChecksum(p) == c.PartitionChecksum(p) {
			t.Fatalf("different DBs agree on partition %d", p)
		}
	}
}

func TestSetHoldsMaterialisesPartition(t *testing.T) {
	db := NewDB(2, []bool{true, false})
	tbl := db.AddTable("t", testSchema(), false)
	if db.Holds(1) {
		t.Fatal("should not hold partition 1")
	}
	db.SetHolds(1, true)
	if !db.Holds(1) || tbl.Partition(1) == nil {
		t.Fatal("SetHolds must materialise the partition")
	}
	// Now usable.
	tbl.Insert(1, K1(5), 1, MakeTID(1, 1), tbl.Schema().NewRow())
	if tbl.Get(1, K1(5)) == nil {
		t.Fatal("re-mastered partition unusable")
	}
}

func TestDBTableRegistry(t *testing.T) {
	db := NewDB(1, nil)
	a := db.AddTable("a", testSchema(), false)
	b := db.AddTable("b", testSchema(), false)
	if db.Table(a.ID()) != a || db.Table(b.ID()) != b {
		t.Fatal("id lookup broken")
	}
	if db.TableByName("a") != a || db.TableByName("zz") != nil {
		t.Fatal("name lookup broken")
	}
	if db.NumTables() != 2 {
		t.Fatal("count")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate table must panic")
		}
	}()
	db.AddTable("a", testSchema(), false)
}

func TestKeyHelpers(t *testing.T) {
	if K1(5) != (Key{Lo: 5}) || K2(1, 2) != (Key{Hi: 1, Lo: 2}) {
		t.Fatal("key constructors")
	}
	m := map[Key]int{K2(1, 2): 3}
	if m[K2(1, 2)] != 3 {
		t.Fatal("keys must be usable as map keys")
	}
	_ = fmt.Sprintf("%v", K2(1, 2)) // printable
}
