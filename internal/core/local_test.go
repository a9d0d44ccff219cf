package core

import (
	"testing"

	"star/internal/storage"
	"star/internal/txn"
)

// txn.Local is tested beside the worker that runs every STAR transaction
// through it (and whose package the alloc-budget step covers).

// newLocalHarness returns a context over a two-partition database with a
// partitioned table (key 1 present, key 2 deleted in the open epoch) and
// a replicated one (key 1 present).
func newLocalHarness(t *testing.T) (c *txn.Local, part, rep storage.TableID) {
	t.Helper()
	db := storage.NewDB(2, nil)
	schema := storage.NewSchema(storage.Field{Name: "v", Type: storage.FieldUint64})
	p := db.AddTable("part", schema, false)
	r := db.AddTable("rep", schema, true)
	row := schema.NewRow()
	p.Insert(0, storage.K1(1), 1, storage.MakeTID(1, 1), row)
	p.Insert(0, storage.K1(2), 1, storage.MakeTID(1, 2), row)
	r.Insert(0, storage.K1(1), 1, storage.MakeTID(1, 3), row)
	db.CommitEpoch()
	if !p.Delete(0, storage.K1(2), 2, storage.MakeTID(2, 1)) {
		t.Fatal("setup: delete of a present row failed")
	}
	return &txn.Local{DB: db, Writer: txn.Writer{Set: &txn.RWSet{}}}, p.ID(), r.ID()
}

func TestLocalAbsentPartitionedReadFails(t *testing.T) {
	for _, tc := range []struct {
		name string
		key  storage.Key
	}{{"absent", storage.K1(9)}, {"tombstone", storage.K1(2)}} {
		c, part, _ := newLocalHarness(t)
		if _, ok := c.Read(part, 0, tc.key); ok {
			t.Fatalf("%s row read ok", tc.name)
		}
		if !c.Failed || len(c.Set.Reads) != 0 || c.Reads != 1 {
			t.Fatalf("%s row: Failed %v, %d reads recorded, Reads %d; want true, 0, 1",
				tc.name, c.Failed, len(c.Set.Reads), c.Reads)
		}
	}
}

func TestLocalReplicatedReadNeverFailsOrRecords(t *testing.T) {
	c, _, rep := newLocalHarness(t)
	if _, ok := c.Read(rep, 1, storage.K1(9)); ok {
		t.Fatal("absent replicated row read ok")
	}
	if _, ok := c.Read(rep, 1, storage.K1(1)); !ok {
		t.Fatal("present replicated row read !ok")
	}
	if c.Failed || len(c.Set.Reads) != 0 {
		t.Fatalf("replicated reads: Failed %v, %d reads recorded; want false, 0", c.Failed, len(c.Set.Reads))
	}
}

func TestLocalRecordsReadsAndResetClears(t *testing.T) {
	c, part, _ := newLocalHarness(t)
	first, ok := c.Read(part, 0, storage.K1(1))
	if !ok || len(c.Set.Reads) != 1 || c.Set.Reads[0].TID != storage.MakeTID(1, 1) {
		t.Fatalf("present row: ok %v, reads %+v", ok, c.Set.Reads)
	}
	c.Write(part, 0, storage.K1(1))
	c.Insert(part, 1, storage.K1(5), first)
	c.Delete(part, 0, storage.K1(1))
	c.Read(part, 0, storage.K1(9))
	if c.Reads != 2 || c.Writes != 3 || len(c.Set.Writes) != 2 {
		t.Fatalf("Reads %d, Writes %d, %d buffered writes; want 2, 3, 2", c.Reads, c.Writes, len(c.Set.Writes))
	}
	c.Reset()
	if c.Reads != 0 || c.Writes != 0 || c.Failed {
		t.Fatalf("after Reset: Reads %d, Writes %d, Failed %v", c.Reads, c.Writes, c.Failed)
	}
	again, _ := c.Read(part, 0, storage.K1(1))
	if &again[0] != &first[0] {
		t.Fatal("Reset kept the arena: the next read did not reuse its start")
	}
}

func TestLocalReadZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	c, part, rep := newLocalHarness(t)
	read := func() {
		c.Set.Reset()
		c.Reset()
		c.Read(part, 0, storage.K1(1))
		c.Read(rep, 0, storage.K1(1))
	}
	read() // grow the arena and the read set once
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Fatalf("a steady-state read allocates %v, want 0", allocs)
	}
}
