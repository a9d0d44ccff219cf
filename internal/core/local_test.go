package core

import (
	"encoding/binary"
	"testing"

	"star/internal/storage"
	"star/internal/txn"
)

// txn.Local is tested beside the worker that runs every STAR transaction
// through it (and whose package the alloc-budget step covers).

// newLocalHarness returns a context over a two-partition database with a
// partitioned table and a replicated one (key 1 present, v 0). Epoch 1
// committed the partitioned table's keys 1, 2 (v 0) and 3 (v 1); the
// open epoch 2 deleted key 2, set key 3's v to 2 and inserted key 4 with
// v 7. The partitioned table's index localIdx is keyed by v.
func newLocalHarness(t *testing.T) (c *txn.Local, part, rep storage.TableID) {
	t.Helper()
	db := storage.NewDB(2, nil)
	schema := storage.NewSchema(storage.Field{Name: "v", Type: storage.FieldUint64})
	p := db.AddTable("part", schema, false)
	p.AddIndex(storage.IndexSpec{Name: "by_v", Extract: func(_ *storage.Schema, _ storage.Key, row, dst []byte) []byte {
		return append(dst, row...)
	}})
	r := db.AddTable("rep", schema, true)
	p.Insert(0, storage.K1(1), 1, storage.MakeTID(1, 1), localRow(0))
	p.Insert(0, storage.K1(2), 1, storage.MakeTID(1, 2), localRow(0))
	p.Insert(0, storage.K1(3), 1, storage.MakeTID(1, 4), localRow(1))
	r.Insert(0, storage.K1(1), 1, storage.MakeTID(1, 3), localRow(0))
	db.CommitEpoch()
	if !p.Delete(0, storage.K1(2), 2, storage.MakeTID(2, 1)) {
		t.Fatal("setup: delete of a present row failed")
	}
	if ok, err := p.LandThomas(0, storage.K1(3), 2, storage.MakeTID(2, 2), storage.Write{Kind: storage.WriteRow, Row: localRow(2)}, nil); !ok || err != nil {
		t.Fatalf("setup: update landed %v, %v", ok, err)
	}
	if _, ok := p.Insert(0, storage.K1(4), 2, storage.MakeTID(2, 3), localRow(7)); !ok {
		t.Fatal("setup: insert of a new row failed")
	}
	return &txn.Local{DB: db, Writer: txn.Writer{Set: &txn.RWSet{}}}, p.ID(), r.ID()
}

// localIdx is the harness's index on v.
const localIdx = 0

// localRow is a harness row holding v.
func localRow(v uint64) []byte {
	return binary.LittleEndian.AppendUint64(nil, v)
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
		c.Fence = 2
		c.Read(part, 0, storage.K1(3)) // the pre-epoch version
	}
	read() // grow the arena and the read set once
	if allocs := testing.AllocsPerRun(1000, read); allocs != 0 {
		t.Fatalf("a steady-state read allocates %v, want 0", allocs)
	}
}

func TestLocalFenceReadsThePreEpochVersion(t *testing.T) {
	c, part, _ := newLocalHarness(t)
	c.Fence = 2
	got, ok := c.Read(part, 0, storage.K1(3))
	if !ok || binary.LittleEndian.Uint64(got) != 1 {
		t.Fatalf("fence read of a row updated in the open epoch: ok %v, row %v; want its epoch-1 version", ok, got)
	}
	if c.Failed || len(c.Set.Reads) != 0 || c.Reads != 1 {
		t.Fatalf("fence read: Failed %v, %d reads recorded, Reads %d; want false, 0, 1", c.Failed, len(c.Set.Reads), c.Reads)
	}
	c.Reset()
	if got, _ := c.Read(part, 0, storage.K1(3)); binary.LittleEndian.Uint64(got) != 2 {
		t.Fatalf("after Reset the read is not live: row %v", got)
	}
}

func TestLocalFenceAbsentReadDoesNotFail(t *testing.T) {
	for _, tc := range []struct {
		name  string
		key   storage.Key
		fence uint64
	}{
		{"absent", storage.K1(9), 2},
		{"inserted in the open epoch", storage.K1(4), 2},
		{"tombstone", storage.K1(2), 3},
	} {
		c, part, _ := newLocalHarness(t)
		c.Fence = tc.fence
		if _, ok := c.Read(part, 0, tc.key); ok {
			t.Fatalf("%s row read ok at fence %d", tc.name, tc.fence)
		}
		if c.Failed || len(c.Set.Reads) != 0 {
			t.Fatalf("%s row at fence %d: Failed %v, %d reads recorded; want false, 0", tc.name, tc.fence, c.Failed, len(c.Set.Reads))
		}
	}
}

func TestLocalFenceIndexHidesTheOpenEpoch(t *testing.T) {
	c, part, _ := newLocalHarness(t)
	v7 := localRow(7)
	if got := c.LookupIndex(part, 0, localIdx, v7, nil); len(got) != 1 || got[0] != storage.K1(4) {
		t.Fatalf("live lookup of v 7: %v, want [4]", got)
	}
	c.Fence = 2
	if got := c.LookupIndex(part, 0, localIdx, v7, nil); len(got) != 0 {
		t.Fatalf("fence lookup of v 7: %v, want none (inserted in the open epoch)", got)
	}
	if got := c.LookupIndexTail(part, 0, localIdx, v7, 1, nil); len(got) != 0 {
		t.Fatalf("fence tail lookup of v 7: %v, want none (inserted in the open epoch)", got)
	}
	if got := c.LookupIndexTail(part, 0, localIdx, localRow(1), 1, nil); len(got) != 1 || got[0] != storage.K1(3) {
		t.Fatalf("fence tail lookup of v 1: %v, want [3] (moved in the open epoch)", got)
	}
	if c.Reads != 4 {
		t.Fatalf("lookups counted %d reads, want 4", c.Reads)
	}
}

// readOnlyProc declares itself read-only and runs as the function says.
type readOnlyProc func(txn.Ctx) error

func (readOnlyProc) Name() string           { return "test.read_only" }
func (readOnlyProc) Accesses() []txn.Access { return nil }
func (readOnlyProc) ReadOnly() bool         { return true }
func (p readOnlyProc) Run(c txn.Ctx) error  { return p(c) }

// TestLocalFenceWriteIsCounted: a write at a fence is counted like a live
// one, which is what readAtFence's guard against a read-only procedure
// that writes reads.
func TestLocalFenceWriteIsCounted(t *testing.T) {
	c, part, _ := newLocalHarness(t)
	c.Fence = 2
	c.Write(part, 0, storage.K1(1))
	c.Insert(part, 0, storage.K1(5), localRow(5))
	c.Delete(part, 0, storage.K1(1))
	if c.Writes != 3 {
		t.Fatalf("fence writes counted %d, want 3", c.Writes)
	}

	e, w := newHotPathHarness(16)
	e.cfg.SnapshotReads = true
	defer func() {
		if p := recover(); p != "core: read-only transaction wrote on the snapshot path" {
			t.Fatalf("readAtFence on a read-only procedure that wrote: recovered %v", p)
		}
	}()
	w.n.readAtFence(&w.lctx, 2, 0, txn.NewRequest(readOnlyProc(func(c txn.Ctx) error {
		c.Write(0, 0, storage.K1(1))
		return nil
	}), 0))
}

// TestReadAtFenceReadsAtTheFence: the snapshot path runs a read-only
// procedure at the fence of the epoch it is given, on the worker's own
// context, and a row the open epoch wrote reads as its version before.
func TestReadAtFenceReadsAtTheFence(t *testing.T) {
	e, w := newHotPathHarness(128)
	e.cfg.SnapshotReads = true
	w.execSerial(singleReq(w), 2)
	we := w.set.Writes[0]
	live, _, _ := w.n.db.Table(we.Table).Get(we.Part, we.Key).ReadStable(nil)
	var got []byte
	resp, ok := w.n.readAtFence(&w.lctx, 2, 0, txn.NewRequest(readOnlyProc(func(c txn.Ctx) error {
		got, _ = c.Read(we.Table, we.Part, we.Key)
		return nil
	}), 0))
	if !ok || resp.Status != StatusOK || resp.Token != 1 || resp.Reads != 1 {
		t.Fatalf("readAtFence: ok %v, response %+v; want served, OK, token 1, 1 read", ok, resp)
	}
	if got == nil || string(got) == string(live) {
		t.Fatalf("the snapshot path read the live row (or none: %v), not its epoch-1 version", got == nil)
	}
}
