package wire

import (
	"io"
	"testing"

	"star/internal/replication"
	"star/internal/storage"
	"star/internal/wal"
)

// opBatchFixture is a replica-side fixture for the receive path of
// operation replication: a two-partition table of n rows and an encoded
// batch carrying one operation entry per row — an integer delta, a field
// overwrite and a prepend each — spread over both partitions.
func opBatchFixture(n int) (*storage.DB, []byte) {
	schema := storage.NewSchema(
		storage.Field{Name: "count", Type: storage.FieldInt64},
		storage.Field{Name: "col", Type: storage.FieldBytes, Cap: 10},
		storage.Field{Name: "data", Type: storage.FieldBytes, Cap: 64},
	)
	db := storage.NewDB(2, nil)
	tbl := db.AddTable("t", schema, false)
	batch := &replication.Batch{From: 0, Epoch: 2}
	col := schema.NewRow()
	schema.SetBytes(col, 1, []byte("0123456789"))
	for i := 0; i < n; i++ {
		part, key := i%2, storage.K1(uint64(i))
		tbl.Insert(part, key, 1, storage.MakeTID(1, uint64(i+1)), schema.NewRow())
		batch.Entries = append(batch.Entries, replication.Entry{
			Table: tbl.ID(), Part: int32(part), Key: key, TID: storage.MakeTID(2, uint64(i+1)),
			Ops: []storage.FieldOp{
				storage.AddInt64Op(0, 3),
				storage.SetFieldOp(schema, col, 1),
				storage.PrependOp(2, []byte("note ")),
			},
		})
	}
	db.CommitEpoch()
	return db, replication.AppendBatch(nil, batch)
}

// TestDecodeBatchAllocBudget pins the decoder's side of allocation-free
// operation replication: every entry's Ops is carved from one slice, so
// an all-op batch costs the same three allocations (the batch, its
// entries, the ops) at 64 entries as at 1024 — and an envelope that also
// carries packed rows one more, the arena they all unpack into.
func TestDecodeBatchAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{64, 1024} {
		_, enc := opBatchFixture(n)
		mixed, err := replication.DecodeBatch(enc)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < n; i += 2 { // every other entry: a mostly-zero row
			mixed.Entries[i].Ops, mixed.Entries[i].Row = nil, append(make([]byte, 100), byte(i+1))
		}
		for want, enc := range map[float64][]byte{3: enc, 4: replication.AppendBatch(nil, mixed)} {
			allocs := testing.AllocsPerRun(100, func() {
				if _, err := replication.DecodeBatch(enc); err != nil {
					t.Fatal(err)
				}
			})
			if allocs > want {
				t.Fatalf("DecodeBatch of %d entries allocates %v times, want %v per batch", n, allocs, want)
			}
		}
	}
}

// TestDecodeApplyLogZeroAllocsPerEntry walks an operation entry down the
// whole replica path — decoded off the frame, applied under the record
// latch, transformed into the row it produced and appended to the
// recovery log — and pins that nothing on it allocates per entry: a
// 1024-entry batch costs what a 64-entry one does, the three allocations
// of its decode.
func TestDecodeApplyLogZeroAllocsPerEntry(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{64, 1024} {
		db, enc := opBatchFixture(n)
		lg := wal.NewLogger(io.Discard)
		var scratch []byte
		tid := storage.MakeTID(2, uint64(n))
		replay := func() {
			b, err := replication.DecodeBatch(enc)
			if err != nil {
				t.Fatal(err)
			}
			for i := range b.Entries {
				en := &b.Entries[i]
				tid += storage.MakeTID(0, 1) // newer than the row's: the Thomas rule lands it
				en.TID = tid
				row, landed, err := replication.ApplyInto(db, b.Epoch, en, scratch, true)
				if err != nil || !landed {
					t.Fatalf("entry %d: landed=%v err=%v", i, landed, err)
				}
				scratch = row
				lg.AppendWrite(en.Table, en.Part, en.Key, en.TID, false, row)
			}
			lg.Flush(false)
		}
		replay() // first touch of the epoch: revert snapshots, dirty marks, scratch
		if allocs := testing.AllocsPerRun(50, replay); allocs > 3 {
			t.Fatalf("decode→apply→log of %d operation entries allocates %v times, want the decode's 3", n, allocs)
		}
		s := db.Table(0).Schema()
		row, _, _ := db.Table(0).Get(0, storage.K1(0)).ReadStable(nil)
		if got := s.GetInt64(row, 0); got != 3*52 {
			t.Fatalf("row 0 count = %d after 52 replays of +3", got)
		}
	}
}
