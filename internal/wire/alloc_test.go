package wire

import (
	"io"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"star/internal/replication"
	"star/internal/storage"
	"star/internal/transport"
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

// tpccShapedEntries is what a partitioned-phase worker ships for n
// New-Orders, each transaction's writes in key order: the district's
// next order id (one op), ten stock updates (four small-integer ops
// each), the order and new-order rows and ten order-line rows — mostly
// zeros, as TPC-C's rows are.
func tpccShapedEntries(n int) []replication.Entry {
	const district, stock, order, newOrder, orderLine = 1, 3, 5, 6, 7
	rng := rand.New(rand.NewSource(3))
	row := func(size int) []byte {
		r := make([]byte, size)
		for i := 0; i < size; i += 8 {
			r[i] = byte(1 + rng.Intn(200))
		}
		return r
	}
	var out []replication.Entry
	for o := uint64(1); o <= uint64(n); o++ {
		tid := storage.MakeTID(2, o)
		out = append(out, replication.Entry{Table: district, Key: storage.K2(0, 3), TID: tid,
			Ops: []storage.FieldOp{storage.AddInt64Op(10, 1)}})
		items := rng.Perm(1000)[:10]
		slices.Sort(items)
		for _, item := range items {
			out = append(out, replication.Entry{Table: stock, Key: storage.K2(0, uint64(item)), TID: tid,
				Ops: []storage.FieldOp{
					storage.SetInt64Op(2, int64(10+rng.Intn(90))), storage.AddInt64Op(3, int64(1+rng.Intn(10))),
					storage.AddInt64Op(4, 1), storage.AddInt64Op(5, 0),
				}})
		}
		okey := storage.K2(0, 3<<40|o)
		out = append(out, replication.Entry{Table: order, Key: okey, TID: tid, Row: row(40)},
			replication.Entry{Table: newOrder, Key: okey, TID: tid, Row: row(8)})
		for ol := uint64(1); ol <= 10; ol++ {
			out = append(out, replication.Entry{Table: orderLine, Key: storage.K2(0, 3<<56|o<<8|ol), TID: tid, Row: row(66)})
		}
	}
	return out
}

// lastBatch is a transport that keeps the last envelope a stream shipped.
type lastBatch struct {
	transport.Transport
	b *replication.Batch
}

func (l *lastBatch) Send(_, _ int, _ transport.Class, m transport.Message) {
	l.b = m.(*replication.Batch)
}

// TestTPCCEnvelopeAllocBudget: New-Orders' envelopes — field ops with
// their arguments sent short beside packed rows — cost the stream nothing
// per Append, only the flush's four allocations (the envelope, its
// entries, the payload arena, the op headers), and DecodeBatch its four
// (the batch, its entries, the ops, which hold their 8-byte arguments,
// and the arena its packed rows expand into), at 4 transactions as at 40.
func TestTPCCEnvelopeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	for _, n := range []int{4, 40} { // 92 and 920 entries: under DecodeBatch's up-front slice
		entries := tpccShapedEntries(n)
		net := &lastBatch{}
		st := replication.NewStream(net, replication.NewTracker(2), 0, replication.Limits{})
		st.SetEpoch(2)
		envelope := func() {
			for i := range entries {
				st.Append(1, entries[i])
			}
			st.Flush()
		}
		envelope() // the first envelope sizes the stream's buffers
		if allocs := testing.AllocsPerRun(100, envelope); allocs > 4 {
			t.Fatalf("%d New-Orders through Stream.Append and Flush allocate %v times, want the flush's 4", n, allocs)
		}
		enc := replication.AppendBatch(nil, net.b)
		if got, err := replication.DecodeBatch(enc); err != nil || !reflect.DeepEqual(got.Entries, entries) {
			t.Fatalf("%d New-Orders did not survive the wire: %v", n, err)
		}
		if allocs := testing.AllocsPerRun(100, func() {
			if _, err := replication.DecodeBatch(enc); err != nil {
				t.Fatal(err)
			}
		}); allocs > 4 {
			t.Fatalf("DecodeBatch of %d New-Orders allocates %v times, want 4 per envelope", n, allocs)
		}
	}
}
