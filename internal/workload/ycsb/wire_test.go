package ycsb

import (
	"errors"
	"testing"

	"star/internal/storage"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/wire/prim"
	"star/internal/wire/wiretest"
)

// goldenTxns covers the YCSB procedure id: a write transaction, a
// read-only one (no ops) and a hand-built footprint whose keys use both
// halves and several varint widths. Their request encodings were
// captured from the hand-written codec of commit 44cf024 into
// testdata/golden_requests.txt.
func goldenTxns(w *Workload) map[string]*txn.Request {
	wide := &Txn{w: w, accs: []txn.Access{
		{Table: TableID, Part: 3, Key: storage.Key{Hi: 1 << 20, Lo: 1 << 40}, Write: true},
		{Table: TableID, Part: 200, Key: storage.Key{Hi: 5, Lo: 127}},
	}, ops: []storage.FieldOp{storage.AddInt64Op(2, -9), storage.PrependOp(1, []byte("pre"))}}
	return map[string]*txn.Request{
		"write": txn.NewRequest(w.WriteTxn([]int{1, 2, 1}, []int{5, 63, 0}, []byte("value")), 777),
		"read":  txn.NewRequest(w.ReadTxn([]int{0, 3}, []int{9, 10}), -1),
		"wide":  txn.NewRequest(wide, 1<<50),
	}
}

// TestGoldenFrames: the YCSB procedure encodes to the parent commit's
// bytes, those bytes decode to the same transaction and re-encode
// unchanged, WireSize() is the parent's number and the exact body
// length, and every strict prefix is rejected with a wire error.
func TestGoldenFrames(t *testing.T) {
	w := New(Config{Partitions: 201, RecordsPerPartition: 64}) // "wide" names partition 200
	c := wire.NewCodec()
	w.RegisterWire(c)
	if ids := wiretest.Requests(t, c, "testdata/golden_requests.txt", goldenTxns(w)); len(ids) != 1 || !ids[wireTxn] {
		t.Fatalf("golden requests cover procedure ids %v, want %d", ids, wireTxn)
	}
}

// TestDecodeRefusesPartitionOutsideTheConfiguration: an access's
// partition came off the wire, and decoding refuses one the workload does
// not have.
func TestDecodeRefusesPartitionOutsideTheConfiguration(t *testing.T) {
	w := small() // partitions 0..3
	c := wire.NewCodec()
	w.RegisterWire(c)
	for _, part := range []int{-1, 4, 99} {
		b, err := c.AppendRequest(nil, txn.NewRequest(w.ReadTxn([]int{0, part}, []int{1, 2}), 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.DecodeRequest(b); !errors.Is(err, prim.ErrCorrupt) {
			t.Errorf("partition %d: decode err = %v, want a corrupt-request refusal", part, err)
		}
	}
}
