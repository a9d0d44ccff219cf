package ycsb

import (
	"bytes"
	"encoding/hex"
	"errors"
	"reflect"
	"strings"
	"testing"

	"star/internal/storage"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/wire/prim"
	"star/internal/wire/wiretest"
)

// goldenTxns covers the YCSB procedure id: a write transaction, a
// read-only one (no ops) and a hand-built footprint whose keys use both
// halves and several varint widths, so both of its accesses take the
// escape form. Their request encodings were captured into
// testdata/golden_requests.txt when the procedure moved to id 9 and an
// access became one uvarint head.
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
// partition came off the wire, or was derived from a key that did, and
// decoding refuses one the workload does not have: derived from a
// canonical access's key (rows of partitions 4 and 99), or sent by an
// escaped one (partition -1, whose key is not a row of any partition, and
// partitions 4 and 7 beside keys of partition 1).
func TestDecodeRefusesPartitionOutsideTheConfiguration(t *testing.T) {
	w := small() // partitions 0..3
	c := wire.NewCodec()
	w.RegisterWire(c)
	escaped := func(part int) *Txn {
		return &Txn{w: w, accs: []txn.Access{{Table: TableID, Part: part, Key: w.Key(1, 5)}}}
	}
	for name, p := range map[string]*Txn{
		"canonical 4": w.ReadTxn([]int{0, 4}, []int{1, 2}), "canonical 99": w.ReadTxn([]int{0, 99}, []int{1, 2}),
		"escaped -1": w.ReadTxn([]int{0, -1}, []int{1, 2}), "escaped 4": escaped(4), "escaped 7": escaped(7),
	} {
		b, err := c.AppendRequest(nil, txn.NewRequest(p, 0))
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := c.DecodeRequest(b); !errors.Is(err, prim.ErrCorrupt) {
			t.Errorf("%s: decode err = %v, want a corrupt-request refusal", name, err)
		}
	}
}

// TestAccessFormsRoundTrip: an access the generator or the client
// constructors build takes the one-uvarint canonical form; one whose key
// has a high half, lies outside its partition, or has a row number whose
// head would overflow (Lo at 2^62, in a partition that holds it) escapes.
// Every one decodes to an equal transaction and re-encodes to the same
// bytes.
func TestAccessFormsRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		name string
		w    *Workload
		acc  txn.Access
		size int // the access's encoded bytes
	}{
		{"canonical row 0", small(), txn.Access{Part: 0, Key: storage.K1(0)}, 1},
		{"canonical write", small(), txn.Access{Part: 3, Key: storage.K1(3*64 + 63), Write: true}, 2},
		{"escaped high half", small(), txn.Access{Part: 1, Key: storage.K2(1, 70)}, 4},
		{"escaped partition", small(), txn.Access{Part: 2, Key: storage.K1(5), Write: true}, 4},
		{"escaped Lo 2^62", New(Config{Partitions: 2, RecordsPerPartition: 1 << 62}),
			txn.Access{Part: 1, Key: storage.K1(1 << 62)}, 12},
	} {
		c := wire.NewCodec()
		tc.w.RegisterWire(c)
		tc.acc.Table = TableID
		req := txn.NewRequest(&Txn{w: tc.w, accs: []txn.Access{tc.acc}}, 0)
		enc, err := c.AppendRequest(nil, req)
		if err != nil {
			t.Fatal(err)
		}
		// The body is the access count, the access and the op count.
		if got := len(enc) - wire.RequestOverhead(req) - 2; got != tc.size {
			t.Errorf("%s: access encodes to %d bytes, want %d", tc.name, got, tc.size)
		}
		dec, _, err := c.DecodeRequest(enc)
		if err != nil || !reflect.DeepEqual(dec, req) {
			t.Fatalf("%s: decodes to %#v, %v; want %#v", tc.name, dec, err, req)
		}
		if re, _ := c.AppendRequest(nil, dec); !bytes.Equal(re, enc) {
			t.Fatalf("%s: re-encodes to %x, was %x", tc.name, re, enc)
		}
	}
}

// TestDecodeRefusesMalformedAccesses: access bytes no encoder writes are
// refused as corrupt or truncated, never with a panic.
func TestDecodeRefusesMalformedAccesses(t *testing.T) {
	w := small() // partitions 0..3 of 64 rows
	c := wire.NewCodec()
	w.RegisterWire(c)
	req := txn.NewRequest(w.ReadTxn([]int{0}, []int{1}), 0)
	enc, err := c.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	header := enc[:wire.RequestOverhead(req)]
	for name, body := range map[string][]byte{
		// Canonical head of row 256: partition 4 of 0..3.
		"canonical, derived partition out of range": {1, 0x80, 0x08, 0},
		// Escape, partition 9 (zig-zag 18), Hi 0, Lo 5.
		"escaped, bad partition": {1, 0x01, 18, 0, 5, 0},
		// Escape head with bits above the write flag.
		"escaped, head above 3": {1, 0x05, 0, 0, 5, 0},
		// A canonical head past 2^64: Lo<<2 of a row at 2^62 or above.
		"canonical, Lo<<2 overflows": {1, 0xfc, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x7f, 0},
		// 200 accesses claimed, three bytes follow.
		"lying access count": {0xc8, 0x01, 0x04, 0x08, 0},
		"truncated escape":   {1, 0x01, 2},
	} {
		_, _, err := c.DecodeRequest(append(append([]byte(nil), header...), body...))
		if !errors.Is(err, prim.ErrCorrupt) && !errors.Is(err, prim.ErrTruncated) {
			t.Errorf("%s: decode err = %v, want ErrCorrupt or ErrTruncated", name, err)
		}
	}
}

// TestRetiredProcedureIDIsRefused: a request in the four-field access
// form, under its id 3 (the golden "read" line before the re-capture),
// is refused as an unknown procedure rather than read as accesses of the
// current form.
func TestRetiredProcedureIDIsRefused(t *testing.T) {
	w := New(Config{Partitions: 201, RecordsPerPartition: 64})
	c := wire.NewCodec()
	w.RegisterWire(c)
	old, _ := hex.DecodeString("030100000000000000000002000009000600ca010000")
	if p, _, err := c.DecodeRequest(old); !errors.Is(err, prim.ErrCorrupt) || !strings.Contains(err.Error(), "unknown procedure id 3") {
		t.Fatalf("id-3 request decoded to %v, err %v; want an unknown-procedure refusal", p, err)
	}
}
