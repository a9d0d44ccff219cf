package baseline

import (
	"bytes"
	"reflect"
	"testing"

	"star/internal/lock"
	"star/internal/replication"
	"star/internal/storage"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/wire/wiretest"
)

// One value of every RPC payload kind, a different value in every field.
// The bytes they encode to were captured from the hand-written
// encode/decode pairs of commit 44cf024 into testdata/golden_payloads.txt
// (an RPC's modelled Size is its payload length, so these bytes are also
// what keeps the simulated baselines' numbers where they were) — bar the
// commit payload, re-captured when its entries became an Epoch-0
// replication envelope in last place: 64 bytes where it was 67.
var (
	goldenNames   = []lock.Name{{Table: 3, Key: storage.K2(1, 2)}, {Table: 4, Key: storage.K1(1 << 40)}}
	goldenEntries = []replication.Entry{
		{Table: 2, Part: 1, Key: storage.K2(3, 4), TID: storage.MakeTID(5, 6), Row: []byte("row")},
		{Table: 0, Part: 2, Key: storage.K1(9), TID: storage.MakeTID(5, 7), Ops: []storage.FieldOp{storage.AddInt64Op(1, -4)}},
	}
	goldenRead      = readPayload{Table: 5, Part: 300, Key: storage.K2(7, 8), Write: true, Owner: 6}
	goldenReadReply = readReply{Row: []byte("a row image"), TID: storage.MakeTID(9, 3), Absent: true}
	goldenLV        = lvPayload{
		Reads:  []txn.ReadEntry{{Table: 1, Part: 2, Key: storage.K1(3), TID: 4}, {Table: 5, Part: 600, Key: storage.K2(7, 8), TID: 1 << 50}},
		Writes: goldenNames, Parts: []int32{2, 600}}
	goldenLVReply  = lvReply{MaxWriteTID: storage.MakeTID(11, 12)}
	goldenCommit   = commitPayload{TID: storage.MakeTID(5, 7), Entries: goldenEntries, Owner: 70, Release: goldenNames[:1], Sync: true}
	goldenAbort    = abortPayload{Writes: goldenNames[1:], Owner: -1, Release: goldenNames, Parts: []int32{0, 3}}
	goldenIdx      = idxPayload{Table: 2, Part: 5, Index: 1, Val: []byte("BARBARBAR")}
	goldenIdxReply = idxReply{Keys: []storage.Key{storage.K1(4), storage.K2(5, 6)}}
	goldenBatch    = replication.Batch{From: 0, Epoch: 5, Entries: goldenEntries}
)

type goldenPayload struct {
	name   string
	value  any
	encode func() []byte
	decode func([]byte) (any, error)
}

func walked[T any](name string, v *T, fields func(*wire.Fields, *T)) goldenPayload {
	return goldenPayload{name, v,
		func() []byte { return wire.Marshal(v, fields) },
		func(b []byte) (any, error) { return wire.Unmarshal(b, fields) }}
}

func goldenPayloads() []goldenPayload {
	return []goldenPayload{
		walked("read", &goldenRead, readPayloadFields),
		walked("read_reply", &goldenReadReply, readReplyFields),
		walked("lock_validate", &goldenLV, lvPayloadFields),
		walked("lock_validate_reply", &goldenLVReply, lvReplyFields),
		walked("commit", &goldenCommit, commitPayloadFields),
		walked("abort", &goldenAbort, abortPayloadFields),
		walked("index_lookup", &goldenIdx, idxPayloadFields),
		walked("index_reply", &goldenIdxReply, idxReplyFields),
		{"batch", &goldenBatch,
			func() []byte { return encodeBatchPayload(&goldenBatch) },
			func(b []byte) (any, error) { return replication.DecodeBatch(b) }},
	}
}

// TestGoldenFrames: every payload kind encodes to the parent commit's
// bytes, those bytes decode to the same value (so re-encode unchanged),
// and every strict prefix is rejected with a wire error.
func TestGoldenFrames(t *testing.T) {
	want := map[string][]byte{}
	for _, g := range wiretest.Read(t, "testdata/golden_payloads.txt") {
		want[g.Name] = g.Frame
	}
	cases := goldenPayloads()
	if len(want) != len(cases) {
		t.Fatalf("%d golden payloads for %d payload kinds", len(want), len(cases))
	}
	for _, g := range cases {
		frame, ok := want[g.name]
		if !ok {
			t.Fatalf("%s: no golden payload", g.name)
		}
		if enc := g.encode(); !bytes.Equal(enc, frame) {
			t.Fatalf("%s: encodes to\n%x\nparent commit encoded\n%x", g.name, enc, frame)
		}
		dec, err := g.decode(frame)
		if err != nil {
			t.Fatalf("%s: decode golden payload: %v", g.name, err)
		}
		if !reflect.DeepEqual(dec, g.value) {
			t.Fatalf("%s: golden payload decodes to\n%#v\nwant\n%#v", g.name, dec, g.value)
		}
		wiretest.Truncations(t, g.name, frame, func(b []byte) error {
			_, err := g.decode(b)
			return err
		})
	}
}
