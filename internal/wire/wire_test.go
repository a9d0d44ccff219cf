package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"reflect"
	"runtime"
	"testing"
	"testing/iotest"

	"star/internal/replication"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/wire/prim"
)

func TestVarintRoundTrip(t *testing.T) {
	uvals := []uint64{0, 1, 127, 128, 1 << 20, 1<<63 - 1, ^uint64(0)}
	for _, v := range uvals {
		b := prim.AppendUvarint(nil, v)
		if len(b) != prim.UvarintLen(v) {
			t.Fatalf("UvarintLen(%d)=%d, encoded %d", v, prim.UvarintLen(v), len(b))
		}
		got, rest, err := prim.Uvarint(b)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("uvarint %d: got %d rest=%d err=%v", v, got, len(rest), err)
		}
	}
	ivals := []int64{0, 1, -1, 63, -64, 1 << 40, -1 << 40, 1<<63 - 1, -1 << 63}
	for _, v := range ivals {
		b := prim.AppendVarint(nil, v)
		if len(b) != prim.VarintLen(v) {
			t.Fatalf("VarintLen(%d)=%d, encoded %d", v, prim.VarintLen(v), len(b))
		}
		got, rest, err := prim.Varint(b)
		if err != nil || got != v || len(rest) != 0 {
			t.Fatalf("varint %d: got %d rest=%d err=%v", v, got, len(rest), err)
		}
	}
}

func TestDecodersRejectTruncation(t *testing.T) {
	if _, _, err := prim.Uvarint(nil); !errors.Is(err, prim.ErrTruncated) {
		t.Fatalf("empty uvarint: %v", err)
	}
	if _, _, err := prim.U64([]byte{1, 2, 3}); !errors.Is(err, prim.ErrTruncated) {
		t.Fatalf("short u64: %v", err)
	}
	if _, _, err := prim.Key([]byte{1}); !errors.Is(err, prim.ErrTruncated) {
		t.Fatalf("short key: %v", err)
	}
	// A byte string claiming more bytes than the buffer holds.
	b := prim.AppendUvarint(nil, 1000)
	if _, _, err := prim.Bytes(b); !errors.Is(err, prim.ErrTruncated) {
		t.Fatalf("overlong byte string: %v", err)
	}
	if _, _, err := prim.Bool([]byte{7}); !errors.Is(err, prim.ErrCorrupt) {
		t.Fatalf("bad bool byte: %v", err)
	}
	// A slice count exceeding the buffer.
	c := prim.AppendUvarint(nil, 1<<40)
	if _, err := Unmarshal(c, (*Fields).I64s); !errors.Is(err, prim.ErrCorrupt) {
		t.Fatalf("oversized slice count: %v", err)
	}
	// A u64-slice count whose byte size (n*8) would overflow uint64 must
	// still be rejected, not make a huge allocation or wrap the guard.
	d := prim.AppendUvarint(nil, 1<<61)
	if _, err := Unmarshal(d, (*Fields).U64s); !errors.Is(err, prim.ErrCorrupt) {
		t.Fatalf("overflowing u64s count: %v", err)
	}
}

func TestBytesAliasing(t *testing.T) {
	src := prim.AppendBytes(nil, []byte("payload"))
	p, _, err := prim.Bytes(src)
	if err != nil || string(p) != "payload" {
		t.Fatalf("bytes round trip: %q err=%v", p, err)
	}
	// Arena contract: the decoded slice aliases the input buffer.
	if &p[0] != &src[len(src)-len(p)] {
		t.Fatal("decoded bytes must alias the input buffer (no copy)")
	}
}

func sampleEntries() []replication.Entry {
	return []replication.Entry{
		{Table: 3, Part: 7, Key: storage.K2(9, 11), TID: 1<<40 | 5,
			Row: []byte("rowbytes")},
		{Table: 1, Part: 0, Key: storage.K1(2), TID: 17, Absent: true, Row: nil},
		{Table: 2, Part: 15, Key: storage.K2(1, 2), TID: 99, Ops: []storage.FieldOp{
			storage.AddInt64Op(3, -40),
			storage.PrependOp(5, []byte("prefix")),
		}},
	}
}

// TestEntryRoundTrip: each kind of entry alone in an Epoch-0 envelope —
// the first-entry case, coded against the zero context.
func TestEntryRoundTrip(t *testing.T) {
	for i, e := range sampleEntries() {
		b := &replication.Batch{Entries: []replication.Entry{e}}
		enc := replication.AppendBatch(nil, b)
		var s replication.EntryCoder
		if header, payload, _ := s.Next(&e); len(enc) != 3+header+payload {
			t.Fatalf("entry %d: sized %d+%d, encoded %d behind a 3-byte envelope header", i, header, payload, len(enc))
		}
		got, err := replication.DecodeBatch(enc)
		if err != nil {
			t.Fatalf("entry %d decode: %v", i, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("entry %d round trip:\n got %+v\nwant %+v", i, got.Entries[0], e)
		}
		if got.Entries[0].IsOp() != e.IsOp() {
			t.Fatalf("entry %d: IsOp changed across the wire", i)
		}
	}
}

func TestBatchRoundTrip(t *testing.T) {
	b := &replication.Batch{From: 3, Epoch: 12, Entries: sampleEntries()}
	enc := replication.AppendBatch(nil, b)
	if len(enc) != replication.BatchLen(b) {
		t.Fatalf("BatchLen=%d encoded=%d", replication.BatchLen(b), len(enc))
	}
	got, err := replication.DecodeBatch(enc)
	if err != nil {
		t.Fatalf("decode: %v", err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("batch round trip:\n got %+v\nwant %+v", got, b)
	}
	// Trailing garbage is corrupt, not ignored.
	if _, err := replication.DecodeBatch(append(enc, 0)); !errors.Is(err, prim.ErrCorrupt) {
		t.Fatalf("trailing bytes: %v", err)
	}
}

type frameMsg struct{ V int }

func (frameMsg) Size() int { return 8 }

func TestFrameRoundTrip(t *testing.T) {
	c := NewCodec()
	c.Register(9, frameMsg{},
		func(b []byte, m transport.Message) []byte { return prim.AppendVarint(b, int64(m.(frameMsg).V)) },
		func(b []byte) (transport.Message, []byte, error) {
			v, rest, err := prim.Varint(b)
			return frameMsg{V: int(v)}, rest, err
		})
	frame, err := AppendFrame(nil, 2, 5, 1, c, frameMsg{V: -42})
	if err != nil {
		t.Fatalf("AppendFrame: %v", err)
	}
	// Body length prefix covers everything after the first 4 bytes.
	body := frame[4:]
	r := bytes.NewReader(frame)
	got, err := ReadFrame(r, 0)
	if err != nil || !bytes.Equal(got, body) {
		t.Fatalf("ReadFrame: %v (got %d bytes, want %d)", err, len(got), len(body))
	}
	fi, m, err := DecodeFrameBody(got, c)
	if err != nil {
		t.Fatalf("DecodeFrameBody: %v", err)
	}
	if fi.Src != 2 || fi.Dst != 5 || fi.Class != 1 || m.(frameMsg).V != -42 {
		t.Fatalf("frame fields: %+v %+v", fi, m)
	}
	if len(frame) != prim.FrameOverhead+prim.VarintLen(-42) {
		t.Fatalf("FrameOverhead accounting: frame=%d overhead=%d body=%d",
			len(frame), prim.FrameOverhead, prim.VarintLen(-42))
	}
	// Unknown message id is corrupt.
	bad := append([]byte(nil), got...)
	bad[5] = 200
	if _, _, err := DecodeFrameBody(bad, c); !errors.Is(err, prim.ErrCorrupt) {
		t.Fatalf("unknown id: %v", err)
	}
}

// rejectBodyReader fails the test if ReadFrame asks for body bytes: an
// over-max length prefix must be rejected on the header alone.
type rejectBodyReader struct{ t *testing.T }

func (r rejectBodyReader) Read([]byte) (int, error) {
	r.t.Fatal("ReadFrame read body bytes for a rejected frame")
	return 0, io.EOF
}

// TestReadFrameLyingLength pins the untrusted-length-prefix hardening:
// a frame claiming more than max is rejected before any body read, and
// a frame claiming a huge (but accepted) length with almost no payload
// behind it costs memory proportional to the bytes that arrived, not to
// the claim.
func TestReadFrameLyingLength(t *testing.T) {
	// Claim over the cap: rejected from the header, no body read at all.
	hdr := binary.LittleEndian.AppendUint32(nil, MaxClientFrame+1)
	r := io.MultiReader(bytes.NewReader(hdr), rejectBodyReader{t})
	if _, err := ReadFrame(r, MaxClientFrame); !errors.Is(err, prim.ErrCorrupt) {
		t.Fatalf("over-max claim: %v", err)
	}

	// Claim just under the default cap, deliver 16 bytes, then EOF.
	lying := binary.LittleEndian.AppendUint32(nil, MaxFrame-1)
	lying = append(lying, make([]byte, 16)...)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := ReadFrame(bytes.NewReader(lying), 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated lying frame: %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 1<<20 {
		t.Fatalf("lying 64MB prefix allocated %d bytes before payload arrived", alloc)
	}

	// A genuinely large frame still round-trips through the incremental
	// reader (growth path: several doublings).
	big := make([]byte, 5*frameReadChunk+123)
	for i := range big {
		big[i] = byte(i * 31)
	}
	framed := binary.LittleEndian.AppendUint32(nil, uint32(len(big)))
	framed = append(framed, big...)
	got, err := ReadFrame(iotest.OneByteReader(bytes.NewReader(framed)), 0)
	if err != nil || !bytes.Equal(got, big) {
		t.Fatalf("large frame: err=%v len=%d want %d", err, len(got), len(big))
	}
}
