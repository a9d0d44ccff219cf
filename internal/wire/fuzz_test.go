package wire

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"

	"star/internal/replication"
	"star/internal/storage"
	"star/internal/wire/prim"
)

// corpusSeed materialises a seed input under testdata/fuzz/<target> (the
// committed corpus the CI fuzz regression runs start from) and registers
// it with f.Add. Files are content-addressed by index so reruns are
// idempotent; they are committed to the repository.
func corpusSeed(f *testing.F, target string, idx int, data []byte) {
	f.Helper()
	f.Add(data)
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.Fatalf("corpus dir: %v", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("seed-%02d", idx))
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if existing, err := os.ReadFile(path); err == nil && string(existing) == content {
		return
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		f.Fatalf("write corpus seed: %v", err)
	}
}

// walkRoundTrip: whatever a walk decodes from data must encode to exactly
// the bytes its size pass counts, and those must decode to the same value.
func walkRoundTrip[T any](t *testing.T, name string, data []byte, walk func(*Fields, *T)) {
	v, err := Unmarshal(data, walk)
	if err != nil {
		return
	}
	enc := Marshal(v, walk)
	got, err := Unmarshal(enc, walk)
	if err != nil || !reflect.DeepEqual(got, v) || len(enc) != SizeOf(v, walk) {
		t.Fatalf("%s canonical round trip: %v then %v (%v), %d bytes sized %d", name, v, got, err, len(enc), SizeOf(v, walk))
	}
}

// FuzzPrimitives feeds arbitrary bytes through every primitive decoder:
// none may panic, and whatever decodes must re-encode to a buffer that
// decodes to the same value (canonical round trip).
func FuzzPrimitives(f *testing.F) {
	seeds := [][]byte{
		prim.AppendUvarint(nil, 300),
		prim.AppendVarint(nil, -77),
		prim.AppendBytes(nil, []byte("hello")),
		Marshal(&[]int64{1, -2, 3}, (*Fields).I64s),
		Marshal(&[]uint64{9, 1 << 50}, (*Fields).U64s),
		{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
	}
	// Field ops whose 8-byte argument travels short, each at an edge of
	// its form: the longest zig-zag varint, the shortest, a float NaN and
	// a negative zero (byte-reversed), and 2^20.
	for _, op := range []storage.FieldOp{
		storage.AddInt64Op(0, math.MinInt64),
		storage.AddInt64Op(1, -1),
		storage.AddFloat64Op(2, math.NaN()),
		storage.AddFloat64Op(3, math.Copysign(0, -1)),
		storage.SetInt64Op(4, 1<<20),
	} {
		seeds = append(seeds, prim.AppendFieldOp(nil, &op))
	}
	for i, s := range seeds {
		corpusSeed(f, "FuzzPrimitives", i, s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if v, _, err := prim.Uvarint(data); err == nil {
			if got, _, err2 := prim.Uvarint(prim.AppendUvarint(nil, v)); err2 != nil || got != v {
				t.Fatalf("uvarint canonical round trip: %d vs %d (%v)", v, got, err2)
			}
		}
		if v, _, err := prim.Varint(data); err == nil {
			if got, _, err2 := prim.Varint(prim.AppendVarint(nil, v)); err2 != nil || got != v {
				t.Fatalf("varint canonical round trip: %d vs %d (%v)", v, got, err2)
			}
		}
		if p, _, err := prim.Bytes(data); err == nil {
			if got, _, err2 := prim.Bytes(prim.AppendBytes(nil, p)); err2 != nil || !reflect.DeepEqual(got, p) {
				t.Fatalf("bytes canonical round trip failed (%v)", err2)
			}
		}
		walkRoundTrip(t, "i64s", data, (*Fields).I64s)
		walkRoundTrip(t, "i32s", data, (*Fields).I32s)
		walkRoundTrip(t, "u64s", data, (*Fields).U64s)
		walkRoundTrip(t, "ints", data, (*Fields).Ints)
		walkRoundTrip(t, "strings", data, func(f *Fields, v *[]string) { f.Strings(v, 16) })
		prim.Key(data)
		prim.Bool(data)
		if op, _, err := prim.DecodeFieldOp(data); err == nil {
			got, _, err2 := prim.DecodeFieldOp(prim.AppendFieldOp(nil, &op))
			if err2 != nil || !reflect.DeepEqual(got, op) {
				t.Fatalf("field op canonical round trip failed (%v)", err2)
			}
		}
	})
}

// FuzzFrameRead streams arbitrary bytes through ReadFrame under the
// client-facing cap: no input may panic or allocate past the cap (the
// length prefix is attacker-controlled), and an accepted body must match
// the prefix's claim and re-read identically when re-framed.
func FuzzFrameRead(f *testing.F) {
	frame := func(claim uint32, body []byte) []byte {
		return append(binary.LittleEndian.AppendUint32(nil, claim), body...)
	}
	seeds := [][]byte{
		frame(5, []byte("hello")),
		// The offending frame: a huge claimed length backed by almost no
		// payload (the pre-hardening reader allocated the claim up front).
		frame(0xfffffff0, []byte{1, 2, 3}),
		frame(MaxClientFrame+1, nil),
		frame(1000, []byte("short")), // truncated body
		frame(0, nil),
	}
	for i, s := range seeds {
		corpusSeed(f, "FuzzFrameRead", i, s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		body, err := ReadFrame(bytes.NewReader(data), MaxClientFrame)
		if err != nil {
			return // rejected without panicking: the property under test
		}
		if len(data) < 4 {
			t.Fatal("accepted a frame with no length prefix")
		}
		if claim := binary.LittleEndian.Uint32(data); int(claim) != len(body) {
			t.Fatalf("claimed %d bytes, returned %d", claim, len(body))
		}
		reframed := append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)
		again, err := ReadFrame(bytes.NewReader(reframed), MaxClientFrame)
		if err != nil || !bytes.Equal(again, body) {
			t.Fatalf("re-read of accepted frame: %v", err)
		}
	})
}

// stockOps is a TPC-C stock update's four ops: quantity set, year-to-date
// and order count adds (zig-zag varints while small), a remote count add.
func stockOps(qty, ytd int64) []storage.FieldOp {
	return []storage.FieldOp{storage.SetInt64Op(2, qty), storage.AddInt64Op(13, ytd), storage.AddInt64Op(14, 1), storage.AddInt64Op(15, 1)}
}

// everyForm is four ops whose heads depend on v's size only as far as
// each form's range goes: a zig-zag varint, a byte-reversed float, 8 bytes
// raw and a 3-byte raw argument.
func everyForm(v int64) []storage.FieldOp {
	return []storage.FieldOp{storage.AddInt64Op(1, v), storage.AddFloat64Op(2, float64(v)*2), storage.SetInt64Op(3, 1<<62|v&0xffff|1),
		storage.NewFieldOp(4, storage.OpSetField, []byte{byte(v), 1, 2})}
}

// FuzzBatchDecode hammers the replication batch decoder: arbitrary
// input must never panic, and a successful decode must survive a
// canonical re-encode/decode cycle bit-identically.
func FuzzBatchDecode(f *testing.F) {
	good := &replication.Batch{From: 1, Epoch: 7, Entries: sampleEntries()}
	enc := replication.AppendBatch(nil, good)
	// All operation entries, spread over four partitions (so several
	// applier shards): every entry's Ops comes out of one shared slice.
	allOps := &replication.Batch{From: 2, Epoch: 9}
	for i := 0; i < 8; i++ {
		allOps.Entries = append(allOps.Entries, replication.Entry{
			Table: 1, Part: int32(i % 4), Key: storage.K1(uint64(i)), TID: uint64(100 + i),
			Ops: sampleEntries()[2].Ops[:i%3], // zero, one and two ops
		})
	}
	ops, row := sampleEntries()[2].Ops, []byte("rowbytes")
	one := func(epoch uint64, entries ...replication.Entry) []byte {
		return replication.AppendBatch(nil, &replication.Batch{From: 1, Epoch: epoch, Entries: entries})
	}
	seeds := [][]byte{
		enc,
		enc[:len(enc)/2],                   // truncated
		append([]byte{0xff, 0xff}, enc...), // corrupt header
		replication.AppendBatch(nil, &replication.Batch{}),
		replication.AppendBatch(nil, allOps),
		// Each case of coding an entry against the one before it. Table and
		// partition change mid-envelope, and change back:
		one(7, replication.Entry{Table: 1, Part: 2, Key: storage.K1(1), TID: storage.MakeTID(7, 1), Ops: ops},
			replication.Entry{Table: 1, Part: 2, Key: storage.K1(2), TID: storage.MakeTID(7, 1), Ops: ops},
			replication.Entry{Table: 3, Part: 200, Key: storage.K1(3), TID: storage.MakeTID(7, 2), Row: row},
			replication.Entry{Table: 1, Part: 2, Key: storage.K1(4), TID: storage.MakeTID(7, 3), Ops: ops}),
		// TIDs stepping backwards (single-master workers interleaved):
		one(7, replication.Entry{Key: storage.K1(1), TID: storage.MakeTID(7, 90), Row: row},
			replication.Entry{Key: storage.K1(2), TID: storage.MakeTID(7, 40), Row: row},
			replication.Entry{Key: storage.K1(3), TID: storage.MakeTID(7, 91), Row: row}),
		// An ad-hoc Epoch-0 stream with arbitrary TIDs:
		one(0, replication.Entry{Key: storage.K1(1), TID: ^uint64(0), Row: row},
			replication.Entry{Key: storage.K1(2), TID: 0, Row: row},
			replication.Entry{Key: storage.K1(3), TID: 1 << 63, Row: row}),
		// Raw-key escape next to a 9-byte half that stays a uvarint:
		one(7, replication.Entry{Key: storage.Key{Hi: ^uint64(0), Lo: 1 << 63}, TID: storage.MakeTID(7, 1), Row: row},
			replication.Entry{Key: storage.K2(2, 1<<62|5), TID: storage.MakeTID(7, 2), Row: row}),
		// A zero-op entry and a tombstone: the two minimum-length payloads.
		one(7, replication.Entry{Key: storage.K1(1), TID: storage.MakeTID(7, 1), Ops: ops[:0]}),
		one(7, replication.Entry{Key: storage.K1(1), TID: storage.MakeTID(7, 1) | storage.TIDAbsentBit, Absent: true}),
		// A count the buffer could hold, with two entries behind it.
		lyingBatch(2 << 10),
		// Packed rows: mostly zeros with a partial last word, all zeros,
		// and one non-zero byte per word — next to a row that stays raw.
		one(7, replication.Entry{Key: storage.K1(1), TID: storage.MakeTID(7, 1), Row: append(make([]byte, 41), 3, 0, 0, 9)},
			replication.Entry{Key: storage.K1(2), TID: storage.MakeTID(7, 1), Row: make([]byte, 64)},
			replication.Entry{Key: storage.K1(3), TID: storage.MakeTID(7, 2), Row: bytes.Repeat([]byte{0, 0, 0, 1, 0, 0, 0, 0}, 5)},
			replication.Entry{Key: storage.K1(4), TID: storage.MakeTID(7, 3), Row: row}),
		// A packed row written by hand, and what must not decode: a tiny
		// frame declaring a row of MaxRowSize, a mask naming a byte past
		// the end, and a packed form no shorter than the row.
		packedEntry(flagPacked, 16, 0b1, 7, 0),
		packedEntry(flagPacked, 0xff, 0xff, 0x03, 0, 0),
		packedEntry(flagPacked, 12, 0b1, 7, 0b10000, 9),
		packedEntry(flagPacked, 8, 0xff, 1, 2, 3, 4, 5, 6, 7, 8),
		// Keys as deltas — a run of order lines, a step back, a new Hi —
		// and op arguments in each form: zig-zag, byte-reversed, raw.
		one(7, replication.Entry{Table: 7, Key: storage.K2(1, 2<<56|9<<8|1), TID: storage.MakeTID(7, 1), Row: row},
			replication.Entry{Table: 7, Key: storage.K2(1, 2<<56|9<<8|2), TID: storage.MakeTID(7, 1), Row: row},
			replication.Entry{Table: 7, Key: storage.K2(1, 2<<56|8<<8|5), TID: storage.MakeTID(7, 1), Absent: true},
			replication.Entry{Table: 7, Key: storage.K2(2, 2<<56|8<<8|6), TID: storage.MakeTID(7, 2), Row: row}),
		one(7, replication.Entry{Table: 3, Key: storage.K2(1, 17), TID: storage.MakeTID(7, 1), Ops: []storage.FieldOp{
			storage.AddInt64Op(0, -3), storage.AddFloat64Op(1, 5.0), storage.SetInt64Op(2, -1<<62), storage.AddFloat64Op(3, 0.1)}}),
		// A frame as the encoder before key deltas and short arguments
		// wrote it, and a raw key two uvarints would beat.
		mustHex(f, parentFrame),
		rawKeyFrame(),
		// What must not decode: a key delta with a table and partition, a
		// key delta and a raw key, an argument in both short forms.
		{0, 0, 1, flagKeyDelta, 0, 0, 2, 0, 1, 'r'},
		{0, 0, 1, flagKeyDelta | flagRawKey | flagSamePart, 2, 0, 1, 'r'},
		{0, 0, 1, flagOp | flagSamePart, 1, 1, 0, 1, 0, 0xc1, 2},
		// Op entries that repeat the heads of the op entry before them: a
		// run across tables, past a value entry, then a change of one
		// argument's form; and every argument form under repeated heads.
		one(7, replication.Entry{Table: 5, Key: storage.K2(1, 9), TID: storage.MakeTID(7, 1), Ops: stockOps(3, 1)},
			replication.Entry{Table: 5, Key: storage.K2(1, 12), TID: storage.MakeTID(7, 1), Ops: stockOps(7, 1)},
			replication.Entry{Table: 6, Key: storage.K2(1, 3), TID: storage.MakeTID(7, 1), Row: row},
			replication.Entry{Table: 2, Part: 1, Key: storage.K2(2, 12), TID: storage.MakeTID(7, 2), Ops: stockOps(40, 2)},
			replication.Entry{Table: 5, Part: 1, Key: storage.K2(2, 13), TID: storage.MakeTID(7, 2), Ops: stockOps(41, 1<<40)}),
		one(7, replication.Entry{Table: 3, Key: storage.K1(1), TID: storage.MakeTID(7, 1), Ops: everyForm(1)},
			replication.Entry{Table: 3, Key: storage.K1(2), TID: storage.MakeTID(7, 1), Ops: everyForm(-60)},
			replication.Entry{Table: 3, Key: storage.K1(3), TID: storage.MakeTID(7, 2), Ops: everyForm(63)}),
		// Hand-written: a same-shape entry, and where flagSameOps must not
		// decode — on a value entry, on the envelope's first op entry, and
		// behind a zero-op entry or one of five ops.
		twoEntries(flagOp, twoOps, flagOp|flagSameOps, 3, 0xc0, 0x08),
		twoEntries(flagOp, twoOps, flagSameOps, 1, 'r'),
		packedEntry(flagOp|flagSameOps, 2),
		twoEntries(0, []byte{1, 'r'}, flagOp|flagSameOps, 2),
		twoEntries(flagOp, []byte{0}, flagOp|flagSameOps, 2),
		twoEntries(flagOp, []byte{5, 1, 0x41, 2, 1, 0x41, 2, 1, 0x41, 2, 1, 0x41, 2, 1, 0x41, 2}, flagOp|flagSameOps, 2, 2, 2, 2, 2),
	}
	for i, s := range seeds {
		corpusSeed(f, "FuzzBatchDecode", i, s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		b, err := replication.DecodeBatch(data)
		if err != nil {
			return // rejected without panicking: the property under test
		}
		re := replication.AppendBatch(nil, b)
		b2, err := replication.DecodeBatch(re)
		if err != nil {
			t.Fatalf("re-decode of canonical encoding failed: %v", err)
		}
		if !reflect.DeepEqual(b, b2) {
			t.Fatalf("canonical round trip changed the batch:\n%+v\nvs\n%+v", b, b2)
		}
	})
}
