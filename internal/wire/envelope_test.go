package wire

import (
	"bytes"
	"encoding/hex"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"unsafe"

	"star/internal/replication"
	"star/internal/storage"
	"star/internal/wire/prim"
)

// The envelope's flag bits (replication/envelope.go), for entries coded
// by hand below.
const (
	flagOp       = 1 << 0
	flagAbsent   = 1 << 1
	flagSamePart = 1 << 2
	flagRawKey   = 1 << 3
	flagPacked   = 1 << 4
	flagKeyDelta = 1 << 5
	flagSameOps  = 1 << 6
	flagSameTID  = 1 << 7
)

// historyKey is a key shaped like TPC-C's history keys: bit 62 set in one
// half, so that half alone costs 9 bytes as a uvarint.
func historyKey(hi, lo uint64) storage.Key { return storage.K2(1<<62|hi, lo) }

// sparseRow draws a row of n bytes of which about zeroPct in a hundred
// are zero, the rest random and non-zero (nil for no bytes, as an empty
// row decodes).
func sparseRow(rng *rand.Rand, n, zeroPct int) []byte {
	if n == 0 {
		return nil
	}
	row := make([]byte, n)
	for i := range row {
		if rng.Intn(100) >= zeroPct {
			row[i] = byte(1 + rng.Intn(255))
		}
	}
	return row
}

// randomEnvelope draws a batch that mixes everything the codec has a case
// for: op, value and tombstone entries, rows of random bytes and rows
// that are mostly zeros, runs and changes of table and partition,
// same-transaction, forward and backward TID steps (and, at Epoch 0,
// arbitrary TIDs), small keys, 9-byte halves and raw-escape keys, and op
// lists of random heads or of one of the envelope's few shapes, so that
// op entries repeat the heads of the op entry before them, across tables
// and value entries, or differ from it by one head or one form.
func randomEnvelope(rng *rand.Rand) *replication.Batch {
	b := &replication.Batch{From: rng.Intn(8), Epoch: uint64(rng.Intn(3)) * uint64(rng.Intn(1<<20))}
	var (
		table  storage.TableID
		part   int32
		tid    = storage.MakeTID(b.Epoch, uint64(rng.Intn(1000)))
		shapes = make([][]int, 2)
	)
	for i := range shapes {
		shapes[i] = make([]int, 1+rng.Intn(5)) // 5: too wide to repeat
		for j := range shapes[i] {
			shapes[i][j] = rng.Intn(len(formOps))
		}
	}
	b.Entries = make([]replication.Entry, rng.Intn(40))
	for i := range b.Entries {
		if rng.Intn(4) == 0 {
			table, part = storage.TableID(rng.Intn(10)), int32(rng.Intn(300))
		}
		switch rng.Intn(6) {
		case 0: // same transaction
		case 1:
			tid -= uint64(rng.Intn(64)) << 2 // another worker's, older
		case 2:
			if b.Epoch == 0 {
				tid = rng.Uint64()
			}
		default:
			tid += uint64(1+rng.Intn(8)) << 2
		}
		e := replication.Entry{Table: table, Part: part, TID: tid}
		switch rng.Intn(5) {
		case 4: // the row next to the previous entry's, either side
			if i > 0 {
				e.Key = b.Entries[i-1].Key
			}
			e.Key.Lo += uint64(rng.Intn(5)) - 2
		case 0:
			e.Key = storage.K1(uint64(rng.Intn(1 << 21)))
		case 1:
			e.Key = storage.K2(uint64(rng.Intn(64)), uint64(rng.Intn(100000)))
		case 2:
			e.Key = historyKey(uint64(rng.Intn(64)), uint64(rng.Intn(1<<20)))
		default:
			e.Key = storage.Key{Hi: rng.Uint64() | 1<<63, Lo: rng.Uint64() | 1<<63}
		}
		switch rng.Intn(5) {
		case 0:
			e.Absent = true
		case 1:
			e.Row = make([]byte, 1+rng.Intn(300))
			rng.Read(e.Row)
		case 2:
			e.Row = sparseRow(rng, 1+rng.Intn(700), rng.Intn(101))
		case 3:
			e.Ops = make([]storage.FieldOp, rng.Intn(4))
			for j := range e.Ops {
				e.Ops[j] = randomOp(rng)
			}
		default:
			shape := shapes[rng.Intn(len(shapes))]
			e.Ops = make([]storage.FieldOp, len(shape))
			for j, f := range shape {
				e.Ops[j] = formOps[f](rng)
			}
		}
		b.Entries[i] = e
	}
	return b
}

// randomOp draws a field op whose argument takes each of its forms: small
// and large integers either side of zero, floats, 8 random bytes, and
// arguments of other lengths (which always travel raw).
func randomOp(rng *rand.Rand) storage.FieldOp {
	field := rng.Intn(8)
	switch rng.Intn(6) {
	case 0:
		return storage.AddInt64Op(field, rng.Int63n(1000)-500)
	case 1:
		return storage.SetInt64Op(field, rng.Int63()>>rng.Intn(63)*int64(1-2*rng.Intn(2)))
	case 2:
		return storage.AddFloat64Op(field, float64(rng.Intn(2000)-1000)/4)
	case 3:
		return storage.AddFloat64Op(field, rng.NormFloat64()*1e4)
	case 4:
		return storage.SetInt64Op(field, int64(rng.Uint64()))
	}
	arg := make([]byte, 1+rng.Intn(20))
	rng.Read(arg)
	return storage.NewFieldOp(field, storage.OpSetField, arg)
}

// formOps draw ops whose heads do not depend on their argument: each
// has its field and kind, and its argument always takes the same form —
// zig-zag varint, byte-reversed, 8 bytes raw, or another length raw.
var formOps = []func(*rand.Rand) storage.FieldOp{
	func(rng *rand.Rand) storage.FieldOp { return storage.AddInt64Op(1, rng.Int63n(1000)-500) },
	func(rng *rand.Rand) storage.FieldOp { return storage.AddFloat64Op(2, float64(1+rng.Intn(8))) },
	func(rng *rand.Rand) storage.FieldOp { return storage.SetInt64Op(3, int64(rng.Uint64()|1<<62|1)) },
	func(rng *rand.Rand) storage.FieldOp {
		arg := make([]byte, 1+rng.Intn(20))
		rng.Read(arg)
		return storage.NewFieldOp(4, storage.OpSetField, arg)
	},
}

// checkEnvelope holds one envelope to the codec's contract: DecodeBatch
// inverts AppendBatch, BatchLen is the encoded length, and an EntryCoder
// walking the entries agrees with the encoder on every one of them —
// never pricing a payload above its raw form, since a row goes packed
// only when that is strictly shorter.
func checkEnvelope(t *testing.T, what string, b *replication.Batch) {
	t.Helper()
	enc := replication.AppendBatch(nil, b)
	if len(enc) != replication.BatchLen(b) {
		t.Fatalf("%s: BatchLen=%d encoded=%d", what, replication.BatchLen(b), len(enc))
	}
	got, err := replication.DecodeBatch(enc)
	if err != nil {
		t.Fatalf("%s: decode: %v", what, err)
	}
	if !reflect.DeepEqual(got, b) {
		t.Fatalf("%s: round trip changed the batch:\n got %+v\nwant %+v", what, got, b)
	}
	var s replication.EntryCoder
	s.Reset(b.Epoch)
	prefix := replication.AppendBatch(nil, &replication.Batch{From: b.From, Epoch: b.Epoch, Entries: b.Entries[:0]})
	sized := len(prim.AppendUvarint(prefix[:len(prefix)-1], uint64(len(b.Entries))))
	for i := range b.Entries {
		e := &b.Entries[i]
		header, payload, raw := s.Next(e)
		if payload > raw || header > replication.MaxEntryHeaderLen || (e.IsOp() || e.Absent) && payload != raw {
			t.Fatalf("%s entry %d: header %d payload %d raw %d", what, i, header, payload, raw)
		}
		sized += header + payload
		if upTo := replication.AppendBatch(nil, &replication.Batch{From: b.From, Epoch: b.Epoch, Entries: b.Entries[:i+1]}); len(upTo) != sized {
			t.Fatalf("%s entry %d: sizer says the envelope is %d bytes so far, encoder wrote %d", what, i, sized, len(upTo))
		}
	}
}

// sameOpsEntries counts b's op entries sent with only their arguments:
// priced under their count and heads.
func sameOpsEntries(b *replication.Batch) (n int) {
	var s replication.EntryCoder
	s.Reset(b.Epoch)
	for i := range b.Entries {
		e := &b.Entries[i]
		_, payload, _ := s.Next(e)
		full := prim.UvarintLen(uint64(len(e.Ops)))
		for j := range e.Ops {
			full += prim.FieldOpLen(&e.Ops[j])
		}
		if e.IsOp() && payload < full {
			n++
		}
	}
	return n
}

// TestEnvelopePropertyRoundTrip: whatever the mix, the envelope holds to
// checkEnvelope's contract, a few hundred op entries among it sent with
// only their arguments.
func TestEnvelopePropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	same := 0
	for round := 0; round < 500; round++ {
		b := randomEnvelope(rng)
		checkEnvelope(t, fmt.Sprintf("round %d", round), b)
		same += sameOpsEntries(b)
	}
	if same < 250 {
		t.Fatalf("%d op entries in 500 envelopes repeated the heads before them, want 250 or more", same)
	}
}

// packedEntry is one value entry whose payload is written by hand: an
// Epoch-0 envelope of one entry for table 0, partition 0, key (1,1) and
// TID 0, the envelope's own (flagSameTID: no delta).
func packedEntry(flags byte, payload ...byte) []byte {
	return append([]byte{0, 0, 1, flags | flagSamePart | flagSameTID, 1, 1}, payload...)
}

// TestRowPackPropertyRoundTrip: over every length class (multiples of 8
// and not, 0 to 4 096) and zero density (none to all), a row survives
// the wire, takes the packed form exactly when that is strictly shorter,
// and then costs a mask byte per word plus its non-zero bytes.
func TestRowPackPropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	lengths := []int{0, 1, 2, 7, 8, 9, 15, 16, 17, 63, 64, 65, 127, 128, 683, 4095, 4096}
	for i := 0; i < 200; i++ {
		lengths = append(lengths, rng.Intn(4097))
	}
	for _, n := range lengths {
		for _, zeroPct := range []int{0, 5, 10, 13, 25, 50, 63, 90, 99, 100} {
			row := sparseRow(rng, n, zeroPct)
			nonZero := n - bytes.Count(row, []byte{0})
			b := &replication.Batch{Entries: []replication.Entry{{Key: storage.K2(1, 1), Row: row}}}
			checkEnvelope(t, fmt.Sprintf("%d bytes, %d non-zero", n, nonZero), b)
			enc := replication.AppendBatch(nil, b)
			rawLen, packLen := len(packedEntry(0))+prim.BytesLen(row), len(packedEntry(0))+prim.UvarintLen(uint64(n))+(n+7)/8+nonZero
			want, wantFlag := rawLen, byte(0)
			if packLen < rawLen {
				want, wantFlag = packLen, flagPacked
			}
			if len(enc) != want || enc[3]&flagPacked != wantFlag {
				t.Fatalf("%d bytes, %d non-zero: %d bytes on the wire with flags %#x; raw is %d, packed %d", n, nonZero, len(enc), enc[3], rawLen, packLen)
			}
		}
	}
}

// TestDecodeBatchRejectsIllFormedPackedRows: a packed row decodes only in
// the one form the encoder produces.
func TestDecodeBatchRejectsIllFormedPackedRows(t *testing.T) {
	good := packedEntry(flagPacked, 16, 0b1, 7, 0)
	b, err := replication.DecodeBatch(good)
	if want := append([]byte{7}, make([]byte, 15)...); err != nil || !bytes.Equal(b.Entries[0].Row, want) {
		t.Fatalf("hand-packed row: %v, row %x", err, b.Entries[0].Row)
	}
	if re := replication.AppendBatch(nil, b); !bytes.Equal(re, good) {
		t.Fatalf("hand-packed row re-encodes to %x, was %x", re, good)
	}
	tooLong := prim.AppendUvarint(nil, storage.MaxRowSize+1)
	for _, c := range []struct {
		name string
		enc  []byte
		want error
	}{
		{"mask bit past the declared end", packedEntry(flagPacked, 12, 0b1, 7, 0b10000, 9), prim.ErrCorrupt},
		{"last group missing", packedEntry(flagPacked, 16, 0b1, 7), prim.ErrTruncated},
		{"last group cut short", packedEntry(flagPacked, 16, 0b1, 7, 0b11, 5), prim.ErrTruncated},
		{"length beyond MaxRowSize", packedEntry(flagPacked, append(tooLong, make([]byte, 9000)...)...), prim.ErrCorrupt},
		{"length the frame cannot back", packedEntry(flagPacked, 0xff, 0xff, 0x03, 0, 0), prim.ErrTruncated},
		{"packed operation entry", packedEntry(flagPacked|flagOp, 16, 0b1, 7, 0), prim.ErrCorrupt},
		{"packed tombstone", packedEntry(flagPacked|flagAbsent, 16, 0b1, 7, 0), prim.ErrCorrupt},
		{"packed no shorter than raw", packedEntry(flagPacked, 8, 0xff, 1, 2, 3, 4, 5, 6, 7, 8), prim.ErrCorrupt},
		{"packed as long as raw", packedEntry(flagPacked, 2, 0b1, 5), prim.ErrCorrupt},
		{"empty packed row", packedEntry(flagPacked, 0), prim.ErrCorrupt},
		{"named byte that is zero", packedEntry(flagPacked, 16, 0b1, 0, 0), prim.ErrCorrupt},
		{"flag bit 6", packedEntry(1<<6, 1, 'r'), prim.ErrCorrupt},
	} {
		if _, err := replication.DecodeBatch(c.enc); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

// parentFrame is an envelope as the encoder before key deltas and short
// op arguments wrote it, from 1 in epoch 7: two stock updates (8-byte
// arguments raw: a set, two integer adds and a float add; then one add),
// two order-line rows (packed) and an order-line tombstone, each key two
// uvarints.
const parentFrame = "0107050103010111280402000829000000000000000301080500000000000000040108010000000000000005020800000000000004c00501170001030108ffffffffffffffff1007010181928080808080800200420103010900000001050000001401829280808080808002004201040101000000010500000006018186808080808080020800"

// parentTPCCFrame is an envelope as the encoder before one TID per
// transaction wrote it, from 1 in epoch 7 (parentTPCCBatch): every entry
// after the first sends a TID delta, 0 within a transaction, and a key
// delta only within a table, so the new-order row and the tombstone behind
// their order send their keys whole.
const parentTPCCFrame = "010708010301011128040240520d410a0e41020f4102650c0018060202100501018980808080400028012500010701010010060101898080808040000801091007010181928080808080800200420103010900000001050000003402004201040101000000010500000001050101848080808060080102400e020601018480808080600000"

// orderLineRow is a 66-byte order-line row, mostly zeros: a, b and 5 in
// its first, second and sixth words.
func orderLineRow(a, b byte) []byte {
	r := make([]byte, 66)
	r[0], r[8], r[40] = a, b, 5
	return r
}

// parentTPCCBatch is what parentTPCCFrame holds: a New-Order's two stock
// updates (the second repeating the first's op heads), its order and
// new-order rows (one key), two order lines (packed, the second a key
// delta) — then a Delivery's order update and new-order tombstone.
func parentTPCCBatch() *replication.Batch {
	orderRow, newOrderRow := make([]byte, 40), make([]byte, 8)
	orderRow[0], orderRow[16], orderRow[24], newOrderRow[0] = 37, 7, 1, 9
	newOrder, delivery := storage.MakeTID(7, 5), storage.MakeTID(7, 6)
	return &replication.Batch{From: 1, Epoch: 7, Entries: []replication.Entry{
		{Table: 3, Part: 1, Key: storage.K2(1, 17), TID: newOrder, Ops: stockOps(41, 5)},
		{Table: 3, Part: 1, Key: storage.K2(1, 23), TID: newOrder, Ops: stockOps(12, 3)},
		{Table: 5, Part: 1, Key: storage.K2(1, 2<<40|9), TID: newOrder, Row: orderRow},
		{Table: 6, Part: 1, Key: storage.K2(1, 2<<40|9), TID: newOrder, Row: newOrderRow},
		{Table: 7, Part: 1, Key: storage.K2(1, 2<<56|9<<8|1), TID: newOrder, Row: orderLineRow(3, 9)},
		{Table: 7, Part: 1, Key: storage.K2(1, 2<<56|9<<8|2), TID: newOrder, Row: orderLineRow(4, 1)},
		{Table: 5, Part: 1, Key: storage.K2(1, 3<<40|4), TID: delivery, Ops: []storage.FieldOp{storage.SetInt64Op(2, 7)}},
		{Table: 6, Part: 1, Key: storage.K2(1, 3<<40|4), TID: delivery, Absent: true},
	}}
}

// TestDecodeBatchReadsParentFrames: a log, checkpoint or envelope written
// before key deltas and short arguments, or before one TID per
// transaction, still decodes — to the batch it was, which now encodes
// shorter — and so does a key the old encoder sent raw where uvarints were
// shorter (the decoder accepts every key, TID and argument form, shortest
// or not).
func TestDecodeBatchReadsParentFrames(t *testing.T) {
	want := &replication.Batch{From: 1, Epoch: 7, Entries: []replication.Entry{
		{Table: 3, Part: 1, Key: storage.K2(1, 17), TID: storage.MakeTID(7, 5), Ops: []storage.FieldOp{
			storage.SetInt64Op(2, 41), storage.AddInt64Op(3, 5), storage.AddInt64Op(4, 1), storage.AddFloat64Op(5, -2.5)}},
		{Table: 3, Part: 1, Key: storage.K2(1, 23), TID: storage.MakeTID(7, 5), Ops: []storage.FieldOp{storage.AddInt64Op(3, -1)}},
		{Table: 7, Part: 1, Key: storage.K2(1, 2<<56|9<<8|1), TID: storage.MakeTID(7, 5), Row: orderLineRow(3, 9)},
		{Table: 7, Part: 1, Key: storage.K2(1, 2<<56|9<<8|2), TID: storage.MakeTID(7, 5), Row: orderLineRow(4, 1)},
		{Table: 7, Part: 1, Key: storage.K2(1, 2<<56|3<<8|1), TID: storage.MakeTID(7, 6), Absent: true},
	}}
	for _, c := range []struct {
		name        string
		enc         []byte
		want        *replication.Batch
		reencodedTo int
	}{
		{"TPC-C entries", mustHex(t, parentFrame), want, 74},
		{"a New-Order and a Delivery", mustHex(t, parentTPCCFrame), parentTPCCBatch(), 113},
		{"a raw key uvarints would beat", rawKeyFrame(), &replication.Batch{Entries: []replication.Entry{{Key: storage.K1(1), Row: []byte("r")}}}, 7},
	} {
		got, err := replication.DecodeBatch(c.enc)
		if err != nil || !reflect.DeepEqual(got, c.want) {
			t.Fatalf("%s: %v\n got %+v\nwant %+v", c.name, err, got, c.want)
		}
		re := replication.AppendBatch(nil, got)
		if again, err := replication.DecodeBatch(re); err != nil || !reflect.DeepEqual(again, c.want) || len(re) != c.reencodedTo {
			t.Fatalf("%s: %d bytes re-encode to %d, want %d (%v)", c.name, len(c.enc), len(re), c.reencodedTo, err)
		}
	}
}

// TestDecodeBatchRejectsIllFormedKeysAndArguments: a key delta may follow
// a change of table and partition but is the key's only form; a TID is
// the previous entry's under flagSameTID, or a delta from it (0 too, as
// frames from before flagSameTID send it); an op argument has one form;
// an op's kind is one storage knows, OpSetBytes the last.
func TestDecodeBatchRejectsIllFormedKeysAndArguments(t *testing.T) {
	for _, c := range []struct {
		name string
		enc  []byte
		key  storage.Key
		tid  uint64
	}{ // behind key 0 and TID 4<<34, the first possible of epoch 4
		{"key delta", []byte{0, 4, 1, flagKeyDelta | flagSamePart, 2, 0, 1, 'r'}, storage.K1(1), 4 << 34},
		{"key delta with a table and partition", []byte{0, 4, 1, flagKeyDelta, 5, 0, 2, 0, 1, 'r'}, storage.K1(1), 4 << 34},
		{"key delta and the previous TID", []byte{0, 4, 1, flagKeyDelta | flagSameTID, 5, 0, 2, 1, 'r'}, storage.K1(1), 4 << 34},
		{"the previous TID and a raw key", append(append([]byte{0, 4, 1, flagSameTID | flagRawKey | flagSamePart},
			prim.AppendKey(nil, storage.K1(1<<63))...), 1, 'r'), storage.K1(1 << 63), 4 << 34},
		{"a TID delta", []byte{0, 4, 1, flagSamePart, 0, 3, 6, 1, 'r'}, storage.K1(3), 4<<34 + 3},
	} {
		b, err := replication.DecodeBatch(c.enc)
		if err != nil || b.Entries[0].Key != c.key || b.Entries[0].TID != c.tid {
			t.Fatalf("hand-written %s: %v, %+v", c.name, err, b)
		}
	}
	op := func(kind byte, arg ...byte) []byte {
		return append([]byte{0, 0, 1, flagOp | flagSamePart | flagSameTID, 1, 1, 1, 0, kind}, arg...)
	}
	for _, c := range []struct {
		name string
		enc  []byte
		want error
	}{
		{"key delta and raw key", []byte{0, 0, 1, flagKeyDelta | flagRawKey | flagSamePart, 2, 0, 1, 'r'}, prim.ErrCorrupt},
		{"both argument forms", op(byte(storage.OpAddInt64)|0xc0, 2), prim.ErrCorrupt},
		{"short argument cut off", op(byte(storage.OpAddInt64)|0x40, 0x80), prim.ErrTruncated},
		{"kind past OpSetBytes", op(byte(storage.OpSetBytes+1), 1, 'v'), prim.ErrCorrupt},
	} {
		if _, err := replication.DecodeBatch(c.enc); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
	if b, err := replication.DecodeBatch(op(byte(storage.OpSetBytes), 1, 'v')); err != nil || b.Entries[0].Ops[0].Kind != storage.OpSetBytes {
		t.Errorf("OpSetBytes: %v", err)
	}
	for _, form := range []byte{0x40, 0x80} {
		b, err := replication.DecodeBatch(op(byte(storage.OpAddInt64)|form, 2))
		var w [8]byte
		if err != nil || len(b.Entries[0].Ops[0].Argument(&w)) != 8 {
			t.Errorf("argument form %#x: %v", form, err)
		}
	}
}

// twoEntries is an Epoch-0 envelope of two entries for table 0,
// partition 0 and TID 0 written by hand, each key a delta from the one
// before and each TID the one before: key (0,1) with flags1 and payload1,
// then key (0,2) with flags2 and payload2.
func twoEntries(flags1 byte, payload1 []byte, flags2 byte, payload2 ...byte) []byte {
	b := append([]byte{0, 0, 2, flags1 | flagSamePart | flagKeyDelta | flagSameTID, 2}, payload1...)
	return append(append(b, flags2|flagSamePart|flagKeyDelta|flagSameTID, 2), payload2...)
}

// twoOps is an op entry's payload of two ops: an integer add of 1 to
// field 1 (zig-zag varint) and a float add of 2.5 to field 2
// (byte-reversed).
var twoOps = []byte{2, 1, byte(storage.OpAddInt64) | 0x40, 2, 2, byte(storage.OpAddFloat64) | 0x80, 0xc0, 0x08}

// TestDecodeBatchSameOps: an op entry flagged flagSameOps reads its
// arguments under the heads of the op entry before it, and only there: not
// on a value entry, not on an envelope's first op entry, and not behind
// an op entry of no ops or of more than four.
func TestDecodeBatchSameOps(t *testing.T) {
	good := twoEntries(flagOp, twoOps, flagOp|flagSameOps, 3, 0xc0, 0x08)
	b, err := replication.DecodeBatch(good)
	want := [][]storage.FieldOp{
		{storage.AddInt64Op(1, 1), storage.AddFloat64Op(2, 2.5)},
		{storage.AddInt64Op(1, -2), storage.AddFloat64Op(2, 2.5)},
	}
	if err != nil || len(b.Entries) != 2 || !reflect.DeepEqual(b.Entries[0].Ops, want[0]) || !reflect.DeepEqual(b.Entries[1].Ops, want[1]) {
		t.Fatalf("hand-written same-shape entry: %v, %+v", err, b)
	}
	if re := replication.AppendBatch(nil, b); !bytes.Equal(re, good) {
		t.Fatalf("hand-written same-shape entry re-encodes to %x, was %x", re, good)
	}
	five := []byte{5}
	for i := 0; i < 5; i++ {
		five = append(five, 1, byte(storage.OpAddInt64)|0x40, 2)
	}
	for _, c := range []struct {
		name string
		enc  []byte
		want error
	}{
		{"on a value entry behind an op entry", twoEntries(flagOp, twoOps, flagSameOps, 1, 'r'), prim.ErrCorrupt},
		{"on the envelope's first entry", packedEntry(flagOp|flagSameOps, 2), prim.ErrCorrupt},
		{"behind a value entry only", twoEntries(0, []byte{1, 'r'}, flagOp|flagSameOps, 2), prim.ErrCorrupt},
		{"behind a zero-op entry", twoEntries(flagOp, []byte{0}, flagOp|flagSameOps, 2), prim.ErrCorrupt},
		{"behind five ops", twoEntries(flagOp, five, flagOp|flagSameOps, 2, 2, 2, 2, 2), prim.ErrCorrupt},
		{"an argument missing", twoEntries(flagOp, twoOps, flagOp|flagSameOps, 3), prim.ErrTruncated},
	} {
		if _, err := replication.DecodeBatch(c.enc); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

// rawKeyFrame is an Epoch-0 envelope of one value entry, row "r", whose
// key K1(1) is sent raw: 16 bytes where two uvarints take 2.
func rawKeyFrame() []byte {
	b := append([]byte{0, 0, 1, flagRawKey, 0, 0}, prim.AppendKey(nil, storage.K1(1))...)
	return append(b, 0, 1, 'r')
}

// mustHex decodes a hex literal.
func mustHex(t testing.TB, s string) []byte {
	b, err := hex.DecodeString(s)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// ycsbOpEnvelope is what one worker ships for one partition in the
// partitioned phase of YCSB: n single-write transactions with consecutive
// TIDs, each setting column 1 of a random row (a bytes column of
// capacity 10, YCSB's) to a fresh 10-byte value, built as YCSB's
// generator builds it.
func ycsbOpEnvelope(n int) *replication.Batch {
	const rowsPerPart, part, epoch = 200000, 3, 12
	schema := storage.NewSchema(
		storage.Field{Name: "f0", Type: storage.FieldBytes, Cap: 10},
		storage.Field{Name: "f1", Type: storage.FieldBytes, Cap: 10},
	)
	keys, vals := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	row, val := schema.NewRow(), make([]byte, 10)
	b := &replication.Batch{From: 1, Epoch: epoch, Entries: make([]replication.Entry, n)}
	for i := range b.Entries {
		vals.Read(val)
		schema.SetBytes(row, 1, val)
		b.Entries[i] = replication.Entry{
			Part: part, Key: storage.K1(part*rowsPerPart + uint64(keys.Intn(rowsPerPart))),
			TID: storage.MakeTID(epoch, uint64(5000+i)),
			Ops: []storage.FieldOp{storage.SetFieldOp(schema, row, 1)},
		}
	}
	return b
}

// TestEnvelopeByteBudget pins what an entry costs on the wire, so a codec
// edit that fattens it fails here and not in the next benchmark run.
func TestEnvelopeByteBudget(t *testing.T) {
	// The partitioned phase's unit: flags 1, key 3 (a delta from the row
	// before: 4 as two uvarints), TID 1, argument 11 (the 10-byte value
	// behind its length; the op count and head are the entry before's),
	// with table, partition and the op's head paid once and the envelope
	// header spread over 128 entries.
	ycsb := ycsbOpEnvelope(128)
	got := float64(replication.BatchLen(ycsb)) / 128
	if got > 16 {
		t.Errorf("YCSB operation envelope costs %.2f B/entry, budget 16", got)
	}
	t.Logf("YCSB operation envelope: %.2f B/entry", got)

	// A value entry after the first costs its row plus at most 10 bytes:
	// a YCSB row (120 B of random text: it does not pack) and a TPC-C
	// stock row (110 B, two-part key) before packing, each following the
	// transaction before's entry for another record of its table and
	// partition. The YCSB entry to the byte: flags 1, key delta 3, TID 1,
	// length 1, row 120.
	rng := rand.New(rand.NewSource(2))
	for _, c := range []struct {
		name      string
		prev, key storage.Key
		row       []byte
		want      int
	}{
		{"ycsb", storage.K1(123456), storage.K1(654321), sparseRow(rng, 120, 8), 126},
		{"stock", storage.K2(7, 12345), storage.K2(7, 99999), make([]byte, 110), 0},
	} {
		var s replication.EntryCoder
		s.Reset(12)
		first := replication.Entry{Table: 4, Part: 7, Key: c.prev, TID: storage.MakeTID(12, 900), Row: c.row}
		s.Next(&first)
		next := first
		next.Key, next.TID = c.key, storage.MakeTID(12, 901)
		header, payload, raw := s.Next(&next)
		if over := header + raw - len(c.row); over > 10 {
			t.Errorf("%s value entry costs %d bytes over its %d-byte row, budget 10", c.name, over, len(c.row))
		}
		if c.want != 0 && header+payload != c.want {
			t.Errorf("%s value entry costs %d bytes, pinned at %d", c.name, header+payload, c.want)
		}
	}

	// The worst header — explicit table and a 5-byte partition, a raw key,
	// a 10-byte TID delta — is MaxEntryHeaderLen = 33 bytes, against the
	// 27–31 every entry paid when all of it was fixed-width.
	worst := replication.Entry{Table: 255, Part: -1, Key: storage.Key{Hi: ^uint64(0), Lo: ^uint64(0)}, TID: 1 << 63}
	var s replication.EntryCoder
	if header, _, _ := s.Next(&worst); header != replication.MaxEntryHeaderLen || replication.MaxEntryHeaderLen != 33 {
		t.Errorf("worst-case header is %d bytes, MaxEntryHeaderLen %d, stated 33", header, replication.MaxEntryHeaderLen)
	}
	// The smallest entry is MinEntryLen, the bound decoders divide by.
	if header, payload, _ := new(replication.EntryCoder).Next(&replication.Entry{Absent: true}); header+payload != replication.MinEntryLen {
		t.Errorf("smallest entry is %d bytes, MinEntryLen %d", header+payload, replication.MinEntryLen)
	}
}

// lyingBatch is a batch body of about size bytes whose count claims as
// many entries as the count guard lets through — one per MinEntryLen
// bytes — with two real entries behind it and then 0xff, which no entry
// starts with.
func lyingBatch(size int) []byte {
	two := replication.AppendBatch(nil, &replication.Batch{Entries: make([]replication.Entry, 2)}) // from, epoch, count 2, entries
	enc := prim.AppendUvarint(two[:2:2], uint64(size/replication.MinEntryLen))
	enc = append(enc, two[3:]...)
	return append(enc, bytes.Repeat([]byte{0xff}, size)...)
}

// TestDecodeBatchBoundsRowExpansion: the most a frame can make the decoder
// allocate for rows is 8× its size — here the worst case itself, 256 KiB
// of all-zero rows of the largest legal width, a mask byte per 8 bytes.
func TestDecodeBatchBoundsRowExpansion(t *testing.T) {
	b := &replication.Batch{Entries: make([]replication.Entry, 32)}
	for i := range b.Entries {
		b.Entries[i] = replication.Entry{Key: storage.K1(uint64(i)), Row: make([]byte, storage.MaxRowSize)}
	}
	enc := replication.AppendBatch(nil, b)
	if len(enc) < 256<<10 || len(enc) > 260<<10 {
		t.Fatalf("worst-case frame is %d bytes, want about 256 KiB", len(enc))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := replication.DecodeBatch(enc)
	runtime.ReadMemStats(&after)
	if err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("worst-case frame: err %v", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(8*len(enc)+256<<10) {
		t.Fatalf("a %d-byte frame made the decoder allocate %d bytes, bound 8× + 256 KiB", len(enc), alloc)
	}
}

// TestDecodeBatchBoundsOpExpansion: the most FieldOps a frame can make
// the decoder allocate is 4 per 6 bytes (it was 1 per 3 while every op
// sent its head, 4 per 7 while every entry sent a TID) — here the worst
// case itself, a run of entries of four ops that each repeat the heads
// before them, behind a 1-byte key delta and the TID before them, their
// arguments a byte each — and the decoder allocates little more than those
// ops and its entries.
func TestDecodeBatchBoundsOpExpansion(t *testing.T) {
	b := &replication.Batch{Entries: make([]replication.Entry, 8192)}
	for i := range b.Entries {
		ops := make([]storage.FieldOp, 4)
		for j := range ops {
			ops[j] = storage.AddInt64Op(j, int64(i%8))
		}
		b.Entries[i] = replication.Entry{Key: storage.K1(uint64(i)), Ops: ops}
	}
	enc := replication.AppendBatch(nil, b)
	ops := 4 * len(b.Entries)
	if 6*ops > 4*len(enc) || 6*ops < 4*(len(enc)-16) {
		t.Fatalf("%d ops in a %d-byte frame, want 4 per 6 bytes", ops, len(enc))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	got, err := replication.DecodeBatch(enc)
	runtime.ReadMemStats(&after)
	if err != nil || !reflect.DeepEqual(got, b) {
		t.Fatalf("worst-case frame: err %v", err)
	}
	// The entries grow by doubling past the up-front slice: under 4× theirs.
	bound := uintptr(ops)*unsafe.Sizeof(storage.FieldOp{}) + uintptr(4*len(b.Entries))*unsafe.Sizeof(replication.Entry{})
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > uint64(bound) {
		t.Fatalf("a %d-byte frame of %d ops made the decoder allocate %d bytes, bound %d", len(enc), ops, alloc, bound)
	}
}

// TestDecodeBatchBoundsEntryCount: an entry count the buffer cannot hold
// at MinEntryLen bytes each is rejected before anything is allocated from
// it, and one it could hold buys a flush's worth of entries up front, not
// twenty times the frame.
func TestDecodeBatchBoundsEntryCount(t *testing.T) {
	b := &replication.Batch{Entries: make([]replication.Entry, 3)} // three minimum-length entries
	for i := range b.Entries {
		b.Entries[i].Absent = true
	}
	enc := replication.AppendBatch(nil, b)
	if _, err := replication.DecodeBatch(enc); err != nil || len(enc) != 3+3*replication.MinEntryLen {
		t.Fatalf("densest legal batch: %d bytes, err %v", len(enc), err)
	}
	enc[2] = 4 // claim one more entry than 9 bytes can hold
	if _, err := replication.DecodeBatch(enc); !errors.Is(err, prim.ErrCorrupt) {
		t.Fatalf("entry count past the buffer: %v, want ErrCorrupt from the count guard", err)
	}

	// A 1 MiB frame claiming 262 144 entries (22 MiB of Entry structs)
	// with two behind the claim.
	lying := lyingBatch(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := replication.DecodeBatch(lying)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, prim.ErrCorrupt) && !errors.Is(err, prim.ErrTruncated) {
		t.Fatalf("lying entry count: %v, want a wire error from the scan", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
		t.Fatalf("a 1 MiB frame with a lying entry count allocated %d bytes before the scan refused it", alloc)
	}

	// An honest envelope past the up-front slice (1024 entries) still
	// decodes whole.
	big := &replication.Batch{From: 1, Epoch: 3, Entries: make([]replication.Entry, 5*1024+7)}
	for i := range big.Entries {
		big.Entries[i] = replication.Entry{Key: storage.K1(uint64(i)), TID: storage.MakeTID(3, uint64(i+1)), Row: []byte("r")}
	}
	got, err := replication.DecodeBatch(AppendBatch(nil, big))
	if err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("%d-entry envelope: err %v, %d entries back", len(big.Entries), err, len(got.Entries))
	}
}
