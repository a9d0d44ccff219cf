package wire

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

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
	flagPacked   = 1 << 4
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
// arbitrary TIDs), small keys, 9-byte halves and raw-escape keys.
func randomEnvelope(rng *rand.Rand) *replication.Batch {
	b := &replication.Batch{From: rng.Intn(8), Epoch: uint64(rng.Intn(3)) * uint64(rng.Intn(1<<20))}
	var (
		table storage.TableID
		part  int32
		tid   = storage.MakeTID(b.Epoch, uint64(rng.Intn(1000)))
	)
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
		switch rng.Intn(4) {
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
		default:
			e.Ops = make([]storage.FieldOp, rng.Intn(4))
			for j := range e.Ops {
				e.Ops[j] = storage.AddInt64Op(rng.Intn(8), rng.Int63n(1000)-500)
			}
		}
		b.Entries[i] = e
	}
	return b
}

// checkEnvelope holds one envelope to the codec's contract: DecodeBatch
// inverts AppendBatch, BatchLen is the encoded length, and an EntrySizer
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
	var s replication.EntrySizer
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

// TestEnvelopePropertyRoundTrip: whatever the mix, the envelope holds to
// checkEnvelope's contract.
func TestEnvelopePropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 500; round++ {
		checkEnvelope(t, fmt.Sprintf("round %d", round), randomEnvelope(rng))
	}
}

// packedEntry is one value entry whose payload is written by hand: an
// Epoch-0 envelope of one entry for table 0, partition 0, key (1,1), TID 0.
func packedEntry(flags byte, payload ...byte) []byte {
	return append([]byte{0, 0, 1, flags | flagSamePart, 1, 1, 0}, payload...)
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
		{"flag bit 5", packedEntry(1<<5, 1, 'r'), prim.ErrCorrupt},
		{"flag bit 6", packedEntry(1<<6, 1, 'r'), prim.ErrCorrupt},
		{"flag bit 7", packedEntry(1<<7, 1, 'r'), prim.ErrCorrupt},
	} {
		if _, err := replication.DecodeBatch(c.enc); !errors.Is(err, c.want) {
			t.Errorf("%s: %v, want %v", c.name, err, c.want)
		}
	}
}

// ycsbOpEnvelope is what one worker ships for one partition in the
// partitioned phase of YCSB: n single-write transactions with consecutive
// TIDs, each a one-column overwrite (12-byte argument) of a random row.
func ycsbOpEnvelope(n int) *replication.Batch {
	const rowsPerPart, part, epoch = 200000, 3, 12
	rng := rand.New(rand.NewSource(1))
	b := &replication.Batch{From: 1, Epoch: epoch, Entries: make([]replication.Entry, n)}
	for i := range b.Entries {
		b.Entries[i] = replication.Entry{
			Part: part, Key: storage.K1(part*rowsPerPart + uint64(rng.Intn(rowsPerPart))),
			TID: storage.MakeTID(epoch, uint64(5000+i)),
			Ops: []storage.FieldOp{{Field: 1, Kind: storage.OpSetField, Arg: make([]byte, 12)}},
		}
	}
	return b
}

// TestEnvelopeByteBudget pins what an entry costs on the wire, so a codec
// edit that fattens it fails here and not in the next benchmark run.
func TestEnvelopeByteBudget(t *testing.T) {
	// The partitioned phase's unit: flags 1, key 4, TID 1, nops 1, op 15,
	// with table and partition paid once and the envelope header spread
	// over 128 entries.
	ycsb := ycsbOpEnvelope(128)
	if got := float64(replication.BatchLen(ycsb)) / 128; got > 24 {
		t.Errorf("YCSB operation envelope costs %.2f B/entry, budget 24", got)
	}

	// A value entry after the first costs its row plus at most 10 bytes:
	// a YCSB row (120 B of random text: it does not pack) and a TPC-C
	// stock row (110 B, two-part key) before packing, each following an
	// entry of the transaction before. The YCSB entry to the byte: flags
	// 1, key 4, TID 1, length 1, row 120.
	rng := rand.New(rand.NewSource(2))
	for _, c := range []struct {
		name string
		key  storage.Key
		row  []byte
		want int
	}{{"ycsb", storage.K1(654321), sparseRow(rng, 120, 8), 127}, {"stock", storage.K2(7, 99999), make([]byte, 110), 0}} {
		var s replication.EntrySizer
		s.Reset(12)
		first := replication.Entry{Table: 4, Part: 7, Key: c.key, TID: storage.MakeTID(12, 900), Row: c.row}
		s.Next(&first)
		next := first
		next.TID = storage.MakeTID(12, 901)
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
	var s replication.EntrySizer
	if header, _, _ := s.Next(&worst); header != replication.MaxEntryHeaderLen || replication.MaxEntryHeaderLen != 33 {
		t.Errorf("worst-case header is %d bytes, MaxEntryHeaderLen %d, stated 33", header, replication.MaxEntryHeaderLen)
	}
	// The smallest entry is MinEntryLen, the bound decoders divide by.
	if header, payload, _ := new(replication.EntrySizer).Next(&replication.Entry{Absent: true}); header+payload != replication.MinEntryLen {
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
	if _, err := replication.DecodeBatch(enc); err != nil {
		t.Fatalf("densest legal batch rejected: %v", err)
	}
	enc[2] = 4 // claim one more entry than 15 bytes can hold
	if _, err := replication.DecodeBatch(enc); !errors.Is(err, prim.ErrCorrupt) {
		t.Fatalf("entry count past the buffer: %v, want ErrCorrupt from the count guard", err)
	}

	// A 1 MiB frame claiming 209 715 entries (18 MiB of Entry structs)
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
