package wire

import (
	"bytes"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"testing"

	"star/internal/replication"
	"star/internal/storage"
)

// historyKey is a key shaped like TPC-C's history keys: bit 62 set in one
// half, so that half alone costs 9 bytes as a uvarint.
func historyKey(hi, lo uint64) storage.Key { return storage.K2(1<<62|hi, lo) }

// randomEnvelope draws a batch that mixes everything the codec has a case
// for: op, value and tombstone entries, runs and changes of table and
// partition, same-transaction, forward and backward TID steps (and, at
// Epoch 0, arbitrary TIDs), small keys, 9-byte halves and raw-escape keys.
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
		case 1, 2:
			e.Row = make([]byte, 1+rng.Intn(300))
			rng.Read(e.Row)
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

// TestEnvelopePropertyRoundTrip: whatever the mix, DecodeBatch inverts
// AppendBatch, BatchLen is the encoded length, and each entry also round
// trips standalone (the first-entry case of the same routine) at EntryLen.
func TestEnvelopePropertyRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for round := 0; round < 500; round++ {
		b := randomEnvelope(rng)
		enc := AppendBatch(nil, b)
		if len(enc) != BatchLen(b) {
			t.Fatalf("round %d: BatchLen=%d encoded=%d", round, BatchLen(b), len(enc))
		}
		got, err := DecodeBatch(enc)
		if err != nil {
			t.Fatalf("round %d: decode: %v", round, err)
		}
		if !reflect.DeepEqual(got, b) {
			t.Fatalf("round %d: round trip changed the batch:\n got %+v\nwant %+v", round, got, b)
		}
		for i := range b.Entries {
			e := &b.Entries[i]
			one := AppendEntry(nil, e)
			if len(one) != EntryLen(e) {
				t.Fatalf("round %d entry %d: EntryLen=%d encoded=%d", round, i, EntryLen(e), len(one))
			}
			back, rest, err := DecodeEntry(one)
			if err != nil || len(rest) != 0 || !reflect.DeepEqual(&back, e) {
				t.Fatalf("round %d entry %d standalone: err=%v rest=%d\n got %+v\nwant %+v", round, i, err, len(rest), back, *e)
			}
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
	if got := float64(BatchLen(ycsb)) / 128; got > 24 {
		t.Errorf("YCSB operation envelope costs %.2f B/entry, budget 24", got)
	}

	// A value entry after the first costs its row plus at most 10 bytes:
	// a YCSB row (120 B) and a TPC-C stock row (110 B, two-part key), each
	// following an entry of the transaction before.
	for _, c := range []struct {
		name string
		key  storage.Key
		row  int
	}{{"ycsb", storage.K1(654321), 120}, {"stock", storage.K2(7, 99999), 110}} {
		var s EntrySizer
		s.Reset(12)
		first := replication.Entry{Table: 4, Part: 7, Key: c.key, TID: storage.MakeTID(12, 900), Row: make([]byte, c.row)}
		s.Next(&first)
		next := first
		next.TID = storage.MakeTID(12, 901)
		header, payload := s.Next(&next)
		if over := header + payload - c.row; over > 10 {
			t.Errorf("%s value entry costs %d bytes over its %d-byte row, budget 10", c.name, over, c.row)
		}
	}

	// The worst header — explicit table and a 5-byte partition, a raw key,
	// a 10-byte TID delta — is MaxEntryHeaderLen = 33 bytes, against the
	// 27–31 every entry paid when all of it was fixed-width.
	worst := replication.Entry{Table: 255, Part: -1, Key: storage.Key{Hi: ^uint64(0), Lo: ^uint64(0)}, TID: 1 << 63}
	var s EntrySizer
	if header, _ := s.Next(&worst); header != MaxEntryHeaderLen || MaxEntryHeaderLen != 33 {
		t.Errorf("worst-case header is %d bytes, MaxEntryHeaderLen %d, stated 33", header, MaxEntryHeaderLen)
	}
	// The smallest entry is MinEntryLen, the bound decoders divide by.
	if got := EntryLen(&replication.Entry{Absent: true}); got != MinEntryLen {
		t.Errorf("smallest entry is %d bytes, MinEntryLen %d", got, MinEntryLen)
	}
}

// lyingBatch is a batch body of about size bytes whose count claims as
// many entries as the count guard lets through — one per MinEntryLen
// bytes — with two real entries behind it and then 0xff, which no entry
// starts with.
func lyingBatch(size int) []byte {
	two := AppendBatch(nil, &replication.Batch{Entries: make([]replication.Entry, 2)}) // from, epoch, count 2, entries
	enc := AppendUvarint(two[:2:2], uint64(size/MinEntryLen))
	enc = append(enc, two[3:]...)
	return append(enc, bytes.Repeat([]byte{0xff}, size)...)
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
	enc := AppendBatch(nil, b)
	if _, err := DecodeBatch(enc); err != nil {
		t.Fatalf("densest legal batch rejected: %v", err)
	}
	enc[2] = 4 // claim one more entry than 15 bytes can hold
	if _, err := DecodeBatch(enc); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("entry count past the buffer: %v, want ErrCorrupt from the count guard", err)
	}

	// A 1 MiB frame claiming 209 715 entries (18 MiB of Entry structs)
	// with two behind the claim.
	lying := lyingBatch(1 << 20)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := DecodeBatch(lying)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrTruncated) {
		t.Fatalf("lying entry count: %v, want a wire error from the scan", err)
	}
	if alloc := after.TotalAlloc - before.TotalAlloc; alloc > 256<<10 {
		t.Fatalf("a 1 MiB frame with a lying entry count allocated %d bytes before the scan refused it", alloc)
	}

	// An honest envelope past the up-front slice still decodes whole.
	big := &replication.Batch{From: 1, Epoch: 3, Entries: make([]replication.Entry, 5*upfrontEntries+7)}
	for i := range big.Entries {
		big.Entries[i] = replication.Entry{Key: storage.K1(uint64(i)), TID: storage.MakeTID(3, uint64(i+1)), Row: []byte("r")}
	}
	got, err := DecodeBatch(AppendBatch(nil, big))
	if err != nil || !reflect.DeepEqual(got, big) {
		t.Fatalf("%d-entry envelope: err %v, %d entries back", len(big.Entries), err, len(got.Entries))
	}
}
