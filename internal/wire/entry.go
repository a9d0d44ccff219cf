package wire

import (
	"fmt"

	"star/internal/replication"
	"star/internal/storage"
)

// Replication envelope format.
//
// An envelope (replication.Batch) comes from one worker and one epoch,
// nearly always for one partition and a run of one table, so an entry is
// coded against the entry before it, in arrival order — nothing is
// sorted, operation entries stay FIFO per record — and what repeats is
// not sent again:
//
//	batch:  [from uvarint][epoch uvarint][n uvarint] n × entry
//	entry:  [flags u8]
//	        [table u8][part uvarint]    unless flagSamePart
//	        [key.Hi uvarint][key.Lo uvarint]
//	                                    or, with flagRawKey, 16 raw bytes
//	        [tid delta zig-zag varint]  TID − previous TID, wrapping
//	        value entry: [row len uvarint][row bytes]
//	        op entry:    [nops uvarint] nops × [field u8][kind u8][arg len uvarint][arg]
//
// "Previous" for the first entry of a batch is table 0, partition 0 and
// TID Epoch<<34 (the epoch's first possible TID; 0 for an ad-hoc stream
// with Epoch 0). Entries of one transaction share a TID and pay 1 byte
// for it, the next transaction's pay 1–2; TIDs may step backwards
// (several single-master workers interleave on one link), hence zig-zag.
// A standalone entry (AppendEntry/DecodeEntry) is the first entry of an
// envelope with Epoch 0: there is one entry routine.
//
// Flag bits (the rest must be zero):
//
//	bit 0  flagOp        operation entry: field ops follow, not a row
//	bit 1  flagAbsent    tombstone (a value entry whose row is empty)
//	bit 2  flagSamePart  table and partition are the previous entry's
//	bit 3  flagRawKey    key is 16 little-endian bytes: its halves as
//	                     uvarints would be longer (TPC-C history keys set
//	                     bit 62), so a key never costs more than 16
//
// Sizes: a YCSB operation entry after the first is flags 1 + key 4 +
// TID 1 + nops 1 + op 15 = 22 bytes (43 when every entry carried table,
// partition, a 16-byte key and an 8-byte TID); the header alone is
// between MinEntryLen−1 and MaxEntryHeaderLen bytes.
const (
	flagOp       = 1 << 0
	flagAbsent   = 1 << 1
	flagSamePart = 1 << 2
	flagRawKey   = 1 << 3
	flagsKnown   = flagOp | flagAbsent | flagSamePart | flagRawKey

	// MinEntryLen is the smallest encoded entry: flags, two 1-byte key
	// halves, a 1-byte TID delta and a 1-byte empty payload (row length
	// or op count 0). Decoders bound entry counts by it before they
	// allocate from an untrusted count.
	MinEntryLen = 5

	// upfrontEntries is how many entries DecodeBatch allocates on the
	// strength of the count alone: eight default flushes
	// (core.DefaultFlushEntries), 88 KiB of Entry structs.
	upfrontEntries = 1024

	// MaxEntryHeaderLen is the largest encoded entry header — everything
	// in front of the payload: flags 1, table 1, partition 5 (uvarint of
	// a uint32), raw key 16, TID delta 10.
	MaxEntryHeaderLen = 1 + 1 + 5 + KeyLen + 10
)

// entryPrev is what the next entry is coded against: the table, partition
// and TID of the entry before it, or the envelope's for the first.
type entryPrev struct {
	table storage.TableID
	part  int32
	tid   uint64
}

// batchPrev returns the context of the first entry of an envelope
// stamped with epoch.
func batchPrev(epoch uint64) entryPrev {
	return entryPrev{tid: storage.MakeTID(epoch, 0)}
}

// rawKey reports whether k's halves as uvarints would outgrow its 16 raw
// bytes.
func rawKey(k storage.Key) bool {
	return UvarintLen(k.Hi)+UvarintLen(k.Lo) > KeyLen
}

// AppendFieldOp appends one field operation: [field u8][kind u8][arg].
func AppendFieldOp(b []byte, op *storage.FieldOp) []byte {
	b = append(b, op.Field, byte(op.Kind))
	return AppendBytes(b, op.Arg)
}

// FieldOpLen returns the encoded size of op.
func FieldOpLen(op *storage.FieldOp) int { return 2 + BytesLen(op.Arg) }

// DecodeFieldOp consumes one field operation. Arg aliases b.
func DecodeFieldOp(b []byte) (storage.FieldOp, []byte, error) {
	var op storage.FieldOp
	if len(b) < 2 {
		return op, nil, ErrTruncated
	}
	op.Field = b[0]
	op.Kind = storage.OpKind(b[1])
	if op.Kind > storage.OpSetRow {
		return op, nil, fmt.Errorf("%w: op kind %d", ErrCorrupt, op.Kind)
	}
	var err error
	if op.Arg, b, err = Bytes(b[2:]); err != nil {
		return op, nil, err
	}
	return op, b, nil
}

// appendEntry appends e coded against prev and advances prev to e. It is
// the one entry encoder: batches thread prev through their entries, a
// standalone entry starts from the zero context.
func appendEntry(b []byte, prev *entryPrev, e *replication.Entry) []byte {
	var flags byte
	if e.IsOp() {
		flags |= flagOp
	}
	if e.Absent {
		flags |= flagAbsent
	}
	same := e.Table == prev.table && e.Part == prev.part
	if same {
		flags |= flagSamePart
	}
	raw := rawKey(e.Key)
	if raw {
		flags |= flagRawKey
	}
	b = append(b, flags)
	if !same {
		b = append(b, byte(e.Table))
		b = AppendUvarint(b, uint64(uint32(e.Part)))
		prev.table, prev.part = e.Table, e.Part
	}
	if raw {
		b = AppendKey(b, e.Key)
	} else {
		b = AppendUvarint(b, e.Key.Hi)
		b = AppendUvarint(b, e.Key.Lo)
	}
	b = AppendVarint(b, int64(e.TID-prev.tid))
	prev.tid = e.TID
	if e.IsOp() {
		b = AppendUvarint(b, uint64(len(e.Ops)))
		for i := range e.Ops {
			b = AppendFieldOp(b, &e.Ops[i])
		}
		return b
	}
	return AppendBytes(b, e.Row)
}

// AppendEntry appends one standalone replication entry.
func AppendEntry(b []byte, e *replication.Entry) []byte {
	var prev entryPrev
	return appendEntry(b, &prev, e)
}

// EntrySizer measures entries as an envelope encodes them: each against
// the one before. The zero value measures a standalone entry or the
// first entry of an Epoch-0 envelope.
type EntrySizer struct{ prev entryPrev }

// Reset starts a new envelope stamped with epoch.
func (s *EntrySizer) Reset(epoch uint64) { s.prev = batchPrev(epoch) }

// Next returns the encoded size of e as the envelope's next entry, split
// into its header (flags, table, partition, key, TID) and its payload
// (row or ops, length prefix included). The split lets a caller price
// the same entry with another payload — an operation entry as the whole
// row it stands for is header + BytesLen of a row.
func (s *EntrySizer) Next(e *replication.Entry) (header, payload int) {
	header = 1 + VarintLen(int64(e.TID-s.prev.tid))
	s.prev.tid = e.TID
	if e.Table != s.prev.table || e.Part != s.prev.part {
		header += 1 + UvarintLen(uint64(uint32(e.Part)))
		s.prev.table, s.prev.part = e.Table, e.Part
	}
	if rawKey(e.Key) {
		header += KeyLen
	} else {
		header += UvarintLen(e.Key.Hi) + UvarintLen(e.Key.Lo)
	}
	if !e.IsOp() {
		return header, BytesLen(e.Row)
	}
	payload = UvarintLen(uint64(len(e.Ops)))
	for i := range e.Ops {
		payload += FieldOpLen(&e.Ops[i])
	}
	return header, payload
}

// EntryLen returns the encoded size of e as a standalone entry.
func EntryLen(e *replication.Entry) int {
	var s EntrySizer
	header, payload := s.Next(e)
	return header + payload
}

// DecodeEntry consumes one standalone entry. Row and op args alias b.
func DecodeEntry(b []byte) (replication.Entry, []byte, error) {
	var (
		e    replication.Entry
		prev entryPrev
	)
	nops, b, err := scanEntry(b, &prev, &e)
	if err == nil && e.IsOp() {
		fillOps(&e, make([]storage.FieldOp, nops))
	}
	return e, b, err
}

// noOps marks an operation entry whose ops scanEntry left encoded (IsOp
// distinguishes op entries by Ops != nil).
var noOps = []storage.FieldOp{}

// scanEntry is the one entry decoder: it consumes one entry coded against
// prev into the zero *e, advances prev, and validates all of it, but
// leaves an operation entry's ops encoded: e.Ops is noOps, e.Row holds
// the encoded ops (count included) for fillOps, and nops is how many
// there are. That split lets DecodeBatch learn the batch's total op count
// in the one pass that decodes everything else, and then carve every
// entry's Ops from a single allocation. A value entry comes back complete.
func scanEntry(b []byte, prev *entryPrev, e *replication.Entry) (nops int, rest []byte, err error) {
	if len(b) < MinEntryLen {
		return 0, nil, ErrTruncated
	}
	flags := b[0]
	if flags&^flagsKnown != 0 {
		return 0, nil, fmt.Errorf("%w: entry flags %#x", ErrCorrupt, flags)
	}
	b = b[1:]
	if flags&flagSamePart == 0 {
		prev.table = storage.TableID(b[0])
		var part uint64
		if part, b, err = Uvarint(b[1:]); err != nil {
			return 0, nil, err
		}
		prev.part = int32(uint32(part))
	}
	e.Absent = flags&flagAbsent != 0
	e.Table, e.Part = prev.table, prev.part
	if flags&flagRawKey != 0 {
		e.Key, b, err = Key(b)
	} else if e.Key.Hi, b, err = Uvarint(b); err == nil {
		e.Key.Lo, b, err = Uvarint(b)
	}
	if err != nil {
		return 0, nil, err
	}
	delta, b, err := Varint(b)
	if err != nil {
		return 0, nil, err
	}
	prev.tid += uint64(delta)
	e.TID = prev.tid
	if flags&flagOp == 0 {
		if e.Row, b, err = Bytes(b); err != nil {
			return 0, nil, err
		}
		return 0, b, nil
	}
	n, body, err := Uvarint(b)
	if err != nil {
		return 0, nil, err
	}
	// Each op costs at least 3 bytes, so the count is bounded by the
	// buffer — reject early instead of allocating from a corrupt count.
	if n > uint64(len(body))/3 {
		return 0, nil, fmt.Errorf("%w: %d ops in %d-byte buffer", ErrCorrupt, n, len(body))
	}
	for i := uint64(0); i < n; i++ {
		if _, body, err = DecodeFieldOp(body); err != nil {
			return 0, nil, err
		}
	}
	e.Ops = noOps
	e.Row = b[:len(b)-len(body)]
	return int(n), body, nil
}

// fillOps materialises the ops scanEntry left encoded in e.Row, carving
// e.Ops off the front of pool — which must be non-nil, so that a zero-op
// entry still reads as an operation entry, and hold at least the entry's
// op count — and returns the rest. The encoding was validated by the scan.
func fillOps(e *replication.Entry, pool []storage.FieldOp) []storage.FieldOp {
	n, body, _ := Uvarint(e.Row)
	e.Row = nil
	e.Ops, pool = pool[:n:n], pool[n:]
	for i := range e.Ops {
		e.Ops[i], body, _ = DecodeFieldOp(body)
	}
	return pool
}

// AppendBatch appends a replication batch body.
func AppendBatch(b []byte, batch *replication.Batch) []byte {
	b = AppendUvarint(b, uint64(batch.From))
	b = AppendUvarint(b, batch.Epoch)
	b = AppendUvarint(b, uint64(len(batch.Entries)))
	prev := batchPrev(batch.Epoch)
	for i := range batch.Entries {
		b = appendEntry(b, &prev, &batch.Entries[i])
	}
	return b
}

// BatchLen returns the encoded size of a batch body.
func BatchLen(batch *replication.Batch) int {
	n := UvarintLen(uint64(batch.From)) + UvarintLen(batch.Epoch) +
		UvarintLen(uint64(len(batch.Entries)))
	var s EntrySizer
	s.Reset(batch.Epoch)
	for i := range batch.Entries {
		header, payload := s.Next(&batch.Entries[i])
		n += header + payload
	}
	return n
}

// DecodeBatch decodes a whole batch body. Entry payloads alias b.
func DecodeBatch(b []byte) (*replication.Batch, error) {
	from, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	epoch, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	n, b, err := Uvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b))/MinEntryLen {
		return nil, fmt.Errorf("%w: %d entries in %d-byte buffer", ErrCorrupt, n, len(b))
	}
	// A count the buffer could hold is still only a claim, and an Entry
	// in memory is 88 bytes to the 5 of the smallest encoding: allocate
	// a few flushes' worth up front — an envelope as the engine sends
	// them costs one allocation — and past that only as entries scan,
	// doubling, so the memory stays in proportion to bytes that decoded.
	entries := make([]replication.Entry, min(n, upfrontEntries))
	prev := batchPrev(epoch)
	nops := 0
	for i := 0; i < int(n); i++ {
		if i == len(entries) {
			entries = append(entries, make([]replication.Entry, min(i, int(n)-i))...)
		}
		var k int
		if k, b, err = scanEntry(b, &prev, &entries[i]); err != nil {
			return nil, err
		}
		nops += k
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", ErrCorrupt, len(b))
	}
	// One allocation holds every operation entry's Ops — the mirror of
	// the send side's per-destination ops arena — so decoding costs the
	// receiving node a constant number of allocations per envelope, not
	// one per operation entry (none at all for a batch without ops).
	pool := make([]storage.FieldOp, nops)
	for i := range entries {
		if e := &entries[i]; e.IsOp() {
			pool = fillOps(e, pool)
		}
	}
	return &replication.Batch{From: int(from), Epoch: epoch, Entries: entries}, nil
}
