package wire

import (
	"fmt"

	"star/internal/replication"
	"star/internal/storage"
)

// Entry encoding:
//
//	[flags u8] bit0 = operation entry, bit1 = absent (tombstone)
//	[table u8][part uvarint][key 16B][tid u64]
//	value entry: [row bytes]
//	op entry:    [nops uvarint] nops × [field u8][kind u8][arg bytes]
const (
	entryFlagOp     = 1 << 0
	entryFlagAbsent = 1 << 1
)

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

// AppendEntry appends one replication entry.
func AppendEntry(b []byte, e *replication.Entry) []byte {
	var flags byte
	if e.IsOp() {
		flags |= entryFlagOp
	}
	if e.Absent {
		flags |= entryFlagAbsent
	}
	b = append(b, flags, byte(e.Table))
	b = AppendUvarint(b, uint64(uint32(e.Part)))
	b = AppendKey(b, e.Key)
	b = AppendU64(b, e.TID)
	if e.IsOp() {
		b = AppendUvarint(b, uint64(len(e.Ops)))
		for i := range e.Ops {
			b = AppendFieldOp(b, &e.Ops[i])
		}
		return b
	}
	return AppendBytes(b, e.Row)
}

// entryHeaderLen is the encoded size of everything in front of an entry's
// payload: flags, table, partition, key and TID.
func entryHeaderLen(part int32) int {
	return 2 + UvarintLen(uint64(uint32(part))) + KeyLen + 8
}

// EntryLen returns the encoded size of e.
func EntryLen(e *replication.Entry) int {
	if !e.IsOp() {
		return ValueEntryLen(e.Part, len(e.Row))
	}
	n := entryHeaderLen(e.Part) + UvarintLen(uint64(len(e.Ops)))
	for i := range e.Ops {
		n += 2 + BytesLen(e.Ops[i].Arg)
	}
	return n
}

// ValueEntryLen returns the encoded size of a value entry carrying a
// rowSize-byte row for partition part — what an operation entry on that
// table would have cost shipped as the whole record (rows are fixed-size
// per schema).
func ValueEntryLen(part int32, rowSize int) int {
	return entryHeaderLen(part) + UvarintLen(uint64(rowSize)) + rowSize
}

// DecodeEntry consumes one entry. Row and op args alias b.
func DecodeEntry(b []byte) (replication.Entry, []byte, error) {
	e, nops, b, err := scanEntry(b)
	if err == nil && e.IsOp() {
		fillOps(&e, make([]storage.FieldOp, nops))
	}
	return e, b, err
}

// noOps marks an operation entry whose ops scanEntry left encoded (IsOp
// distinguishes op entries by Ops != nil).
var noOps = []storage.FieldOp{}

// scanEntry consumes one entry and validates all of it, but leaves an
// operation entry's ops encoded: e.Ops is noOps, e.Row holds the encoded
// ops (count included) for fillOps, and nops is how many there are. That
// split lets DecodeBatch learn the batch's total op count in the one pass
// that decodes everything else, and then carve every entry's Ops from a
// single allocation. A value entry comes back complete.
func scanEntry(b []byte) (e replication.Entry, nops int, rest []byte, err error) {
	if len(b) < 2 {
		return e, 0, nil, ErrTruncated
	}
	flags := b[0]
	if flags&^(entryFlagOp|entryFlagAbsent) != 0 {
		return e, 0, nil, fmt.Errorf("%w: entry flags %#x", ErrCorrupt, flags)
	}
	e.Absent = flags&entryFlagAbsent != 0
	e.Table = storage.TableID(b[1])
	part, b, err := Uvarint(b[2:])
	if err != nil {
		return e, 0, nil, err
	}
	e.Part = int32(uint32(part))
	if e.Key, b, err = Key(b); err != nil {
		return e, 0, nil, err
	}
	if e.TID, b, err = U64(b); err != nil {
		return e, 0, nil, err
	}
	if flags&entryFlagOp == 0 {
		if e.Row, b, err = Bytes(b); err != nil {
			return e, 0, nil, err
		}
		return e, 0, b, nil
	}
	n, body, err := Uvarint(b)
	if err != nil {
		return e, 0, nil, err
	}
	// Each op costs at least 3 bytes, so the count is bounded by the
	// buffer — reject early instead of allocating from a corrupt count.
	if n > uint64(len(body))/3+1 {
		return e, 0, nil, fmt.Errorf("%w: %d ops in %d-byte buffer", ErrCorrupt, n, len(body))
	}
	for i := uint64(0); i < n; i++ {
		if _, body, err = DecodeFieldOp(body); err != nil {
			return e, 0, nil, err
		}
	}
	e.Ops = noOps
	e.Row = b[:len(b)-len(body)]
	return e, int(n), body, nil
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

// Batch encoding: [from uvarint][epoch uvarint][n uvarint] n × entry.

// AppendBatch appends a replication batch body.
func AppendBatch(b []byte, batch *replication.Batch) []byte {
	b = AppendUvarint(b, uint64(batch.From))
	b = AppendUvarint(b, batch.Epoch)
	b = AppendUvarint(b, uint64(len(batch.Entries)))
	for i := range batch.Entries {
		b = AppendEntry(b, &batch.Entries[i])
	}
	return b
}

// BatchLen returns the encoded size of a batch body.
func BatchLen(batch *replication.Batch) int {
	n := UvarintLen(uint64(batch.From)) + UvarintLen(batch.Epoch) +
		UvarintLen(uint64(len(batch.Entries)))
	for i := range batch.Entries {
		n += EntryLen(&batch.Entries[i])
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
	// Entries cost ≥ 27 bytes each; bound the allocation by the buffer.
	if n > uint64(len(b))/27+1 {
		return nil, fmt.Errorf("%w: %d entries in %d-byte buffer", ErrCorrupt, n, len(b))
	}
	batch := &replication.Batch{From: int(from), Epoch: epoch,
		Entries: make([]replication.Entry, n)}
	nops := 0
	for i := range batch.Entries {
		var k int
		if batch.Entries[i], k, b, err = scanEntry(b); err != nil {
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
	for i := range batch.Entries {
		if e := &batch.Entries[i]; e.IsOp() {
			pool = fillOps(e, pool)
		}
	}
	return batch, nil
}
