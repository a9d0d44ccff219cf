// Package prim holds the primitives every binary encoding here is spelled
// in — varint and fixed-width integers, length-prefixed byte strings,
// storage keys, field operations — with the two decode errors and the
// size of a frame's header. Package wire builds messages and frames from
// them, package replication its envelope; the rules they follow are
// wire's (see its package comment).
package prim

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"

	"star/internal/storage"
)

// Decode errors. Decoders wrap these with context; use errors.Is.
var (
	// ErrTruncated means the buffer ended before the value did.
	ErrTruncated = errors.New("wire: truncated input")
	// ErrCorrupt means a structurally invalid encoding (overlong varint,
	// unknown type id, length exceeding the frame).
	ErrCorrupt = errors.New("wire: corrupt input")
)

// FrameOverhead is what a frame adds to its message's body: length
// prefix, class, src, dst and message id (the layout is in
// wire/frame.go). A message's Size() is this plus its body.
const FrameOverhead = 4 + 1 + 2 + 2 + 1

// ---- varint primitives ----

// AppendUvarint appends v in LEB128 (1–10 bytes).
func AppendUvarint(b []byte, v uint64) []byte {
	if v < 0x80 {
		return append(b, byte(v))
	}
	return binary.AppendUvarint(b, v)
}

// Uvarint consumes a uvarint from b, returning the value and the rest.
// Most encoded integers are lengths, counts and small deltas, so the
// one-byte case is decided ahead of the general loop.
func Uvarint(b []byte) (uint64, []byte, error) {
	if len(b) > 0 && b[0] < 0x80 {
		return uint64(b[0]), b[1:], nil
	}
	v, n := binary.Uvarint(b)
	if n <= 0 {
		if n == 0 {
			return 0, nil, ErrTruncated
		}
		return 0, nil, ErrCorrupt
	}
	return v, b[n:], nil
}

// UvarintLen returns the encoded size of v.
func UvarintLen(v uint64) int { return (bits.Len64(v|1) + 6) / 7 }

// AppendVarint appends v zig-zag encoded.
func AppendVarint(b []byte, v int64) []byte {
	return AppendUvarint(b, uint64(v)<<1^uint64(v>>63))
}

// Varint consumes a zig-zag varint from b.
func Varint(b []byte) (int64, []byte, error) {
	u, rest, err := Uvarint(b)
	return int64(u>>1) ^ -int64(u&1), rest, err
}

// VarintLen returns the encoded size of v.
func VarintLen(v int64) int {
	return UvarintLen(uint64(v)<<1 ^ uint64(v>>63))
}

// ---- fixed-width primitives ----

// AppendU64 appends v as 8 little-endian bytes (used for standalone
// TIDs, whose epoch-in-high-bits layout defeats varint compression; a
// replication entry's TID is a delta from its predecessor's instead).
func AppendU64(b []byte, v uint64) []byte {
	return binary.LittleEndian.AppendUint64(b, v)
}

// U64 consumes 8 little-endian bytes.
func U64(b []byte) (uint64, []byte, error) {
	if len(b) < 8 {
		return 0, nil, ErrTruncated
	}
	return binary.LittleEndian.Uint64(b), b[8:], nil
}

// ---- length-prefixed byte strings ----

// AppendBytes appends p prefixed with its uvarint length.
func AppendBytes(b, p []byte) []byte {
	b = AppendUvarint(b, uint64(len(p)))
	return append(b, p...)
}

// Bytes consumes a length-prefixed byte string. The returned slice
// aliases b (arena-style: no copy); callers that retain it past the
// frame buffer's lifetime must copy. An empty string decodes to nil, so
// encode(decode(x)) is the identity on canonical values.
func Bytes(b []byte) ([]byte, []byte, error) {
	n, rest, err := Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(rest)) {
		return nil, nil, fmt.Errorf("%w: byte string of %d in %d-byte buffer", ErrTruncated, n, len(rest))
	}
	if n == 0 {
		return nil, rest, nil
	}
	return rest[:n:n], rest[n:], nil
}

// BytesLen returns the encoded size of a length-prefixed byte string.
func BytesLen(p []byte) int {
	return UvarintLen(uint64(len(p))) + len(p)
}

// ---- storage keys ----

// KeyLen is the encoded size of a storage.Key (fixed width).
const KeyLen = storage.KeySize

// AppendKey appends k as 16 little-endian bytes.
func AppendKey(b []byte, k storage.Key) []byte {
	b = binary.LittleEndian.AppendUint64(b, k.Hi)
	return binary.LittleEndian.AppendUint64(b, k.Lo)
}

// Key consumes a 16-byte key.
func Key(b []byte) (storage.Key, []byte, error) {
	if len(b) < KeyLen {
		return storage.Key{}, nil, ErrTruncated
	}
	return storage.Key{
		Hi: binary.LittleEndian.Uint64(b),
		Lo: binary.LittleEndian.Uint64(b[8:]),
	}, b[KeyLen:], nil
}

// ---- field operations ----

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

// ---- bool ----

// AppendBool appends a single 0/1 byte.
func AppendBool(b []byte, v bool) []byte {
	if v {
		return append(b, 1)
	}
	return append(b, 0)
}

// Bool consumes a 0/1 byte; any other value is corrupt.
func Bool(b []byte) (bool, []byte, error) {
	if len(b) < 1 {
		return false, nil, ErrTruncated
	}
	switch b[0] {
	case 0:
		return false, b[1:], nil
	case 1:
		return true, b[1:], nil
	}
	return false, nil, fmt.Errorf("%w: bool byte %#x", ErrCorrupt, b[0])
}
