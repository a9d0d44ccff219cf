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

// A field op is a head, [field u8][kind u8], then an argument: the kind
// byte's top two bits name the argument's form. Raw (0) is [len uvarint]
// [bytes]; an 8-byte argument — an integer or float, mostly small — goes
// in the shortest of raw, argVarint (zig-zag varint of its little-endian
// int64) and argReversed (uvarint of it byte-reversed: 5.0 takes 2 bytes).
// Both bits set is corrupt; any form decodes, shortest or not. An envelope
// entry may send arguments alone, so head and argument have a coder each.
const argVarint, argReversed, argForms = 1 << 6, 2 << 6, 3 << 6

// OpHead is a field op's head.
type OpHead [2]byte

// HeadOf returns op's head, naming the shortest form of its argument, and
// the argument's size in that form.
func HeadOf(op *storage.FieldOp) (OpHead, int) {
	var w [8]byte
	h, arg := OpHead{op.Field, byte(op.Kind)}, op.Argument(&w)
	if len(arg) != 8 {
		return h, BytesLen(arg)
	}
	u, n := binary.LittleEndian.Uint64(arg), 9
	if l := VarintLen(int64(u)); l < n {
		h[1], n = byte(op.Kind)|argVarint, l
	}
	if l := UvarintLen(bits.ReverseBytes64(u)); l < n {
		h[1], n = byte(op.Kind)|argReversed, l
	}
	return h, n
}

// AppendOpArg appends op's argument in the form h names.
func AppendOpArg(b []byte, op *storage.FieldOp, h OpHead) []byte {
	var w [8]byte
	switch arg := op.Argument(&w); h[1] & argForms {
	case argVarint:
		return AppendVarint(b, int64(binary.LittleEndian.Uint64(arg)))
	case argReversed:
		return AppendUvarint(b, bits.ReverseBytes64(binary.LittleEndian.Uint64(arg)))
	default:
		return AppendBytes(b, arg)
	}
}

// DecodeOpArg consumes the argument of an op headed h, a head DecodeFieldOp
// accepts: one of 8 bytes, in any form, is held in the op, others alias b.
func DecodeOpArg(b []byte, h OpHead) (storage.FieldOp, []byte, error) {
	field, kind := int(h[0]), storage.OpKind(h[1]&^argForms)
	switch h[1] & argForms {
	case argVarint:
		v, b, err := Varint(b)
		return storage.WordOp(field, kind, uint64(v)), b, err
	case argReversed:
		v, b, err := Uvarint(b)
		return storage.WordOp(field, kind, bits.ReverseBytes64(v)), b, err
	}
	arg, b, err := Bytes(b)
	return storage.NewFieldOp(field, kind, arg), b, err
}

// AppendFieldOp appends one field operation.
func AppendFieldOp(b []byte, op *storage.FieldOp) []byte {
	h, _ := HeadOf(op)
	return AppendOpArg(append(b, h[:]...), op, h)
}

// FieldOpLen returns the encoded size of op.
func FieldOpLen(op *storage.FieldOp) int { _, n := HeadOf(op); return len(OpHead{}) + n }

// DecodeFieldOp consumes one field operation.
func DecodeFieldOp(b []byte) (storage.FieldOp, []byte, error) {
	if len(b) < 2 {
		return storage.FieldOp{}, nil, ErrTruncated
	}
	if storage.OpKind(b[1]&^argForms) > storage.OpSetBytes || b[1]&argForms == argForms {
		return storage.FieldOp{}, nil, fmt.Errorf("%w: op kind byte %#x", ErrCorrupt, b[1])
	}
	return DecodeOpArg(b[2:], OpHead(b))
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
