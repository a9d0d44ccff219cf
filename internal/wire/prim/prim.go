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

// A field op is [field u8][kind u8][arg]; the kind byte's top two bits
// name the argument's form. Raw (0) is [len uvarint][bytes]; an 8-byte
// argument — an integer or float, mostly small — goes in the shortest of
// raw, argVarint (zig-zag varint of its little-endian int64) and
// argReversed (uvarint of it byte-reversed: 5.0 takes 2 bytes). Both bits
// set is corrupt; any form decodes, shortest or not.
const argVarint, argReversed = 1 << 6, 2 << 6

// argForm returns op's argument (an 8-byte one written into *w), its
// form, the uvarint a short form sends, and its encoded size.
func argForm(op *storage.FieldOp, w *[8]byte) (arg []byte, form byte, v uint64, n int) {
	if arg = op.Argument(w); len(arg) != 8 {
		return arg, 0, 0, BytesLen(arg)
	}
	u, n := binary.LittleEndian.Uint64(arg), 9
	if z := u<<1 ^ uint64(int64(u)>>63); UvarintLen(z) < n {
		form, v, n = argVarint, z, UvarintLen(z)
	}
	if r := bits.ReverseBytes64(u); UvarintLen(r) < n {
		form, v, n = argReversed, r, UvarintLen(r)
	}
	return arg, form, v, n
}

// AppendFieldOp appends one field operation.
func AppendFieldOp(b []byte, op *storage.FieldOp) []byte {
	var w [8]byte
	arg, form, v, _ := argForm(op, &w)
	if b = append(b, op.Field, byte(op.Kind)|form); form == 0 {
		return AppendBytes(b, arg)
	}
	return AppendUvarint(b, v)
}

// FieldOpLen returns the encoded size of op.
func FieldOpLen(op *storage.FieldOp) int { _, _, _, n := argForm(op, new([8]byte)); return 2 + n }

// DecodeFieldOp consumes one field operation. An 8-byte argument, in
// whichever form it came, is held in the op; any other aliases b.
func DecodeFieldOp(b []byte) (op storage.FieldOp, _ []byte, err error) {
	if len(b) < 2 {
		return op, nil, ErrTruncated
	}
	field, kind, form := int(b[0]), storage.OpKind(b[1]&^(argVarint|argReversed)), b[1]&(argVarint|argReversed)
	if kind > storage.OpSetRow || form == argVarint|argReversed {
		return op, nil, fmt.Errorf("%w: op kind byte %#x", ErrCorrupt, b[1])
	}
	if form == 0 {
		arg, b, err := Bytes(b[2:])
		return storage.NewFieldOp(field, kind, arg), b, err
	}
	v, b, err := Uvarint(b[2:])
	if form == argVarint {
		v = uint64(int64(v>>1) ^ -int64(v&1))
	} else {
		v = bits.ReverseBytes64(v)
	}
	return storage.WordOp(field, kind, v), b, err
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
