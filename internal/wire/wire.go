// Package wire is the hand-rolled binary encoding for everything the
// cluster sends over a real transport: varint integer primitives, the
// field walker that describes each fixed-layout message once (Fields:
// one walk encodes, decodes and sizes it), length-prefixed frames, the
// context-coded replication envelope, the request header, and a registry
// that maps message and procedure type ids to their codecs.
//
// Design rules:
//
//   - Append-style encoders: every encoder appends to a caller-supplied
//     buffer and returns it, so a sender can build a frame with one
//     amortised allocation.
//   - Arena-friendly decoders: decoded byte payloads (field op arguments,
//     row images bar the zero-packed) alias the input buffer instead of
//     copying. A frame's buffer must therefore outlive the decoded
//     message — tcpnet reads each frame into its own buffer and lets the
//     GC collect it with the message.
//   - Decoders never panic on malformed input: every length is checked
//     against the remaining buffer and errors propagate up, so a corrupt
//     or truncated frame is rejected, not a crash.
package wire

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
