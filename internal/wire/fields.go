package wire

import (
	"fmt"
	"math"
	"sync"

	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire/prim"
)

// Fields walks a message's fields in wire order. A message type is
// described once, by a func(*Fields, *T) that names each field with the
// method for its encoding; the same walk then encodes the value, decodes
// it, or counts its encoded bytes, depending on the pass the Fields is
// in. What a message's fields are, and in what order, is therefore
// decided in exactly one place: the encoder cannot skew from the
// decoder, nor a size from either.
//
// In the encoding and sizing passes a walk only reads the value. In the
// decoding pass it fills it in; the first error sticks, every later
// field is skipped (slices it would have sized stay empty), and the pass
// reports that error. Decoded byte strings alias the input unless the
// method says otherwise.
//
// The per-write path does not come through here: replication entries
// and envelopes (replication/envelope.go), frames (frame.go) and the
// request header (Codec.AppendRequest) are coded by hand against their
// context, and a walk reaches them through Tail and Request.
type Fields struct {
	pass pass
	b    []byte // encoding: the output so far; decoding: the input left
	n    int    // sizing: bytes counted so far
	err  error  // decoding: the first error
	c    *Codec // encoding and decoding: the registration's (for Request)
}

type pass uint8

const (
	encoding pass = iota
	decoding
	sizing
)

// Decoding reports whether the walk is filling the value in — the pass
// in which a walk allocates what a count it has just read calls for.
func (f *Fields) Decoding() bool { return f.pass == decoding }

// Check rejects a decoded message whose fields disagree with each other
// (parallel slices of different lengths, an enum out of range).
func (f *Fields) Check(ok bool) {
	if f.pass == decoding && f.err == nil && !ok {
		f.err = prim.ErrCorrupt
	}
}

// Uvarint walks an unsigned LEB128 integer.
func (f *Fields) Uvarint(v *uint64) {
	switch f.pass {
	case encoding:
		f.b = prim.AppendUvarint(f.b, *v)
	case sizing:
		f.n += prim.UvarintLen(*v)
	default:
		if f.err == nil {
			*v, f.b, f.err = prim.Uvarint(f.b)
		}
	}
}

// varint walks x zig-zag encoded and returns it, or what was decoded.
func (f *Fields) varint(x int64) int64 {
	switch f.pass {
	case encoding:
		f.b = prim.AppendVarint(f.b, x)
	case sizing:
		f.n += prim.VarintLen(x)
	default:
		if f.err == nil {
			x, f.b, f.err = prim.Varint(f.b)
		}
	}
	return x
}

// I64 walks a zig-zag varint.
func (f *Fields) I64(v *int64) {
	if x := f.varint(*v); f.pass == decoding {
		*v = x
	}
}

// Int walks an int as a zig-zag varint.
func (f *Fields) Int(v *int) {
	if x := f.varint(int64(*v)); f.pass == decoding {
		*v = int(x)
	}
}

// Uint walks a non-negative int as an unsigned varint.
func (f *Fields) Uint(v *int) {
	u := uint64(*v)
	if f.Uvarint(&u); f.pass == decoding {
		*v = int(u)
	}
}

// U8 walks one raw byte: a uint8 or an enumeration over one.
func U8[T ~uint8](f *Fields, v *T) {
	switch f.pass {
	case encoding:
		f.b = append(f.b, byte(*v))
	case sizing:
		f.n++
	default:
		if f.err != nil {
			return
		}
		if len(f.b) < 1 {
			f.err = prim.ErrTruncated
			return
		}
		*v, f.b = T(f.b[0]), f.b[1:]
	}
}

// U64 walks 8 little-endian bytes (a standalone TID, a ticket).
func (f *Fields) U64(v *uint64) {
	switch f.pass {
	case encoding:
		f.b = prim.AppendU64(f.b, *v)
	case sizing:
		f.n += 8
	default:
		if f.err == nil {
			*v, f.b, f.err = prim.U64(f.b)
		}
	}
}

// F64 walks a float as its 8-byte IEEE-754 bit pattern.
func (f *Fields) F64(v *float64) {
	u := math.Float64bits(*v)
	if f.U64(&u); f.pass == decoding {
		*v = math.Float64frombits(u)
	}
}

// Bool walks a single 0/1 byte.
func (f *Fields) Bool(v *bool) {
	switch f.pass {
	case encoding:
		f.b = prim.AppendBool(f.b, *v)
	case sizing:
		f.n++
	default:
		if f.err == nil {
			*v, f.b, f.err = prim.Bool(f.b)
		}
	}
}

// Key walks a storage key as 16 little-endian bytes.
func (f *Fields) Key(v *storage.Key) {
	switch f.pass {
	case encoding:
		f.b = prim.AppendKey(f.b, *v)
	case sizing:
		f.n += prim.KeyLen
	default:
		if f.err == nil {
			*v, f.b, f.err = prim.Key(f.b)
		}
	}
}

// Bytes walks a length-prefixed byte string; decoded, it aliases the
// input (nil when empty).
func (f *Fields) Bytes(v *[]byte) {
	switch f.pass {
	case encoding:
		f.b = prim.AppendBytes(f.b, *v)
	case sizing:
		f.n += prim.BytesLen(*v)
	default:
		if f.err == nil {
			*v, f.b, f.err = prim.Bytes(f.b)
		}
	}
}

// BytesCopy is Bytes for a value that outlives the frame it arrived in:
// decoded, it is a copy.
func (f *Fields) BytesCopy(v *[]byte) {
	if f.Bytes(v); f.pass == decoding && len(*v) > 0 {
		*v = append([]byte(nil), *v...)
	}
}

// String walks a length-prefixed string.
func (f *Fields) String(v *string) {
	switch f.pass {
	case encoding:
		f.b = append(prim.AppendUvarint(f.b, uint64(len(*v))), *v...)
	case sizing:
		f.n += prim.UvarintLen(uint64(len(*v))) + len(*v)
	default:
		var p []byte
		f.Bytes(&p)
		*v = string(p)
	}
}

// Len walks a slice's element count and returns it. Decoding, it checks
// the count against the input left — every element takes at least min
// bytes — before it allocates from it, and sizes *s to it (nil for no
// elements, so decoding what was encoded gives back an equal value); the
// caller then walks the elements: for i := range *s { ... }.
func Len[E any](f *Fields, s *[]E, min int) int {
	switch f.pass {
	case encoding:
		f.b = prim.AppendUvarint(f.b, uint64(len(*s)))
	case sizing:
		f.n += prim.UvarintLen(uint64(len(*s)))
	default:
		*s = nil
		if f.err != nil {
			break
		}
		var n uint64
		if n, f.b, f.err = prim.Uvarint(f.b); f.err != nil {
			break
		}
		// Divide rather than multiply: n*min would overflow for corrupt counts.
		if n > uint64(len(f.b))/uint64(min) {
			f.err = fmt.Errorf("%w: %d elements of %d+ bytes in %d-byte buffer", prim.ErrCorrupt, n, min, len(f.b))
		} else if n > 0 {
			*s = make([]E, n)
		}
	}
	return len(*s)
}

// Ints walks a []int: a count, then one zig-zag varint per element.
func (f *Fields) Ints(v *[]int) {
	Len(f, v, 1)
	for i := range *v {
		f.Int(&(*v)[i])
	}
}

// I64s walks a []int64 like Ints.
func (f *Fields) I64s(v *[]int64) {
	Len(f, v, 1)
	for i := range *v {
		f.I64(&(*v)[i])
	}
}

// I32s walks a []int32 like Ints; an element outside int32 is corrupt.
func (f *Fields) I32s(v *[]int32) {
	Len(f, v, 1)
	for i := range *v {
		x := f.varint(int64((*v)[i]))
		if f.pass == decoding {
			f.Check(x >= math.MinInt32 && x <= math.MaxInt32)
			(*v)[i] = int32(x)
		}
	}
}

// U64s walks a []uint64 as a count and fixed 8-byte values (TID vectors).
func (f *Fields) U64s(v *[]uint64) {
	Len(f, v, 8)
	for i := range *v {
		f.U64(&(*v)[i])
	}
}

// Strings walks a []string of at most max elements.
func (f *Fields) Strings(v *[]string, max int) {
	if f.pass == decoding && f.err == nil {
		// Refuse an oversized count before Len allocates from it (a
		// count that does not parse is Len's to report).
		n, _, _ := prim.Uvarint(f.b)
		f.Check(n <= uint64(max))
	}
	Len(f, v, 1)
	for i := range *v {
		f.String(&(*v)[i])
	}
}

// FieldOp walks one field operation; decoded, an argument not held in the
// op aliases the input.
func (f *Fields) FieldOp(op *storage.FieldOp) {
	switch f.pass {
	case encoding:
		f.b = prim.AppendFieldOp(f.b, op)
	case sizing:
		f.n += prim.FieldOpLen(op)
	default:
		if f.err == nil {
			*op, f.b, f.err = prim.DecodeFieldOp(f.b)
		}
	}
}

// Tail walks *v as a message's last field in a form coded by hand against
// its own context (a replication envelope): app appends it, size counts
// it, and dec decodes it from all the input left.
func Tail[T any](f *Fields, v *T, app func([]byte, T) []byte, size func(T) int, dec func([]byte) (T, error)) {
	switch f.pass {
	case encoding:
		f.b = app(f.b, *v)
	case sizing:
		f.n += size(*v)
	default:
		if f.err == nil {
			*v, f.err = dec(f.b)
			f.b = nil
		}
	}
}

// Request walks a routing request through the request codec of the Codec
// the message is registered with (none is needed to size it).
func (f *Fields) Request(r **txn.Request) {
	switch f.pass {
	case encoding:
		var err error
		if f.b, err = f.c.AppendRequest(f.b, *r); err != nil {
			panic("wire: encode request: " + err.Error())
		}
	case sizing:
		f.n += RequestOverhead(*r) + (*r).Proc.(interface{ WireSize() int }).WireSize()
	default:
		if f.err == nil {
			*r, f.b, f.err = f.c.DecodeRequest(f.b)
		}
	}
}

// ---- running a walk ----

// fieldsPool recycles walkers. A walk is called through a func value, so
// a Fields on the caller's stack would escape; pooled, no pass allocates
// anything but its output.
var fieldsPool = sync.Pool{New: func() any { return new(Fields) }}

// run makes one pass of fields over v for codec c. It returns the output
// (encoding) or the input left over (decoding), the byte count (sizing)
// and the decoding error.
func run[T any](c *Codec, p pass, b []byte, v *T, fields func(*Fields, *T)) ([]byte, int, error) {
	f := fieldsPool.Get().(*Fields)
	*f = Fields{pass: p, b: b, c: c}
	fields(f, v)
	b, n, err := f.b, f.n, f.err
	*f = Fields{}
	fieldsPool.Put(f)
	return b, n, err
}

// SizeOf returns the number of bytes v encodes to, on a Fields of its
// own: inlined where the walk is named (a Size(), a WireSize()) the walk
// is a direct call and nothing escapes, so the pass allocates nothing.
func SizeOf[T any](v *T, fields func(*Fields, *T)) int {
	f := Fields{pass: sizing}
	fields(&f, v)
	return f.n
}

// FrameLen is v's Size(): the size pass of its walk plus the frame header.
func FrameLen[T any](v *T, fields func(*Fields, *T)) int {
	return prim.FrameOverhead + SizeOf(v, fields)
}

// Marshal encodes v into a buffer of exactly its size.
func Marshal[T any](v *T, fields func(*Fields, *T)) []byte {
	_, n, _ := run(nil, sizing, nil, v, fields)
	b, _, _ := run(nil, encoding, make([]byte, 0, n), v, fields)
	return b
}

// Unmarshal decodes a T from the front of b; bytes after it are ignored.
func Unmarshal[T any](b []byte, fields func(*Fields, *T)) (*T, error) {
	v := new(T)
	if _, _, err := run(nil, decoding, b, v, fields); err != nil {
		return nil, err
	}
	return v, nil
}

// Register binds message id to type T, in the form — T or *T — that
// implements transport.Message; fields is T's one description.
func Register[T any](c *Codec, id uint8, fields func(*Fields, *T)) {
	var zero T
	sample, byValue := any(zero).(transport.Message)
	if !byValue {
		sample = any(&zero).(transport.Message)
	}
	// A walk takes a *T: a message sent by value is walked through a
	// pooled addressable copy, so neither pass allocates one.
	copies := &sync.Pool{New: func() any { return new(T) }}
	c.Register(id, sample,
		func(b []byte, m transport.Message) []byte {
			v, isPtr := any(m).(*T)
			if !isPtr {
				v = copies.Get().(*T)
				*v = any(m).(T)
			}
			b, _, _ = run(c, encoding, b, v, fields)
			if !isPtr {
				*v = zero
				copies.Put(v)
			}
			return b
		},
		func(b []byte) (transport.Message, []byte, error) {
			if !byValue {
				v := new(T)
				rest, _, err := run(c, decoding, b, v, fields)
				return any(v).(transport.Message), rest, err
			}
			v := copies.Get().(*T)
			rest, _, err := run(c, decoding, b, v, fields)
			m := any(*v).(transport.Message)
			*v = zero
			copies.Put(v)
			return m, rest, err
		})
}

// RegisterProc binds procedure id to *T: newT makes the value a decode
// fills in (bound to whatever the procedure runs against), fields is the
// one description of its parameters.
func RegisterProc[T any](c *Codec, id uint8, newT func() *T, fields func(*Fields, *T)) {
	register(c.procByID, c.procByType, id, any(newT()).(txn.Procedure), &entry[txn.Procedure]{id: id,
		enc: func(b []byte, p txn.Procedure) []byte {
			b, _, _ = run(c, encoding, b, any(p).(*T), fields)
			return b
		},
		dec: func(b []byte) (txn.Procedure, []byte, error) {
			t := newT()
			rest, _, err := run(c, decoding, b, t, fields)
			return any(t).(txn.Procedure), rest, err
		}})
}
