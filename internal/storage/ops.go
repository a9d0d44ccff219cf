package storage

import (
	"encoding/binary"
	"math"
)

// OpKind enumerates the operations shippable by operation replication.
// Operation replication is only legal in the partitioned phase, where a
// partition has a single writer thread, so deltas arrive in commit order
// (§5 of the paper).
type OpKind uint8

const (
	// OpSetField replaces a single field's raw bytes.
	OpSetField OpKind = iota
	// OpAddInt64 adds a signed delta to an integer field.
	OpAddInt64
	// OpAddFloat64 adds a delta to a float field.
	OpAddFloat64
	// OpPrepend inserts bytes at the front of a FieldBytes column,
	// truncating at capacity (TPC-C Payment's C_DATA update).
	OpPrepend
	// OpSetRow replaces the whole row.
	OpSetRow
)

// FieldOp is one field-level mutation, its argument interpreted per Kind:
// an 8-byte one (a fixed-width field, an integer or float delta) held in
// word, so building or decoding it allocates nothing, any other in Arg.
type FieldOp struct {
	Field uint8
	Kind  OpKind
	wide  bool // the argument is word, little-endian
	word  uint64
	Arg   []byte
}

// NewFieldOp builds an op of arg, which Arg aliases unless it is 8 bytes.
func NewFieldOp(field int, kind OpKind, arg []byte) FieldOp {
	if len(arg) == 8 {
		return WordOp(field, kind, binary.LittleEndian.Uint64(arg))
	}
	return FieldOp{Field: uint8(field), Kind: kind, Arg: arg}
}

// WordOp builds an op whose argument is the 8 little-endian bytes of w.
func WordOp(field int, kind OpKind, w uint64) FieldOp {
	return FieldOp{Field: uint8(field), Kind: kind, wide: true, word: w}
}

// Argument returns the op's argument, writing an 8-byte one into *w.
func (op *FieldOp) Argument(w *[8]byte) []byte {
	if op.wide {
		return binary.LittleEndian.AppendUint64(w[:0], op.word)
	}
	return op.Arg
}

// SetFieldOp builds an OpSetField carrying the field's raw encoding.
func SetFieldOp(s *Schema, row []byte, field int) FieldOp {
	return SetFieldOpInto(s, row, field, nil)
}

// SetFieldOpInto is SetFieldOp with the field's encoding appended to
// buf instead of a fresh slice: a caller that owns storage with the op's
// lifetime saves the allocation (the append still grows past cap(buf)).
func SetFieldOpInto(s *Schema, row []byte, field int, buf []byte) FieldOp {
	return NewFieldOp(field, OpSetField, append(buf, s.fieldSlice(row, field)...))
}

// AddInt64Op builds an integer-delta op.
func AddInt64Op(field int, delta int64) FieldOp {
	return WordOp(field, OpAddInt64, uint64(delta))
}

// SetInt64Op builds an OpSetField that overwrites an integer field with v
// (TPC-C Delivery's O_CARRIER_ID / OL_DELIVERY_D stamps).
func SetInt64Op(field int, v int64) FieldOp {
	return WordOp(field, OpSetField, uint64(v))
}

// AddFloat64Op builds a float-delta op.
func AddFloat64Op(field int, delta float64) FieldOp {
	return WordOp(field, OpAddFloat64, math.Float64bits(delta))
}

// PrependOp builds a string-prepend op.
func PrependOp(field int, prefix []byte) FieldOp {
	return NewFieldOp(field, OpPrepend, append([]byte(nil), prefix...))
}

// SetRowOp builds a whole-row replacement op.
func SetRowOp(row []byte) FieldOp {
	return NewFieldOp(0, OpSetRow, append([]byte(nil), row...))
}

// Fits reports whether s can land w: a row exactly RowSize wide, or ops
// naming columns s has, each with an argument its kind fits — OpSetField
// the field's size, OpAddInt64 and OpAddFloat64 8 bytes on an 8-byte
// field, OpPrepend any on a FieldBytes column, OpSetRow the row's size.
func (s *Schema) Fits(w Write) bool {
	if w.Kind == WriteRow {
		return len(w.Row) == s.rowSize
	}
	for i := range w.Ops { // a delete carries none
		op, a := &w.Ops[i], [8]byte{}
		if int(op.Field) >= len(s.fields) {
			return false
		}
		f, n := &s.fields[op.Field], len(op.Argument(&a))
		switch {
		case op.Kind == OpSetField && n == f.size,
			(op.Kind == OpAddInt64 || op.Kind == OpAddFloat64) && n == 8 && f.size == 8,
			op.Kind == OpPrepend && f.Type == FieldBytes,
			op.Kind == OpSetRow && n == s.rowSize:
		default:
			return false
		}
	}
	return true
}

// Apply mutates row in place according to the op, which must fit s.
func (op FieldOp) Apply(s *Schema, row []byte) {
	i, w := int(op.Field), [8]byte{}
	arg := op.Argument(&w)
	switch op.Kind {
	case OpSetRow:
		copy(row, arg)
	case OpSetField:
		copy(s.fieldSlice(row, i), arg)
	case OpAddInt64:
		s.SetInt64(row, i, s.GetInt64(row, i)+int64(binary.LittleEndian.Uint64(arg)))
	case OpAddFloat64:
		s.SetFloat64(row, i, s.GetFloat64(row, i)+math.Float64frombits(binary.LittleEndian.Uint64(arg)))
	case OpPrepend:
		s.prependBytes(row, i, arg)
	}
}
