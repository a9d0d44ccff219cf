package storage

import (
	"encoding/binary"
	"fmt"
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

// FieldOp is one field-level mutation. Arg is interpreted per Kind.
type FieldOp struct {
	Field uint8
	Kind  OpKind
	Arg   []byte
}

// SetFieldOp builds an OpSetField carrying the field's raw encoding.
func SetFieldOp(s *Schema, row []byte, field int) FieldOp {
	return SetFieldOpInto(s, row, field, nil)
}

// SetFieldOpInto is SetFieldOp with the field's encoding appended to
// buf instead of a fresh slice: a caller that owns storage with the op's
// lifetime saves the allocation (the append still grows past cap(buf)).
func SetFieldOpInto(s *Schema, row []byte, field int, buf []byte) FieldOp {
	return FieldOp{Field: uint8(field), Kind: OpSetField, Arg: append(buf, s.fieldSlice(row, field)...)}
}

// AddInt64Op builds an integer-delta op.
func AddInt64Op(field int, delta int64) FieldOp {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(delta))
	return FieldOp{Field: uint8(field), Kind: OpAddInt64, Arg: b[:]}
}

// SetInt64Op builds an op that overwrites an integer field with v
// (TPC-C Delivery's O_CARRIER_ID / OL_DELIVERY_D stamps). Fixed-width
// fields are stored as 8 little-endian bytes, so this is OpSetField with
// the value's raw encoding.
func SetInt64Op(field int, v int64) FieldOp {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], uint64(v))
	return FieldOp{Field: uint8(field), Kind: OpSetField, Arg: b[:]}
}

// AddFloat64Op builds a float-delta op.
func AddFloat64Op(field int, delta float64) FieldOp {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], math.Float64bits(delta))
	return FieldOp{Field: uint8(field), Kind: OpAddFloat64, Arg: b[:]}
}

// PrependOp builds a string-prepend op.
func PrependOp(field int, prefix []byte) FieldOp {
	return FieldOp{Field: uint8(field), Kind: OpPrepend, Arg: append([]byte(nil), prefix...)}
}

// SetRowOp builds a whole-row replacement op.
func SetRowOp(row []byte) FieldOp {
	return FieldOp{Kind: OpSetRow, Arg: append([]byte(nil), row...)}
}

// Apply mutates row in place according to the op.
func (op FieldOp) Apply(s *Schema, row []byte) error {
	i := int(op.Field)
	switch op.Kind {
	case OpSetRow:
		if len(op.Arg) != len(row) {
			return fmt.Errorf("storage: OpSetRow size %d != row size %d", len(op.Arg), len(row))
		}
		copy(row, op.Arg)
		return nil
	case OpSetField:
		raw := s.fieldSlice(row, i)
		if len(op.Arg) != len(raw) {
			return fmt.Errorf("storage: OpSetField size %d != field size %d", len(op.Arg), len(raw))
		}
		copy(raw, op.Arg)
		return nil
	case OpAddInt64:
		if len(op.Arg) != 8 {
			return fmt.Errorf("storage: OpAddInt64 wants 8 bytes, got %d", len(op.Arg))
		}
		d := int64(binary.LittleEndian.Uint64(op.Arg))
		s.SetInt64(row, i, s.GetInt64(row, i)+d)
		return nil
	case OpAddFloat64:
		if len(op.Arg) != 8 {
			return fmt.Errorf("storage: OpAddFloat64 wants 8 bytes, got %d", len(op.Arg))
		}
		d := math.Float64frombits(binary.LittleEndian.Uint64(op.Arg))
		s.SetFloat64(row, i, s.GetFloat64(row, i)+d)
		return nil
	case OpPrepend:
		s.prependBytes(row, i, op.Arg)
		return nil
	default:
		return fmt.Errorf("storage: unknown op kind %d", op.Kind)
	}
}
