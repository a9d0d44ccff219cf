package storage

import (
	"encoding/binary"
	"fmt"
	"math"
)

// FieldType enumerates the supported column types. Rows are fixed-width
// byte slices; variable-length strings live in fixed-capacity byte fields
// with a 2-byte length prefix, as is common in in-memory row stores.
type FieldType uint8

const (
	// FieldUint64 is an 8-byte unsigned integer.
	FieldUint64 FieldType = iota
	// FieldInt64 is an 8-byte signed integer.
	FieldInt64
	// FieldFloat64 is an 8-byte IEEE float.
	FieldFloat64
	// FieldBytes is a fixed-capacity byte string with a 2-byte length
	// prefix (so the logical value may be shorter than the capacity).
	FieldBytes
)

// Field describes one column.
type Field struct {
	Name string
	Type FieldType
	// Cap is the byte capacity for FieldBytes fields; ignored otherwise.
	Cap int

	offset int
	size   int
}

// MaxRowSize is the widest row a schema may describe: the recovery log
// frames a row's length as a uint16, and the replication decoder accepts
// no packed row that claims more.
const MaxRowSize = math.MaxUint16

// Schema is an ordered set of fields with precomputed offsets.
type Schema struct {
	fields  []Field
	rowSize int
}

// NewSchema builds a schema; it panics on invalid field definitions
// (schemas are static program data, so this is a programming error).
func NewSchema(fields ...Field) *Schema {
	s := &Schema{fields: append([]Field(nil), fields...)}
	off := 0
	for i := range s.fields {
		f := &s.fields[i]
		switch f.Type {
		case FieldUint64, FieldInt64, FieldFloat64:
			f.size = 8
		case FieldBytes:
			if f.Cap <= 0 || f.Cap > math.MaxUint16 {
				panic(fmt.Sprintf("storage: field %q: invalid byte capacity %d", f.Name, f.Cap))
			}
			f.size = 2 + f.Cap
		default:
			panic(fmt.Sprintf("storage: field %q: unknown type %d", f.Name, f.Type))
		}
		f.offset = off
		off += f.size
	}
	if off > MaxRowSize {
		panic(fmt.Sprintf("storage: row of %d bytes exceeds MaxRowSize %d", off, MaxRowSize))
	}
	s.rowSize = off
	return s
}

// RowSize returns the fixed byte width of a row.
func (s *Schema) RowSize() int { return s.rowSize }

// NumFields returns the number of columns.
func (s *Schema) NumFields() int { return len(s.fields) }

// FieldIndex returns the index of the named column, or -1.
func (s *Schema) FieldIndex(name string) int {
	for i := range s.fields {
		if s.fields[i].Name == name {
			return i
		}
	}
	return -1
}

// NewRow allocates a zero row.
func (s *Schema) NewRow() []byte { return make([]byte, s.rowSize) }

// GetUint64 reads column i from row.
func (s *Schema) GetUint64(row []byte, i int) uint64 {
	f := &s.fields[i]
	return binary.LittleEndian.Uint64(row[f.offset:])
}

// SetUint64 writes column i of row.
func (s *Schema) SetUint64(row []byte, i int, v uint64) {
	f := &s.fields[i]
	binary.LittleEndian.PutUint64(row[f.offset:], v)
}

// GetInt64 reads column i from row.
func (s *Schema) GetInt64(row []byte, i int) int64 {
	return int64(s.GetUint64(row, i))
}

// SetInt64 writes column i of row.
func (s *Schema) SetInt64(row []byte, i int, v int64) {
	s.SetUint64(row, i, uint64(v))
}

// GetFloat64 reads column i from row.
func (s *Schema) GetFloat64(row []byte, i int) float64 {
	return math.Float64frombits(s.GetUint64(row, i))
}

// SetFloat64 writes column i of row.
func (s *Schema) SetFloat64(row []byte, i int, v float64) {
	s.SetUint64(row, i, math.Float64bits(v))
}

// GetBytes returns the logical value of a FieldBytes column. The returned
// slice aliases row; callers that retain it must copy.
func (s *Schema) GetBytes(row []byte, i int) []byte {
	f := &s.fields[i]
	n := int(binary.LittleEndian.Uint16(row[f.offset:]))
	if n > f.Cap {
		n = f.Cap
	}
	return row[f.offset+2 : f.offset+2+n]
}

// SetBytes writes a FieldBytes column, truncating to the field capacity.
func (s *Schema) SetBytes(row []byte, i int, v []byte) {
	f := &s.fields[i]
	if len(v) > f.Cap {
		v = v[:f.Cap]
	}
	binary.LittleEndian.PutUint16(row[f.offset:], uint16(len(v)))
	copy(row[f.offset+2:], v)
}

// prependBytes inserts prefix at the front of a FieldBytes column in
// place, truncating at the field capacity: the old value shifts right
// (copy handles the overlap) and the prefix lands in front of it, so
// OpPrepend allocates nothing on a master's commit or a replica's apply.
func (s *Schema) prependBytes(row []byte, i int, prefix []byte) {
	f := &s.fields[i]
	val := row[f.offset+2 : f.offset+2+f.Cap]
	old := len(s.GetBytes(row, i))
	if len(prefix) > f.Cap {
		prefix = prefix[:f.Cap]
	}
	n := min(len(prefix)+old, f.Cap)
	copy(val[len(prefix):n], val[:old])
	copy(val, prefix)
	binary.LittleEndian.PutUint16(row[f.offset:], uint16(n))
}

// GetString is GetBytes as a string copy.
func (s *Schema) GetString(row []byte, i int) string { return string(s.GetBytes(row, i)) }

// SetString is SetBytes for strings.
func (s *Schema) SetString(row []byte, i int, v string) { s.SetBytes(row, i, []byte(v)) }

// fieldSlice returns the raw bytes (including any length prefix) of
// column i: what OpSetField overwrites and OpSetBytes clears.
func (s *Schema) fieldSlice(row []byte, i int) []byte {
	f := &s.fields[i]
	return row[f.offset : f.offset+f.size]
}
