package storage

import (
	"bytes"
	"reflect"
	"testing"
	"testing/quick"
)

func testSchema() *Schema {
	return NewSchema(
		Field{Name: "id", Type: FieldUint64},
		Field{Name: "balance", Type: FieldFloat64},
		Field{Name: "count", Type: FieldInt64},
		Field{Name: "data", Type: FieldBytes, Cap: 16},
	)
}

func TestSchemaLayout(t *testing.T) {
	s := testSchema()
	if s.RowSize() != 8+8+8+2+16 {
		t.Fatalf("row size %d", s.RowSize())
	}
	if s.NumFields() != 4 || s.FieldIndex("data") != 3 || s.FieldIndex("nope") != -1 {
		t.Fatal("field lookup broken")
	}
}

func TestSchemaAccessorsRoundTrip(t *testing.T) {
	s := testSchema()
	f := func(id uint64, bal float64, cnt int64, data []byte) bool {
		row := s.NewRow()
		s.SetUint64(row, 0, id)
		s.SetFloat64(row, 1, bal)
		s.SetInt64(row, 2, cnt)
		s.SetBytes(row, 3, data)
		want := data
		if len(want) > 16 {
			want = want[:16]
		}
		return s.GetUint64(row, 0) == id &&
			(s.GetFloat64(row, 1) == bal || bal != bal) && // NaN-safe
			s.GetInt64(row, 2) == cnt &&
			bytes.Equal(s.GetBytes(row, 3), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestSchemaStringTruncation(t *testing.T) {
	s := testSchema()
	row := s.NewRow()
	s.SetString(row, 3, "0123456789abcdefOVERFLOW")
	if got := s.GetString(row, 3); got != "0123456789abcdef" {
		t.Fatalf("got %q", got)
	}
}

func TestSchemaPanicsOnBadField(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for FieldBytes without Cap")
		}
	}()
	NewSchema(Field{Name: "bad", Type: FieldBytes})
}

// TestSchemaRefusesRowWiderThanMaxRowSize: the recovery log frames a row
// as uint16(len), so a schema wider than that would log records whose
// length lies (and recovery would drop them as a torn tail). The widest
// legal row is exactly MaxRowSize; one more column is refused.
func TestSchemaRefusesRowWiderThanMaxRowSize(t *testing.T) {
	widest := Field{Name: "blob", Type: FieldBytes, Cap: MaxRowSize - 2}
	if got := NewSchema(widest).RowSize(); got != MaxRowSize {
		t.Fatalf("widest schema is %d bytes, want MaxRowSize %d", got, MaxRowSize)
	}
	defer func() {
		if recover() == nil {
			t.Fatalf("NewSchema accepted a row of %d bytes", MaxRowSize+8)
		}
	}()
	NewSchema(widest, Field{Name: "n", Type: FieldInt64})
}

func TestFieldOpsApply(t *testing.T) {
	s := testSchema()
	row := s.NewRow()
	s.SetFloat64(row, 1, 10)
	s.SetInt64(row, 2, 5)
	s.SetString(row, 3, "world")

	ops := []FieldOp{
		AddFloat64Op(1, 2.5),
		AddInt64Op(2, -3),
		PrependOp(3, []byte("hello ")),
	}
	for _, op := range ops {
		op.Apply(s, row)
	}
	if s.GetFloat64(row, 1) != 12.5 || s.GetInt64(row, 2) != 2 {
		t.Fatalf("numeric ops: %v %v", s.GetFloat64(row, 1), s.GetInt64(row, 2))
	}
	if got := s.GetString(row, 3); got != "hello world" {
		t.Fatalf("prepend: %q", got)
	}
	// Prepend truncates at capacity like TPC-C's C_DATA.
	PrependOp(3, bytes.Repeat([]byte("x"), 20)).Apply(s, row)
	if got := s.GetString(row, 3); got != "xxxxxxxxxxxxxxxx" {
		t.Fatalf("truncated prepend: %q", got)
	}
}

func TestSetFieldOpCarriesRawEncoding(t *testing.T) {
	s := testSchema()
	src := s.NewRow()
	s.SetString(src, 3, "abc")
	op := SetFieldOp(s, src, 3)
	dst := s.NewRow()
	s.SetString(dst, 3, "zzzzzzzz")
	op.Apply(s, dst)
	if got := s.GetString(dst, 3); got != "abc" {
		t.Fatalf("got %q", got)
	}
	if size := 2 + len(op.Arg); size >= s.RowSize() { // field, kind, argument
		t.Fatalf("field op (%dB) should be smaller than the row (%dB)", size, s.RowSize())
	}
}

func TestSetRowOp(t *testing.T) {
	s := testSchema()
	src := s.NewRow()
	s.SetUint64(src, 0, 42)
	op := SetRowOp(src)
	dst := s.NewRow()
	op.Apply(s, dst)
	if s.GetUint64(dst, 0) != 42 {
		t.Fatal("row not copied")
	}
}

// TestSchemaFits: a schema lands a row exactly its width and ops naming
// its columns with arguments their kind fits, and nothing else — the
// sizes Apply used to refuse one op at a time, now refused whole before
// any op applies.
func TestSchemaFits(t *testing.T) {
	s := testSchema() // id u64, balance f64, count i64, data bytes(16)
	row := s.NewRow()
	ops := func(ops ...FieldOp) Write { return Write{Kind: WriteOps, Ops: ops} }
	for name, c := range map[string]struct {
		w    Write
		fits bool
	}{
		"row of the row's width":             {Write{Kind: WriteRow, Row: row}, true},
		"row narrower than the table's":      {Write{Kind: WriteRow, Row: row[:3]}, false},
		"row wider than the table's":         {Write{Kind: WriteRow, Row: append(s.NewRow(), 0)}, false},
		"delete":                             {Write{Kind: WriteDelete}, true},
		"no ops":                             {ops(), true},
		"set, add, add, prepend, set row":    {ops(SetFieldOp(s, row, 3), AddInt64Op(2, 1), AddFloat64Op(1, 1), PrependOp(3, []byte("x")), SetRowOp(row)), true},
		"op on a column the table lacks":     {ops(AddInt64Op(2, 1), AddInt64Op(4, 1)), false},
		"set of the wrong size":              {ops(NewFieldOp(3, OpSetField, []byte("abc"))), false},
		"add on a bytes column":              {ops(AddInt64Op(3, 1)), false},
		"add of a short argument":            {ops(NewFieldOp(2, OpAddInt64, []byte{1})), false},
		"prepend on an integer column":       {ops(PrependOp(2, []byte("x"))), false},
		"set row of the wrong size":          {ops(SetRowOp(row[:3])), false},
		"op of a kind storage does not know": {ops(FieldOp{Field: 0, Kind: OpSetRow + 1}), false},
	} {
		if got := s.Fits(c.w); got != c.fits {
			t.Errorf("%s: fits = %v, want %v", name, got, c.fits)
		}
	}
}

// Property: applying the ops a single-writer partition emits, in order,
// yields the same row as the direct writes — the correctness condition
// for operation replication (paper §5, right side of Fig. 8).
func TestOpReplicationEquivalence(t *testing.T) {
	s := testSchema()
	f := func(deltas []int8, strs [][]byte) bool {
		direct := s.NewRow()
		replica := s.NewRow()
		var stream []FieldOp
		for _, d := range deltas {
			AddInt64Op(2, int64(d)).Apply(s, direct)
			stream = append(stream, AddInt64Op(2, int64(d)))
		}
		for _, str := range strs {
			PrependOp(3, str).Apply(s, direct)
			stream = append(stream, PrependOp(3, str))
		}
		for _, op := range stream {
			op.Apply(s, replica)
		}
		return bytes.Equal(direct, replica)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestWordOpsHoldTheirArgument: an 8-byte argument lives in its op, so
// building one allocates nothing; NewFieldOp gives any 8 bytes that form,
// and Argument and Apply read it back.
func TestWordOpsHoldTheirArgument(t *testing.T) {
	s := testSchema()
	var ops [3]FieldOp
	if allocs := testing.AllocsPerRun(100, func() {
		ops[0], ops[1], ops[2] = SetInt64Op(2, 7), AddInt64Op(2, -5), AddFloat64Op(1, 2.5)
	}); allocs != 0 && !raceEnabled {
		t.Fatalf("building three integer and float ops allocates %v times", allocs)
	}
	row := s.NewRow()
	for i := range ops {
		var w [8]byte
		if again := NewFieldOp(int(ops[i].Field), ops[i].Kind, ops[i].Argument(&w)); !reflect.DeepEqual(again, ops[i]) {
			t.Fatalf("op %d through its 8 argument bytes: %+v, want %+v", i, again, ops[i])
		}
		ops[i].Apply(s, row)
	}
	if s.GetInt64(row, 2) != 2 || s.GetFloat64(row, 1) != 2.5 {
		t.Fatalf("count %d, balance %v after set 7, add -5, add 2.5", s.GetInt64(row, 2), s.GetFloat64(row, 1))
	}
}
