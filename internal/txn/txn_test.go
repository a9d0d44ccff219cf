package txn

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"star/internal/storage"
)

type fakeProc struct {
	accs []Access
}

func (f *fakeProc) Name() string       { return "fake" }
func (f *fakeProc) Accesses() []Access { return f.accs }
func (f *fakeProc) Run(Ctx) error      { return nil }

func TestNewRequestFootprint(t *testing.T) {
	p := &fakeProc{accs: []Access{
		{Part: 3, Key: storage.K1(1)},
		{Part: 3, Key: storage.K1(2), Write: true},
		{Part: 5, Key: storage.K1(3)},
	}}
	r := NewRequest(p, 100)
	if r.Home != 3 {
		t.Fatalf("home=%d", r.Home)
	}
	if !r.Cross || len(r.Parts) != 2 {
		t.Fatalf("cross=%v parts=%v", r.Cross, r.Parts)
	}
	if r.GenAt != 100 {
		t.Fatalf("genAt=%d", r.GenAt)
	}

	single := NewRequest(&fakeProc{accs: []Access{{Part: 2, Key: storage.K1(9)}}}, 0)
	if single.Cross || single.Home != 2 {
		t.Fatalf("single-partition misclassified: %+v", single)
	}
}

func TestRWSetAddWriteMerges(t *testing.T) {
	var s RWSet
	s.AddWrite(1, 0, storage.K1(7), storage.AddInt64Op(0, 1))
	s.AddWrite(1, 0, storage.K1(7), storage.AddInt64Op(0, 2))
	s.AddWrite(1, 0, storage.K1(8), storage.AddInt64Op(0, 3))
	if len(s.Writes) != 2 {
		t.Fatalf("writes=%d, want merged 2", len(s.Writes))
	}
	if len(s.Writes[0].Ops) != 2 {
		t.Fatalf("ops not merged: %d", len(s.Writes[0].Ops))
	}
	if s.FindWrite(1, 0, storage.K1(8)) == nil || s.FindWrite(1, 0, storage.K1(99)) != nil {
		t.Fatal("FindWrite broken")
	}
}

// The write set's sorted order is global: table, then partition, then key.
func TestRWSetSortWritesGlobalOrder(t *testing.T) {
	var s RWSet
	s.AddWrite(2, 0, storage.K1(1))
	s.AddWrite(1, 1, storage.K1(9))
	s.AddWrite(1, 1, storage.K1(2))
	s.AddWrite(1, 0, storage.K2(5, 0))
	var sorted []WriteEntry
	for _, i := range s.KeyOrder() {
		sorted = append(sorted, s.Writes[i])
	}
	prev := sorted[0]
	for _, w := range sorted[1:] {
		if w.Table < prev.Table {
			t.Fatal("table order violated")
		}
		if w.Table == prev.Table && w.Part < prev.Part {
			t.Fatal("partition order violated")
		}
		if w.Table == prev.Table && w.Part == prev.Part {
			if w.Key.Hi < prev.Key.Hi || (w.Key.Hi == prev.Key.Hi && w.Key.Lo < prev.Key.Lo) {
				t.Fatal("key order violated")
			}
		}
		prev = w
	}
}

// TestRWSetKeyOrderIsSortWritesOrder: KeyOrder visits a write set in the
// order a stable sort by writeLess puts it in — so an insert and a later
// update of one record keep their order — and moves no entry.
func TestRWSetKeyOrderIsSortWritesOrder(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for round := 0; round < 200; round++ {
		var s RWSet
		for i := rng.Intn(30); i > 0; i-- {
			tb, part, key := storage.TableID(rng.Intn(4)), rng.Intn(3), storage.K2(uint64(rng.Intn(3)), uint64(rng.Intn(8)))
			if rng.Intn(3) == 0 {
				s.AddInsert(tb, part, key, []byte{byte(i)})
			} else {
				s.AddWrite(tb, part, key, storage.AddInt64Op(0, int64(i)))
			}
		}
		before := append([]WriteEntry(nil), s.Writes...)
		var visited []WriteEntry
		for _, i := range s.KeyOrder() {
			visited = append(visited, s.Writes[i])
		}
		if !reflect.DeepEqual(s.Writes, before) {
			t.Fatal("KeyOrder moved an entry")
		}
		sort.SliceStable(s.Writes, func(i, j int) bool { return writeLess(&s.Writes[i], &s.Writes[j]) })
		if !reflect.DeepEqual(visited, s.Writes) {
			t.Fatalf("round %d: KeyOrder visits %+v, a stable sort orders %+v", round, visited, s.Writes)
		}
	}
}

func TestRWSetMaxReadTID(t *testing.T) {
	var s RWSet
	s.AddRead(1, 0, storage.K1(1), nil, storage.MakeTID(3, 9))
	s.AddRead(1, 0, storage.K1(2), nil, storage.MakeTID(2, 100))
	if got := s.MaxReadTID(); got != storage.MakeTID(3, 9) {
		t.Fatalf("max=%s", storage.FormatTID(got))
	}
	rec := storage.NewRecord(storage.MakeTID(4, 1), []byte("x"))
	s.Writes = append(s.Writes, WriteEntry{Rec: rec})
	if got := s.MaxReadTID(); got != storage.MakeTID(4, 1) {
		t.Fatalf("max with write rec=%s", storage.FormatTID(got))
	}
}

func TestRWSetReset(t *testing.T) {
	var s RWSet
	s.AddRead(1, 0, storage.K1(1), nil, 5)
	s.AddInsert(1, 0, storage.K1(2), []byte("row"))
	s.Reset()
	if len(s.Reads) != 0 || len(s.Writes) != 0 {
		t.Fatal("reset failed")
	}
}

func TestAddInsertCopiesRow(t *testing.T) {
	var s RWSet
	row := []byte("abc")
	s.AddInsert(1, 0, storage.K1(1), row)
	row[0] = 'z'
	if string(s.Writes[0].Row) != "abc" {
		t.Fatal("insert row must be copied")
	}
}
