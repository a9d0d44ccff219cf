package storage

import (
	"bytes"
	"testing"
)

func fenceRead(t *testing.T, r *Record, epoch uint64) (val []byte, tid uint64, present bool) {
	t.Helper()
	_, val, tid, present = r.ReadStableAtFenceAppend(nil, epoch)
	return val, tid, present
}

func TestReadStableAtFenceReturnsPriorVersion(t *testing.T) {
	_, tbl := newTestDB(t, 1, nil)
	r := NewRecord(MakeTID(2, 5), txt("aa"))

	// Untouched in epoch 3: the current version IS the fence version.
	val, tid, present := fenceRead(t, r, 3)
	if !present || !bytes.Equal(val, txt("aa")) || tid != MakeTID(2, 5) {
		t.Fatalf("untouched record: val=%q tid=%s present=%v", val, FormatTID(tid), present)
	}

	// Written in epoch 3 → the epoch-3 fence read yields the epoch-2
	// version; an epoch-4 fence read yields the new one.
	landOn(t, tbl, r, 3, MakeTID(3, 1), rowWrite("bb"))

	val, tid, present = fenceRead(t, r, 3)
	if !present || !bytes.Equal(val, txt("aa")) || tid != MakeTID(2, 5) {
		t.Fatalf("fence read at 3: val=%q tid=%s present=%v, want pre-epoch version", val, FormatTID(tid), present)
	}
	val, _, present = fenceRead(t, r, 4)
	if !present || !bytes.Equal(val, txt("bb")) {
		t.Fatalf("fence read at 4: val=%q present=%v, want current version", val, present)
	}

	// A second write in the same epoch does not move the fence version.
	landOn(t, tbl, r, 3, MakeTID(3, 2), rowWrite("cc"))
	val, _, _ = fenceRead(t, r, 3)
	if !bytes.Equal(val, txt("aa")) {
		t.Fatalf("fence version moved after second same-epoch write: %q", val)
	}
}

func TestReadStableAtFenceAbsentPrior(t *testing.T) {
	// A record first inserted in epoch 3 (e.g. by replication) is absent
	// at the epoch-3 fence and present at the epoch-4 fence.
	_, tbl := newTestDB(t, 1, nil)
	if applied, _ := tbl.LandThomas(0, K1(1), 3, MakeTID(3, 7), rowWrite("new"), nil); !applied {
		t.Fatal("Thomas apply refused a newer TID")
	}
	r := tbl.Get(0, K1(1))
	if _, _, present := fenceRead(t, r, 3); present {
		t.Fatal("epoch-3 fence read sees a row inserted in epoch 3")
	}
	val, _, present := fenceRead(t, r, 4)
	if !present || !bytes.Equal(val, txt("new")) {
		t.Fatalf("epoch-4 fence read: val=%q present=%v", val, present)
	}
}
