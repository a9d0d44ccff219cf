package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"star/internal/storage"
)

// dottedDir is a log directory whose own name looks like a segment's.
func dottedDir(t *testing.T) string {
	dir := filepath.Join(t.TempDir(), "star.log.d")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	return dir
}

// live returns the base names of what d.Live finds.
func live(t *testing.T, d *Dir) (string, []string) {
	t.Helper()
	ckpt, segs, err := d.Live()
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, s := range segs {
		names = append(names, filepath.Base(s))
	}
	if ckpt != "" {
		ckpt = filepath.Base(ckpt)
	}
	return ckpt, names
}

// TestDirCheckpointRoundsRetireCoveredFiles: round r moves every logger
// to segment r+1 of the name it was created with, writes checkpoint r
// and deletes the segments below r and the checkpoints before it — in a
// directory named like a segment, and leaving another node's files be.
func TestDirCheckpointRoundsRetireCoveredFiles(t *testing.T) {
	dir := dottedDir(t)
	d, other := NewDir(dir, 3), NewDir(dir, 30)
	router, _ := d.Create("router")
	worker, _ := d.Create("worker0")
	if _, err := other.Create("router"); err != nil {
		t.Fatal(err)
	}
	db := newDB(map[uint64]int64{1: 10, 2: 20}, 1)
	s := schema()
	write := func(l *Logger, k uint64, v int64, epoch uint64) {
		row := s.NewRow()
		s.SetInt64(row, 0, v)
		l.AppendWrite(0, int32(k%2), storage.K1(k), storage.MakeTID(epoch, k), false, row)
		db.Table(0).LandThomas(int(k%2), storage.K1(k), epoch, storage.MakeTID(epoch, k), storage.Write{Kind: storage.WriteRow, Row: row}, nil)
		l.AppendEpochMark(epoch)
		l.Flush(true)
	}
	write(worker, 3, 30, 2)

	for round, want := range [][]string{
		{"node3-router.log", "node3-router.log.1", "node3-worker0.log", "node3-worker0.log.1"},
		{"node3-router.log.1", "node3-router.log.2", "node3-worker0.log.1", "node3-worker0.log.2"},
		{"node3-router.log.2", "node3-router.log.3", "node3-worker0.log.2", "node3-worker0.log.3"},
	} {
		if err := d.Checkpoint(db, round, uint64(round+3)); err != nil {
			t.Fatal(err)
		}
		write(worker, uint64(4+round), int64(40+round), uint64(round+3))
		write(router, 1, int64(100+round), uint64(round+3))
		ckpt, segs := live(t, d)
		if wantCkpt := fmt.Sprintf("node3-ckpt%d", round); ckpt != wantCkpt || !slices.Equal(segs, want) {
			t.Fatalf("round %d: checkpoint %q segments %v, want %q %v", round, ckpt, segs, wantCkpt, want)
		}
	}
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Nothing else is left: no temporary checkpoint, no retired file,
	// nothing beside the directory; the other node's segment is intact.
	var names []string
	ents, _ := os.ReadDir(dir)
	for _, ent := range ents {
		names = append(names, ent.Name())
	}
	if want := []string{"node3-ckpt2", "node3-router.log.2", "node3-router.log.3", "node3-worker0.log.2", "node3-worker0.log.3", "node30-router.log"}; !slices.Equal(names, want) {
		t.Fatalf("the directory holds %v, want %v", names, want)
	}
	if ents, _ := os.ReadDir(filepath.Dir(dir)); len(ents) != 1 {
		t.Fatalf("%d entries in the log directory's parent, want only the directory", len(ents))
	}

	got := newDB(nil, 1)
	if ckpt, segs, err := d.Live(); err != nil {
		t.Fatal(err)
	} else if _, _, err := Recover(got, ckpt, segs); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[uint64]int64{1: 102, 2: 20, 3: 30, 4: 40, 5: 41, 6: 42} {
		if v, ok := dbValue(got, k); !ok || v != want {
			t.Fatalf("k%d=%d,%v, want %d", k, v, ok, want)
		}
	}
}

// TestLeftoverTempCheckpointIsNeverNewest: a checkpoint written but never
// renamed — the process died mid-scan — is not reported, however new
// its round, and recovery uses the newest complete one.
func TestLeftoverTempCheckpointIsNeverNewest(t *testing.T) {
	dir := dottedDir(t)
	d := NewDir(dir, 0)
	l, _ := d.Create("worker0")
	db := newDB(map[uint64]int64{1: 10, 2: 20}, 1)
	if err := d.Checkpoint(db, 0, 2); err != nil {
		t.Fatal(err)
	}
	l.AppendEpochMark(2)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	// Round 1's checkpoint, cut off after its first bytes.
	if err := os.WriteFile(filepath.Join(dir, "node0-ckpt1.tmp"), []byte{9, 0, 0}, 0o644); err != nil {
		t.Fatal(err)
	}
	if ckpt, _ := live(t, d); ckpt != "node0-ckpt0" {
		t.Fatalf("newest checkpoint %q, want node0-ckpt0", ckpt)
	}
	got := newDB(nil, 1)
	if ckpt, segs, err := d.Live(); err != nil {
		t.Fatal(err)
	} else if _, _, err := Recover(got, ckpt, segs); err != nil {
		t.Fatal(err)
	}
	for k, want := range map[uint64]int64{1: 10, 2: 20} {
		if v, ok := dbValue(got, k); !ok || v != want {
			t.Fatalf("k%d=%d,%v, want %d", k, v, ok, want)
		}
	}
}
