package wal

import (
	"bytes"
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"star/internal/replication"
	"star/internal/storage"
)

func schema() *storage.Schema {
	return storage.NewSchema(storage.Field{Name: "v", Type: storage.FieldInt64})
}

func newDB(vals map[uint64]int64, epoch uint64) *storage.DB {
	db := storage.NewDB(2, nil)
	tbl := db.AddTable("t", schema(), false)
	s := tbl.Schema()
	seq := uint64(1)
	for k, v := range vals {
		row := s.NewRow()
		s.SetInt64(row, 0, v)
		tbl.Insert(int(k%2), storage.K1(k), epoch, storage.MakeTID(epoch, seq), row)
		seq++
	}
	return db
}

func dbValue(db *storage.DB, k uint64) (int64, bool) {
	rec := db.Table(0).Get(int(k%2), storage.K1(k))
	if rec == nil {
		return 0, false
	}
	val, _, present := rec.ReadStable(nil)
	if !present {
		return 0, false
	}
	return schema().GetInt64(val, 0), true
}

// frame wraps an envelope body the way a logger frames it.
func frame(body []byte) []byte {
	f := binary.LittleEndian.AppendUint32(nil, uint32(len(body)))
	f = binary.LittleEndian.AppendUint32(f, crc32.ChecksumIEEE(body))
	return append(f, body...)
}

// readLog decodes every frame of the file at path, each into buffers of
// its own.
func readLog(t *testing.T, path string) []*replication.Batch {
	t.Helper()
	var out []*replication.Batch
	err := ReadFrames(path, func(body []byte) error {
		b, err := replication.DecodeBatch(append([]byte(nil), body...))
		out = append(out, b)
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestLogRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w0.log")
	l, err := Create(path)
	if err != nil {
		t.Fatal(err)
	}
	row := schema().NewRow()
	schema().SetInt64(row, 0, 42)
	if err := l.AppendWrite(0, 1, storage.K1(7), storage.MakeTID(2, 3), false, row); err != nil {
		t.Fatal(err)
	}
	if err := l.AppendEpochMark(2); err != nil {
		t.Fatal(err)
	}
	if l.Bytes() == 0 {
		t.Fatal("no bytes accounted")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	frames := readLog(t, path)
	if len(frames) != 2 {
		t.Fatalf("%d frames, want the write's and the mark's", len(frames))
	}
	if f := frames[0]; f.Epoch != 2 || len(f.Entries) != 1 {
		t.Fatalf("write frame: %+v", f)
	}
	if e := frames[0].Entries[0]; e.IsOp() || e.Absent || e.Table != 0 || e.Key != storage.K1(7) ||
		e.TID != storage.MakeTID(2, 3) || !bytes.Equal(e.Row, row) || e.Part != 1 {
		t.Fatalf("entry mismatch: %+v", e)
	}
	if m := frames[1]; m.Epoch != 2 || len(m.Entries) != 0 {
		t.Fatalf("epoch mark: %+v", m)
	}
}

func TestTornTailIgnored(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "torn.log")
	l, _ := Create(path)
	row := schema().NewRow()
	l.AppendWrite(0, 0, storage.K1(1), storage.MakeTID(1, 1), false, row)
	l.AppendEpochMark(1)
	l.Close()
	// Append garbage simulating a torn write at crash.
	f, _ := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	f.Write([]byte{0xde, 0xad, 0xbe})
	f.Close()

	if n := len(readLog(t, path)); n != 2 {
		t.Fatalf("read %d frames, want 2 (garbage tail ignored)", n)
	}
}

// TestCorruptMiddleStopsReplay: a frame that fails its CRC ends the log —
// the frames before it come back, none after it does.
func TestCorruptMiddleStopsReplay(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "c.log")
	l, _ := Create(path)
	row := schema().NewRow()
	var ends []int64
	for i := uint64(1); i <= 5; i++ {
		l.AppendWrite(0, 0, storage.K1(i), storage.MakeTID(1, i), false, row)
		l.Flush(false)
		ends = append(ends, l.Bytes())
	}
	l.Close()
	data, _ := os.ReadFile(path)
	data[ends[1]+frameHeader+2] ^= 0xFF // a byte inside the third frame's body
	os.WriteFile(path, data, 0o644)

	if n := len(readLog(t, path)); n != 2 {
		t.Fatalf("CRC must end the log at the corrupt frame; read %d frames, want 2", n)
	}
}

// TestFramesHoldAtMostFrameBytes: a logger that is never flushed still
// writes its entries out as frames of about frameBytes, so a checkpoint
// never holds the database in memory.
func TestFramesHoldAtMostFrameBytes(t *testing.T) {
	var sink bytes.Buffer
	l := NewLogger(&sink)
	row := bytes.Repeat([]byte{7}, 100)
	for i := uint64(1); i <= 2000; i++ {
		l.AppendWrite(0, 0, storage.K1(i), storage.MakeTID(1, i), false, row)
	}
	if written := l.Bytes(); written < 2*frameBytes {
		t.Fatalf("%d bytes written before any flush, want the full frames of 2000 110-byte entries", written)
	}
	l.Flush(false)
	starts := frameStarts(sink.Bytes())
	for i := 1; i < len(starts); i++ {
		if n := starts[i] - starts[i-1]; n > headRoom+frameBytes+replication.MaxEntryHeaderLen+3+len(row) {
			t.Fatalf("frame %d holds %d bytes", i-1, n)
		}
	}
}

func TestRecoverFromLogsOnly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	l, _ := Create(path)
	s := schema()

	write := func(k uint64, v int64, epoch, seq uint64) {
		row := s.NewRow()
		s.SetInt64(row, 0, v)
		l.AppendWrite(0, int32(k%2), storage.K1(k), storage.MakeTID(epoch, seq), false, row)
	}
	write(1, 10, 2, 1)
	write(2, 20, 2, 2)
	l.AppendEpochMark(2)
	write(1, 99, 3, 1) // epoch 3 never committed (no mark): must be discarded
	l.Close()

	db := newDB(nil, 1)
	epoch, applied, err := Recover(db, "", []string{path})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 2 {
		t.Fatalf("recovered epoch %d, want 2", epoch)
	}
	if applied != 2 {
		t.Fatalf("applied %d, want 2", applied)
	}
	if v, ok := dbValue(db, 1); !ok || v != 10 {
		t.Fatalf("k1=%d,%v; uncommitted epoch-3 write must not surface", v, ok)
	}
	if v, _ := dbValue(db, 2); v != 20 {
		t.Fatalf("k2=%d", v)
	}
}

// TestRecoverWithoutMarkDiscardsFirstEpoch: a crash inside the first
// epoch leaves writes and no mark. Nothing was group-committed, so
// nothing recovers.
func TestRecoverWithoutMarkDiscardsFirstEpoch(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	l, _ := Create(path)
	row := schema().NewRow()
	schema().SetInt64(row, 0, 5)
	l.AppendWrite(0, 1, storage.K1(1), storage.MakeTID(1, 1), false, row)
	l.Close()

	db := newDB(nil, 1)
	epoch, applied, err := Recover(db, "", []string{path})
	if err != nil || epoch != 0 || applied != 0 {
		t.Fatalf("epoch %d applied %d err %v; want epoch 0 and nothing applied", epoch, applied, err)
	}
	if _, ok := dbValue(db, 1); ok {
		t.Fatal("an epoch no fence committed surfaced")
	}
}

// TestCheckpointHeaderBoundsDurableEpoch: the checkpointer stamps the
// epoch in flight, E. With no mark in the logs, what recovers is the
// rows of epochs before E — from the checkpoint and the logs alike.
func TestCheckpointHeaderBoundsDurableEpoch(t *testing.T) {
	dir := t.TempDir()
	s := schema()
	db := newDB(nil, 1)
	for k, epoch := range map[uint64]uint64{1: 3, 2: 4, 3: 5} {
		row := s.NewRow()
		s.SetInt64(row, 0, int64(10*k))
		db.Table(0).LandThomas(int(k%2), storage.K1(k), epoch, storage.MakeTID(epoch, 1), storage.Write{Kind: storage.WriteRow, Row: row}, nil)
	}
	ckpt := filepath.Join(dir, "ckpt")
	if _, err := WriteCheckpoint(db, ckpt, 4); err != nil {
		t.Fatal(err)
	}
	logPath := filepath.Join(dir, "w.log")
	l, _ := Create(logPath)
	row := s.NewRow()
	s.SetInt64(row, 0, 99)
	l.AppendWrite(0, 1, storage.K1(1), storage.MakeTID(4, 2), false, row) // epoch 4: no mark
	l.AppendWrite(0, 0, storage.K1(4), storage.MakeTID(3, 2), false, row) // epoch 3: durable
	l.Close()

	db2 := newDB(nil, 1)
	epoch, _, err := Recover(db2, ckpt, []string{logPath})
	if err != nil || epoch != 3 {
		t.Fatalf("epoch %d err %v, want 3", epoch, err)
	}
	for k, want := range map[uint64]int64{1: 10, 4: 99} {
		if v, ok := dbValue(db2, k); !ok || v != want {
			t.Fatalf("k%d=%d,%v, want %d", k, v, ok, want)
		}
	}
	for _, k := range []uint64{2, 3} {
		if _, ok := dbValue(db2, k); ok {
			t.Fatalf("k%d, written in epoch %d or later, recovered", k, 4)
		}
	}
}

// TestRecoverRefusesOperationEntry: a log holds row images; a frame with
// an operation entry in it is an error, and the entry never lands.
func TestRecoverRefusesOperationEntry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "w.log")
	op := &replication.Batch{Epoch: 2, Entries: []replication.Entry{{Part: 1, Key: storage.K1(3), TID: storage.MakeTID(2, 1),
		Ops: []storage.FieldOp{storage.AddInt64Op(0, 1)}}}}
	log := append(frame(replication.AppendBatch(nil, op)), frame(replication.AppendBatch(nil, &replication.Batch{Epoch: 2}))...)
	os.WriteFile(path, log, 0o644)
	db := newDB(nil, 1)
	if _, _, err := Recover(db, "", []string{path}); err == nil {
		t.Fatal("an operation entry was replayed")
	}
	if db.Table(0).Partition(1).Get(storage.K1(3)) != nil {
		t.Fatal("the operation entry landed")
	}
}

func TestCheckpointPlusLogRecovery(t *testing.T) {
	dir := t.TempDir()
	db := newDB(map[uint64]int64{1: 100, 2: 200, 3: 300}, 2)

	ckpt := filepath.Join(dir, "ckpt")
	if _, err := WriteCheckpoint(db, ckpt, 2); err != nil {
		t.Fatal(err)
	}
	if e, err := checkpointEpoch(ckpt); err != nil || e != 2 {
		t.Fatalf("checkpoint epoch %d err=%v", e, err)
	}

	// Post-checkpoint activity in epoch 3, committed.
	logPath := filepath.Join(dir, "w.log")
	l, _ := Create(logPath)
	s := schema()
	row := s.NewRow()
	s.SetInt64(row, 0, 111)
	l.AppendWrite(0, 1, storage.K1(1), storage.MakeTID(3, 1), false, row)
	l.AppendEpochMark(3)
	l.Close()

	// Fresh node recovers checkpoint + log.
	db2 := newDB(nil, 1)
	epoch, _, err := Recover(db2, ckpt, []string{logPath})
	if err != nil {
		t.Fatal(err)
	}
	if epoch != 3 {
		t.Fatalf("epoch=%d", epoch)
	}
	if v, _ := dbValue(db2, 1); v != 111 {
		t.Fatalf("k1=%d, want log to supersede checkpoint", v)
	}
	if v, _ := dbValue(db2, 2); v != 200 {
		t.Fatalf("k2=%d, want checkpoint value", v)
	}
	if v, _ := dbValue(db2, 3); v != 300 {
		t.Fatalf("k3=%d", v)
	}
}

// A fuzzy checkpoint can capture a mix of old and new versions; replaying
// the logs with the Thomas write rule corrects it (§4.5.1: "a checkpoint
// does not need to be a consistent snapshot").
func TestFuzzyCheckpointCorrectedByThomasRule(t *testing.T) {
	dir := t.TempDir()
	db := newDB(map[uint64]int64{5: 50}, 2)
	// Log contains the epoch-3 update of key 5.
	logPath := filepath.Join(dir, "w.log")
	l, _ := Create(logPath)
	s := schema()
	row := s.NewRow()
	s.SetInt64(row, 0, 55)
	l.AppendWrite(0, 1, storage.K1(5), storage.MakeTID(3, 1), false, row)
	l.AppendEpochMark(3)
	l.Close()

	// Checkpoint taken AFTER the epoch-3 write landed (fuzzy: it contains
	// the newer version even though its header says epoch 2).
	db.Table(0).LandThomas(1, storage.K1(5), 3, storage.MakeTID(3, 1), storage.Write{Kind: storage.WriteRow, Row: row}, nil)
	ckpt := filepath.Join(dir, "ckpt")
	if _, err := WriteCheckpoint(db, ckpt, 2); err != nil {
		t.Fatal(err)
	}

	db2 := newDB(nil, 1)
	if _, _, err := Recover(db2, ckpt, []string{logPath}); err != nil {
		t.Fatal(err)
	}
	if v, _ := dbValue(db2, 5); v != 55 {
		t.Fatalf("k5=%d; replay must converge on the newest committed version", v)
	}
}

// TestRecoverRejectsDeleteOfNeverWrittenKey pins the ghost-delete
// check: in a log-only recovery every deleted key must have appeared as
// a value first (the engine only deletes rows its own logs created), so
// an orphan delete means a corrupt or mismatched log set.
func TestRecoverRejectsDeleteOfNeverWrittenKey(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "w.log")
	l, _ := Create(path)
	s := schema()
	row := s.NewRow()
	s.SetInt64(row, 0, 1)
	l.AppendWrite(0, 1, storage.K1(1), storage.MakeTID(2, 1), false, row)
	l.AppendDelete(0, 1, storage.K1(9), storage.MakeTID(2, 2)) // key 9 was never written
	l.AppendEpochMark(2)
	l.Close()

	db := newDB(nil, 1)
	if _, _, err := Recover(db, "", []string{path}); err == nil {
		t.Fatal("delete of a never-written key must fail log-only recovery")
	}
}

// TestRecoverGhostDeleteWaivedWithCheckpoint: with a checkpoint, the
// fuzzy scan can legitimately have reclaimed a tombstone between
// passing its bucket and the log suffix being cut, so the same orphan
// delete is indistinguishable from truncation and must be tolerated.
func TestRecoverGhostDeleteWaivedWithCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db := newDB(map[uint64]int64{1: 100}, 2)
	ckpt := filepath.Join(dir, "ckpt")
	if _, err := WriteCheckpoint(db, ckpt, 2); err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(dir, "w.log")
	l, _ := Create(path)
	l.AppendDelete(0, 1, storage.K1(9), storage.MakeTID(3, 1)) // not in checkpoint or log
	l.AppendEpochMark(3)
	l.Close()

	db2 := newDB(nil, 1)
	if _, _, err := Recover(db2, ckpt, []string{path}); err != nil {
		t.Fatalf("orphan delete must be waived under a checkpoint: %v", err)
	}
	if v, ok := dbValue(db2, 1); !ok || v != 100 {
		t.Fatalf("checkpoint row lost: %d %v", v, ok)
	}
	if _, ok := dbValue(db2, 9); ok {
		t.Fatal("deleted key resurfaced")
	}
}

// TestRecoverDeleteBeforeInsertAcrossLogs: worker A's log holds the
// epoch-3 delete, worker B's the epoch-2 insert, and replay visits the
// delete first. The ghost must clear when the insert arrives and the
// Thomas write rule must leave the key absent.
func TestRecoverDeleteBeforeInsertAcrossLogs(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.log")
	la, _ := Create(a)
	la.AppendDelete(0, 1, storage.K1(5), storage.MakeTID(3, 1))
	la.AppendEpochMark(3)
	la.Close()

	b := filepath.Join(dir, "b.log")
	lb, _ := Create(b)
	s := schema()
	row := s.NewRow()
	s.SetInt64(row, 0, 50)
	lb.AppendWrite(0, 1, storage.K1(5), storage.MakeTID(2, 1), false, row)
	lb.AppendEpochMark(3)
	lb.Close()

	db := newDB(nil, 1)
	if _, _, err := Recover(db, "", []string{a, b}); err != nil {
		t.Fatalf("legitimate out-of-order delete rejected: %v", err)
	}
	if _, ok := dbValue(db, 5); ok {
		t.Fatal("epoch-3 delete must win over the epoch-2 write")
	}
}

// TestRecoverSkipsRevertedAttempt: epoch 3 fails and is retried under
// the same number. Each logger's entries of the aborted attempt lie
// before its revert mark — for one logger a checkpoint round moved it to
// its next segment in between — and the retry's epoch mark must not
// bring them back. The retry's own entries, behind the mark, recover.
func TestRecoverSkipsRevertedAttempt(t *testing.T) {
	d := NewDir(t.TempDir(), 0)
	a, _ := d.Create("worker0")
	b, _ := d.Create("worker1")
	s := schema()
	write := func(l *Logger, k uint64, v int64, epoch, seq uint64) {
		row := s.NewRow()
		s.SetInt64(row, 0, v)
		l.AppendWrite(0, int32(k%2), storage.K1(k), storage.MakeTID(epoch, seq), false, row)
	}
	write(a, 1, 10, 2, 1)
	a.AppendEpochMark(2)
	write(a, 2, 66, 3, 1) // the aborted attempt: never redone
	write(a, 1, 67, 3, 2)
	write(b, 3, 68, 3, 3)
	if err := b.rotate(1); err != nil {
		t.Fatal(err)
	}
	if err := d.Revert(3); err != nil {
		t.Fatal(err)
	}
	write(a, 1, 11, 3, 1) // the retry
	a.AppendEpochMark(3)
	if err := d.Close(); err != nil {
		t.Fatal(err)
	}
	_, logs, _ := d.Live()
	if got, err := MaxDurableEpoch(logs); err != nil || got != 3 {
		t.Fatalf("durable epoch %d err=%v: a revert mark is no epoch mark", got, err)
	}
	db := newDB(nil, 1)
	if _, applied, err := Recover(db, "", logs); err != nil || applied != 2 {
		t.Fatalf("applied %d err=%v, want the epoch-2 write and the retry's", applied, err)
	}
	if v, _ := dbValue(db, 1); v != 11 {
		t.Fatalf("k1=%d, want the retry's 11", v)
	}
	for _, k := range []uint64{2, 3} {
		if _, ok := dbValue(db, k); ok {
			t.Fatalf("k%d, written only by the reverted attempt, recovered", k)
		}
	}
}

func TestMaxDurableEpochAcrossWorkers(t *testing.T) {
	dir := t.TempDir()
	var paths []string
	for i, e := range []uint64{3, 5, 4} {
		p := filepath.Join(dir, "w"+string(rune('0'+i))+".log")
		l, _ := Create(p)
		l.AppendEpochMark(e)
		l.Close()
		paths = append(paths, p)
	}
	got, err := MaxDurableEpoch(paths)
	if err != nil || got != 5 {
		t.Fatalf("max epoch %d err=%v", got, err)
	}
}

func TestLoggerOnPlainWriterCountsBytes(t *testing.T) {
	var sink bytes.Buffer
	l := NewLogger(&sink)
	row := schema().NewRow()
	if err := l.AppendWrite(0, 0, storage.K1(1), 5, false, row); err != nil {
		t.Fatal(err)
	}
	if err := l.Flush(true); err != nil { // sync on non-file is a no-op
		t.Fatal(err)
	}
	if int64(sink.Len()) != l.Bytes() {
		t.Fatalf("sink=%d accounted=%d", sink.Len(), l.Bytes())
	}
}
