// Package wal implements STAR's durability layer (§4.5.1): per-worker
// value logging (each entry is a single whole-record write tagged with
// its TID, so logs replay in any order under the Thomas write rule),
// epoch markers written at every replication fence (the group-commit
// boundary), fuzzy checkpoints that do not freeze the database, and
// recovery that corrects an inconsistent checkpoint by replaying logs.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"sync"

	"star/internal/storage"
)

// Record kinds on disk.
const (
	kindWrite     = 1
	kindEpochMark = 2
	kindDelete    = 3
)

// Entry is one durable record: a whole-row write or an epoch marker.
type Entry struct {
	Kind   uint8
	Table  storage.TableID
	Part   int32
	Key    storage.Key
	TID    uint64
	Absent bool
	Row    []byte
	Epoch  uint64 // for epoch marks
}

// Logger frames entries onto a writer with length+CRC headers.
// One logger per worker thread, as in the paper. The mutex exists for
// segment rotation: the checkpointer retires a file-backed logger's
// segment concurrently with the owning thread's appends.
type Logger struct {
	mu    sync.Mutex
	w     *bufio.Writer
	f     *os.File // nil when backed by a plain writer
	path  string   // current file path ("" when not file-backed)
	bytes int64
	buf   []byte
}

// NewLogger wraps any writer (benchmarks use counting sinks).
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: bufio.NewWriterSize(w, 1<<16)}
}

// Create opens a log file for appending.
func Create(path string) (*Logger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := NewLogger(f)
	l.f = f
	l.path = path
	return l, nil
}

// Bytes returns the total payload bytes appended so far (cumulative
// across rotations).
func (l *Logger) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// Path returns the current segment's file path ("" when the logger is
// not file-backed).
func (l *Logger) Path() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.path
}

// Rotate durably closes the current segment and continues appending to
// a fresh file at path. Entries already appended stay in the retired
// segment; the caller owns deciding when a checkpoint covers it and the
// file can be deleted.
func (l *Logger) Rotate(path string) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: rotate on a non-file logger")
	}
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.path = path
	l.w = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// frameHeader is the length+CRC prefix of every entry on disk.
const frameHeader = 8

// begin resets the encode buffer for a new entry of the given kind,
// leaving room in front for the frame header that append fills in: the
// entry leaves in one Write, and no header escapes to the heap on the
// way (a stack array handed to the bufio.Writer's underlying io.Writer
// would — once per logged write).
func (l *Logger) begin(kind byte) {
	l.buf = append(l.buf[:0], 0, 0, 0, 0, 0, 0, 0, 0, kind)
}

// beginRecord starts a write or delete entry: kind plus the record's
// table, partition, key and TID.
func (l *Logger) beginRecord(kind byte, table storage.TableID, part int32, key storage.Key, tid uint64) {
	l.begin(kind)
	l.buf = append(l.buf, byte(table))
	l.buf = binary.LittleEndian.AppendUint32(l.buf, uint32(part))
	l.buf = binary.LittleEndian.AppendUint64(l.buf, key.Hi)
	l.buf = binary.LittleEndian.AppendUint64(l.buf, key.Lo)
	l.buf = binary.LittleEndian.AppendUint64(l.buf, tid)
}

// append frames the entry begin started and hands it to the writer.
func (l *Logger) append() error {
	payload := l.buf[frameHeader:]
	binary.LittleEndian.PutUint32(l.buf[0:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(l.buf[4:], crc32.ChecksumIEEE(payload))
	if _, err := l.w.Write(l.buf); err != nil {
		return err
	}
	l.bytes += int64(len(l.buf))
	return nil
}

// AppendWrite logs one whole-record write.
func (l *Logger) AppendWrite(table storage.TableID, part int32, key storage.Key, tid uint64, absent bool, row []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.beginRecord(kindWrite, table, part, key, tid)
	if absent {
		l.buf = append(l.buf, 1)
	} else {
		l.buf = append(l.buf, 0)
	}
	l.buf = binary.LittleEndian.AppendUint16(l.buf, uint16(len(row)))
	l.buf = append(l.buf, row...)
	return l.append()
}

// AppendDelete logs a committed delete in compact form: the same header
// as a write but no row payload at all (a tombstone has no value, and
// the dedicated kind lets recovery distinguish "deleted" from "written
// with an empty row").
func (l *Logger) AppendDelete(table storage.TableID, part int32, key storage.Key, tid uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.beginRecord(kindDelete, table, part, key, tid)
	return l.append()
}

// AppendEpochMark logs a group-commit boundary: every entry of epoch e is
// durable once the mark for e is.
func (l *Logger) AppendEpochMark(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.begin(kindEpochMark)
	l.buf = binary.LittleEndian.AppendUint64(l.buf, epoch)
	return l.append()
}

// Flush drains buffers; when sync is true and the logger is file-backed
// it also fsyncs (the fence flush, §4.5.1).
func (l *Logger) Flush(sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked(sync)
}

func (l *Logger) flushLocked(sync bool) error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	if sync && l.f != nil {
		return l.f.Sync()
	}
	return nil
}

// Close flushes and closes the underlying file, if any.
func (l *Logger) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.flushLocked(true); err != nil {
		return err
	}
	if l.f != nil {
		return l.f.Close()
	}
	return nil
}

// ---- reading ----

// Reader iterates a log stream, stopping cleanly at a torn tail.
type Reader struct {
	r   *bufio.Reader
	buf []byte
}

// NewReader wraps a reader.
func NewReader(r io.Reader) *Reader { return &Reader{r: bufio.NewReaderSize(r, 1<<16)} }

// Next returns the next entry. It returns io.EOF at a clean end and also
// at a torn/corrupt tail (the damaged suffix is ignored, as recovery
// treats unsynced bytes as never written).
func (r *Reader) Next() (*Entry, error) {
	var hdr [8]byte
	if _, err := io.ReadFull(r.r, hdr[:]); err != nil {
		return nil, io.EOF
	}
	n := binary.LittleEndian.Uint32(hdr[0:])
	crc := binary.LittleEndian.Uint32(hdr[4:])
	if n > 1<<20 {
		return nil, io.EOF // implausible length: torn tail
	}
	if cap(r.buf) < int(n) {
		r.buf = make([]byte, n)
	}
	r.buf = r.buf[:n]
	if _, err := io.ReadFull(r.r, r.buf); err != nil {
		return nil, io.EOF
	}
	if crc32.ChecksumIEEE(r.buf) != crc {
		return nil, io.EOF
	}
	return decode(r.buf)
}

func decode(b []byte) (*Entry, error) {
	if len(b) < 1 {
		return nil, errors.New("wal: empty payload")
	}
	switch b[0] {
	case kindEpochMark:
		if len(b) != 9 {
			return nil, errors.New("wal: bad epoch mark")
		}
		return &Entry{Kind: kindEpochMark, Epoch: binary.LittleEndian.Uint64(b[1:])}, nil
	case kindWrite:
		if len(b) < 2+4+16+8+1+2 {
			return nil, errors.New("wal: short write entry")
		}
		e := &Entry{Kind: kindWrite, Table: storage.TableID(b[1])}
		off := 2
		e.Part = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		e.Key.Hi = binary.LittleEndian.Uint64(b[off:])
		off += 8
		e.Key.Lo = binary.LittleEndian.Uint64(b[off:])
		off += 8
		e.TID = binary.LittleEndian.Uint64(b[off:])
		off += 8
		e.Absent = b[off] == 1
		off++
		rl := int(binary.LittleEndian.Uint16(b[off:]))
		off += 2
		if len(b) != off+rl {
			return nil, fmt.Errorf("wal: row length mismatch")
		}
		e.Row = append([]byte(nil), b[off:]...)
		return e, nil
	case kindDelete:
		if len(b) != 2+4+16+8 {
			return nil, errors.New("wal: bad delete entry")
		}
		e := &Entry{Kind: kindDelete, Table: storage.TableID(b[1]), Absent: true}
		off := 2
		e.Part = int32(binary.LittleEndian.Uint32(b[off:]))
		off += 4
		e.Key.Hi = binary.LittleEndian.Uint64(b[off:])
		off += 8
		e.Key.Lo = binary.LittleEndian.Uint64(b[off:])
		off += 8
		e.TID = binary.LittleEndian.Uint64(b[off:])
		return e, nil
	default:
		return nil, fmt.Errorf("wal: unknown kind %d", b[0])
	}
}

// ---- checkpointing ----

// WriteCheckpoint scans the database fuzzily (no freeze, §4.5.1) and
// writes every present record plus a starting epoch header. Returns
// bytes written.
func WriteCheckpoint(db *storage.DB, path string, epochStart uint64) (int64, error) {
	l, err := Create(path)
	if err != nil {
		return 0, err
	}
	if err := l.AppendEpochMark(epochStart); err != nil {
		return 0, err
	}
	for ti := 0; ti < db.NumTables(); ti++ {
		tbl := db.Table(storage.TableID(ti))
		nparts := db.NumPartitions()
		if tbl.Replicated() {
			nparts = 1
		}
		for p := 0; p < nparts; p++ {
			if !tbl.Replicated() && !db.Holds(p) {
				continue
			}
			part := tbl.Partition(p)
			if part == nil {
				continue
			}
			var ferr error
			part.Range(func(key storage.Key, tid uint64, val []byte) bool {
				ferr = l.AppendWrite(tbl.ID(), int32(p), key, tid, false, val)
				return ferr == nil
			})
			if ferr != nil {
				return l.Bytes(), ferr
			}
		}
	}
	n := l.Bytes()
	return n, l.Close()
}

// CheckpointEpoch reads the starting-epoch header of a checkpoint.
func CheckpointEpoch(path string) (uint64, error) {
	f, err := os.Open(path)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	e, err := NewReader(f).Next()
	if err != nil || e.Kind != kindEpochMark {
		return 0, errors.New("wal: checkpoint missing epoch header")
	}
	return e.Epoch, nil
}

// ---- recovery ----

// MaxDurableEpoch scans log files for the largest epoch mark: the last
// group commit known durable.
func MaxDurableEpoch(paths []string) (uint64, error) {
	var max uint64
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return 0, err
		}
		r := NewReader(f)
		for {
			e, err := r.Next()
			if err != nil {
				break
			}
			if e.Kind == kindEpochMark && e.Epoch > max {
				max = e.Epoch
			}
		}
		f.Close()
	}
	return max, nil
}

// recKey identifies one record across the recovery pass.
type recKey struct {
	Table storage.TableID
	Part  int32
	Key   storage.Key
}

// Recover rebuilds db from a checkpoint (optional, "" to skip) plus log
// files, applying writes with the Thomas write rule and discarding
// entries newer than the last durable epoch (they were never group-
// committed). Returns the recovered epoch and the number of applied
// writes.
//
// Deletes participate like writes (a newer tombstone beats an older row
// and vice versa, so per-worker logs still replay in any order), and
// they rebuild the secondary indexes' deletions just as inserts rebuild
// their additions. A delete whose target is never written by ANY log is
// rejected at the end of the pass: it can only come from a corrupt or
// mismatched log set, and applying it would silently materialise a
// record that never existed. The check is deferred to the end because a
// legitimate multi-log replay may visit a key's delete (one worker's
// log) before its insert (another's). With a checkpoint the check is
// waived: the fuzzy scan can reclaim a tombstone between passing its
// bucket and the log suffix being cut, so an orphan delete there is
// indistinguishable from legitimate truncation.
func Recover(db *storage.DB, checkpoint string, logs []string) (epoch uint64, applied int, err error) {
	durable, err := MaxDurableEpoch(logs)
	if err != nil {
		return 0, 0, err
	}
	// Recovery is one unit, committed whole at the end: every write lands
	// under one epoch, so a record is saved and registered once however
	// many epochs the logs span.
	landEpoch := max(durable, 1)
	written := make(map[recKey]struct{}) // keys seen as a value (checkpoint or log write)
	ghosts := make(map[recKey]struct{})  // keys materialised only by deletes so far
	apply := func(e *Entry) error {
		if e.Kind != kindWrite && e.Kind != kindDelete {
			return nil
		}
		if storage.TIDEpoch(e.TID) > durable && durable > 0 {
			return nil // beyond the last group commit: discard
		}
		tbl := db.Table(e.Table)
		if tbl.Partition(int(e.Part)) == nil {
			return nil // not held here
		}
		rk := recKey{e.Table, e.Part, e.Key}
		if e.Absent {
			if _, ok := written[rk]; !ok {
				ghosts[rk] = struct{}{}
			}
		} else {
			written[rk] = struct{}{}
			delete(ghosts, rk)
		}
		// Secondary indexes are not logged: Land rebuilds them here, from
		// the same absent ↔ present transitions the live paths index.
		w := storage.Write{Kind: storage.WriteRow, Row: e.Row}
		if e.Absent {
			w = storage.Write{Kind: storage.WriteDelete}
		}
		ok, err := tbl.LandThomas(int(e.Part), e.Key, landEpoch, e.TID, w)
		if ok {
			applied++
		}
		return err
	}
	files := logs
	if checkpoint != "" {
		files = append([]string{checkpoint}, logs...)
	}
	for _, p := range files {
		f, err := os.Open(p)
		if err != nil {
			return 0, 0, err
		}
		r := NewReader(f)
		for {
			e, rerr := r.Next()
			if rerr != nil {
				break
			}
			if err := apply(e); err != nil {
				f.Close()
				return 0, 0, err
			}
		}
		f.Close()
	}
	if checkpoint == "" && len(ghosts) > 0 {
		for rk := range ghosts {
			return 0, 0, fmt.Errorf("wal: delete of never-written key %v in table %d part %d (corrupt or mismatched log set)", rk.Key, rk.Table, rk.Part)
		}
	}
	db.CommitEpoch()
	return durable, applied, nil
}
