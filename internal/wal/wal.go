// Package wal implements STAR's durability layer (§4.5.1): per-worker
// value logging (each entry is a single whole-record write tagged with
// its TID, so logs replay in any order under the Thomas write rule),
// epoch markers written at every replication fence (the group-commit
// boundary), fuzzy checkpoints that do not freeze the database, and
// recovery that corrects an inconsistent checkpoint by replaying logs.
//
// A log segment and a checkpoint are both a sequence of frames
//
//	[body length u32 LE][CRC-32 (IEEE) of the body u32 LE][body]
//
// whose body is a replication envelope (replication/envelope.go), the
// same encoding the replication stream and a catch-up copy carry. A
// logger writes a frame at every Flush, and once 64 KiB of entries are
// pending, so neither a log nor a checkpoint is ever held whole in
// memory. Its entries are value entries — rows and tombstones, never
// operations — stamped with the first entry's epoch. An epoch mark is an
// envelope with no entries; its Epoch is the mark. A checkpoint starts
// with the mark of the epoch in flight when its scan began. What a
// node's files in a log directory are called, and which of them are
// live, is Dir's (dir.go).
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"strconv"
	"sync"

	"star/internal/replication"
	"star/internal/storage"
)

const (
	// frameHeader is the length+CRC prefix of every frame.
	frameHeader = 8
	// headRoom is where an open frame's entries start in the encode
	// buffer: room for the frame header and the envelope's three uvarints
	// (sender, epoch, count), written in front of the entries once the
	// count is known, so a frame leaves in one Write, with no copy.
	headRoom = frameHeader + 3*binary.MaxVarintLen64
	// frameBytes is how many bytes of entries a logger holds before it
	// writes them as a frame without waiting for a Flush.
	frameBytes = 64 << 10
	// maxFrame bounds a frame's length on read: a logger's frames stay
	// under frameBytes plus one row, so a longer claim is a torn tail.
	maxFrame = 1 << 20
	// maxMarkLen bounds a mark's body: sender 0, an epoch of at most ten
	// bytes and a zero count. A longer frame holds entries.
	maxMarkLen = 1 + binary.MaxVarintLen64 + 1
)

// Logger writes entries as envelope frames. One logger per worker
// thread, as in the paper. The mutex exists for segment rotation: a
// Dir's checkpoint round moves a file-backed logger to its next segment
// concurrently with the owning thread's appends.
type Logger struct {
	mu    sync.Mutex
	w     *bufio.Writer
	f     *os.File // nil when backed by a plain writer
	base  string   // the path Create was given: segment 0's, and every later segment's stem
	bytes int64
	// buf is the open frame: headRoom bytes, then its n entries, each
	// coded by enc against the one before; epoch is its envelope's.
	buf   []byte
	enc   replication.EntryCoder
	n     int
	epoch uint64
}

// NewLogger wraps any writer (benchmarks use counting sinks).
func NewLogger(w io.Writer) *Logger {
	return &Logger{w: bufio.NewWriterSize(w, 1<<16), buf: make([]byte, headRoom)}
}

// Create opens a log file for appending.
func Create(path string) (*Logger, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, err
	}
	l := NewLogger(f)
	l.f = f
	l.base = path
	return l, nil
}

// Bytes returns the total frame bytes written so far (cumulative across
// rotations); entries still pending in the open frame are not counted.
func (l *Logger) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// rotate durably closes the current segment and continues appending to
// segment seg (> 0) of the logger's base path, base.seg. Entries already
// appended stay in the closed segment, until a checkpoint covers it
// (Dir.Checkpoint).
func (l *Logger) rotate(seg int) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("wal: rotate on a non-file logger")
	}
	if err := l.flushLocked(true); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	f, err := os.OpenFile(l.base+"."+strconv.Itoa(seg), os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	l.f = f
	l.w = bufio.NewWriterSize(f, 1<<16)
	return nil
}

// append encodes e into the open frame, straight into its buffer, and
// writes the frame once it holds frameBytes.
func (l *Logger) append(e *replication.Entry) error {
	if l.n == 0 {
		l.epoch = storage.TIDEpoch(e.TID)
		l.enc.Reset(l.epoch)
	}
	l.buf = l.enc.Append(l.buf, e)
	l.n++
	if len(l.buf)-headRoom < frameBytes {
		return nil
	}
	return l.seal()
}

// seal writes the open frame, if it holds an entry, and empties it.
func (l *Logger) seal() error {
	if l.n == 0 {
		return nil
	}
	err := l.writeFrame(l.epoch, l.n)
	l.buf, l.n = l.buf[:headRoom], 0
	return err
}

// writeFrame puts the envelope header for n entries, then the frame
// header, in front of the entries in buf and hands the frame to the
// writer.
func (l *Logger) writeFrame(epoch uint64, n int) error {
	var hdr [headRoom - frameHeader]byte
	h := replication.AppendBatchHeader(hdr[:0], 0, epoch, n)
	frame := l.buf[headRoom-len(h)-frameHeader:]
	copy(frame[frameHeader:], h)
	body := frame[frameHeader:]
	binary.LittleEndian.PutUint32(frame, uint32(len(body)))
	binary.LittleEndian.PutUint32(frame[4:], crc32.ChecksumIEEE(body))
	if _, err := l.w.Write(frame); err != nil {
		return err
	}
	l.bytes += int64(len(frame))
	return nil
}

// AppendWrite logs one whole-record write (absent: a tombstone, whose
// row is dropped).
func (l *Logger) AppendWrite(table storage.TableID, part int32, key storage.Key, tid uint64, absent bool, row []byte) error {
	if absent {
		row = nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.append(&replication.Entry{Table: table, Part: part, Key: key, TID: tid, Row: row, Absent: absent})
}

// AppendDelete logs a committed delete: a tombstone, which carries no
// row.
func (l *Logger) AppendDelete(table storage.TableID, part int32, key storage.Key, tid uint64) error {
	return l.AppendWrite(table, part, key, tid, true, nil)
}

// AppendEpochMark logs a group-commit boundary: every entry of epoch e is
// durable once the mark for e is. The mark is a frame of its own, behind
// the entries appended before it.
func (l *Logger) AppendEpochMark(epoch uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.seal(); err != nil {
		return err
	}
	return l.writeFrame(epoch, 0)
}

// Flush writes the pending entries as a frame and drains buffers; when
// sync is true and the logger is file-backed it also fsyncs (the fence
// flush, §4.5.1).
func (l *Logger) Flush(sync bool) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.flushLocked(sync)
}

func (l *Logger) flushLocked(sync bool) error {
	if err := l.seal(); err != nil {
		return err
	}
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

// ReadFrames hands visit the body of every frame of the file at path, in
// order — body is reused once visit returns — and stops quietly at the
// first frame that is torn or fails its CRC: damage costs only a suffix,
// and bytes a crash left unsynced count as never written. An error from
// visit ends the walk and is returned.
func ReadFrames(path string, visit func(body []byte) error) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	r := bufio.NewReaderSize(f, 1<<16)
	var hdr [frameHeader]byte
	var body []byte
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			return nil
		}
		n := binary.LittleEndian.Uint32(hdr[:])
		if n > maxFrame {
			return nil
		}
		if cap(body) < int(n) {
			body = make([]byte, n)
		}
		body = body[:n]
		if _, err := io.ReadFull(r, body); err != nil || crc32.ChecksumIEEE(body) != binary.LittleEndian.Uint32(hdr[4:]) {
			return nil
		}
		if err := visit(body); err != nil {
			return err
		}
	}
}

// ---- checkpointing ----

// WriteCheckpoint scans the database fuzzily (no freeze, §4.5.1) and
// writes a starting epoch mark plus every present record to path.tmp,
// which it syncs and renames to path: a file at path is a complete
// checkpoint. Returns bytes written.
func WriteCheckpoint(db *storage.DB, path string, epochStart uint64) (int64, error) {
	l, err := Create(path + ".tmp")
	if err != nil {
		return 0, err
	}
	err = l.AppendEpochMark(epochStart)
	for ti := 0; ti < db.NumTables() && err == nil; ti++ {
		tbl := db.Table(storage.TableID(ti))
		nparts := db.NumPartitions()
		if tbl.Replicated() {
			nparts = 1
		}
		for p := 0; p < nparts && err == nil; p++ {
			if !tbl.Replicated() && !db.Holds(p) {
				continue
			}
			part := tbl.Partition(p)
			if part == nil {
				continue
			}
			part.Range(func(key storage.Key, tid uint64, val []byte) bool {
				err = l.AppendWrite(tbl.ID(), int32(p), key, tid, false, val)
				return err == nil
			})
		}
	}
	if cerr := l.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(path+".tmp", path)
	}
	return l.Bytes(), err
}

// ---- recovery ----

// MaxDurableEpoch scans log files for the largest epoch mark: the last
// group commit known durable.
func MaxDurableEpoch(paths []string) (uint64, error) {
	var top uint64
	for _, p := range paths {
		err := ReadFrames(p, func(body []byte) error {
			if len(body) > maxMarkLen {
				return nil
			}
			if b, err := replication.DecodeBatch(body); err == nil && len(b.Entries) == 0 {
				top = max(top, b.Epoch)
			}
			return nil
		})
		if err != nil {
			return 0, err
		}
	}
	return top, nil
}

// checkpointEpoch reads the mark a checkpoint starts with.
func checkpointEpoch(path string) (uint64, error) {
	var epoch uint64
	found := false
	err := ReadFrames(path, func(body []byte) error {
		if b, err := replication.DecodeBatch(body); err == nil && len(b.Entries) == 0 {
			epoch, found = b.Epoch, true
		}
		return io.EOF // the first frame only
	})
	if err != nil && err != io.EOF {
		return 0, err
	}
	if !found {
		return 0, fmt.Errorf("wal: checkpoint %s does not start with an epoch mark", path)
	}
	return epoch, nil
}

// recKey identifies one record across the recovery pass.
type recKey struct {
	Table storage.TableID
	Part  int32
	Key   storage.Key
}

// Recover rebuilds db from a checkpoint (optional, "" to skip) plus log
// files, landing entries with the Thomas write rule. The durable epoch
// is the largest mark in the logs, or the epoch before the checkpoint's
// mark if that is larger (the checkpointer stamps the epoch in flight);
// an entry of a later epoch was never group-committed and is discarded,
// in the checkpoint as in the logs. Returns the durable epoch and the
// number of applied writes. A frame that passes its CRC but does not
// decode, and an operation entry — a log holds row images only — are
// errors.
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
	files := logs
	if checkpoint != "" {
		start, err := checkpointEpoch(checkpoint)
		if err != nil {
			return 0, 0, err
		}
		if start > 0 {
			durable = max(durable, start-1)
		}
		files = append([]string{checkpoint}, logs...)
	}
	// Recovery is one unit, committed whole at the end: every write lands
	// under one epoch, so a record is saved and registered once however
	// many epochs the logs span.
	landEpoch := max(durable, 1)
	written := make(map[recKey]struct{}) // keys seen as a value (checkpoint or log write)
	ghosts := make(map[recKey]struct{})  // keys materialised only by deletes so far
	apply := func(e *replication.Entry) error {
		if e.IsOp() {
			return fmt.Errorf("wal: operation entry for %v in table %d part %d: a log holds row images only", e.Key, e.Table, e.Part)
		}
		if storage.TIDEpoch(e.TID) > durable {
			return nil // beyond the last group commit: discard
		}
		if !e.Fits(db, false) {
			return fmt.Errorf("wal: entry for table %d part %d does not fit the database", e.Table, e.Part)
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
		ok, err := tbl.LandThomas(int(e.Part), e.Key, landEpoch, e.TID, e.Write(), nil)
		if ok {
			applied++
		}
		return err
	}
	for _, p := range files {
		err := ReadFrames(p, func(body []byte) error {
			b, err := replication.DecodeBatch(body)
			if err != nil {
				return fmt.Errorf("wal: %s: %w", p, err)
			}
			for i := range b.Entries {
				if err := apply(&b.Entries[i]); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			return 0, 0, err
		}
	}
	if checkpoint == "" && len(ghosts) > 0 {
		for rk := range ghosts {
			return 0, 0, fmt.Errorf("wal: delete of never-written key %v in table %d part %d (corrupt or mismatched log set)", rk.Key, rk.Table, rk.Part)
		}
	}
	db.CommitEpoch()
	return durable, applied, nil
}
