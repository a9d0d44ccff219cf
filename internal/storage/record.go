package storage

import (
	"runtime"
	"sync/atomic"
	"time"

	"star/internal/rt"
)

// SpinWait is invoked while spinning on a held record latch. The default
// yields the OS thread; InstallSpinWait, which every engine constructor
// calls, fits it to the engine's runtime. It is a package variable because
// a record has no pointer through which to reach a per-database one.
var SpinWait = runtime.Gosched

// InstallSpinWait points SpinWait at r. On the simulation runtime a
// spinning process must advance the clock instead of wedging the
// cooperative scheduler — e.g. when synchronous replication parks a
// worker that still holds its write latches (§6.1) — so it sleeps a
// little virtual time. Any other runtime gets the default back: a real
// goroutine spinning through the Sleep of a stopped simulation that an
// earlier engine in this process installed never returns.
func InstallSpinWait(r rt.Runtime) {
	if _, isSim := r.(*rt.Sim); isSim {
		SpinWait = func() { r.Sleep(200 * time.Nanosecond) }
		return
	}
	SpinWait = runtime.Gosched
}

// Record is one row version chain: the current value plus, while an epoch
// is in flight, the last value committed before that epoch. The prior
// version implements the paper's epoch revert on failure (§4.5.2: "the
// database maintains two versions of each record").
//
// The TID word doubles as the record latch. Readers take the latch
// briefly while copying (a deviation from Silo's optimistic retry loop
// chosen to keep the Go implementation free of data races; semantics are
// identical because OCC still validates the TID at commit).
type Record struct {
	tid  atomic.Uint64
	data []byte

	// Epoch-revert snapshot, guarded by the record latch.
	priorTID   uint64
	priorData  []byte
	priorValid bool
	savedEpoch uint64
}

// NewRecord builds a present record with the given value and TID.
// The row is copied.
func NewRecord(tid uint64, row []byte) *Record {
	r := &Record{data: append([]byte(nil), row...)}
	r.tid.Store(TIDClean(tid))
	return r
}

// NewAbsentRecord builds a tombstone placeholder (used when an insert is
// being replicated before the base version exists).
func NewAbsentRecord(tid uint64) *Record {
	r := &Record{}
	r.tid.Store(TIDClean(tid) | TIDAbsentBit)
	return r
}

// TID returns the current TID word (possibly with lock/absent bits set).
func (r *Record) TID() uint64 { return r.tid.Load() }

// TryLock attempts to set the lock bit; it fails if already locked.
func (r *Record) TryLock() bool {
	for {
		cur := r.tid.Load()
		if TIDLocked(cur) {
			return false
		}
		if r.tid.CompareAndSwap(cur, cur|TIDLockBit) {
			return true
		}
	}
}

// Lock spins until the lock bit is acquired.
func (r *Record) Lock() {
	for !r.TryLock() {
		SpinWait()
	}
}

// Unlock clears the lock bit.
func (r *Record) Unlock() {
	for {
		cur := r.tid.Load()
		if !TIDLocked(cur) {
			panic("storage: Unlock of unlocked record")
		}
		if r.tid.CompareAndSwap(cur, cur&^TIDLockBit) {
			return
		}
	}
}

// ReadStable copies the record's value into buf (grown as needed) and
// returns the value, its TID, and whether the record is present.
// It takes the latch briefly.
func (r *Record) ReadStable(buf []byte) (val []byte, tid uint64, present bool) {
	r.Lock()
	val, tid, present = r.copyLocked(buf)
	r.Unlock()
	return val, tid, present
}

// copyLocked is ReadStable under the latch.
func (r *Record) copyLocked(buf []byte) (val []byte, tid uint64, present bool) {
	cur := r.tid.Load()
	if TIDAbsent(cur) {
		return buf, TIDClean(cur), false
	}
	return append(buf[:0], r.data...), TIDClean(cur), true
}

// appendVersion appends a version's value, under its TID word, to arena:
// the shared body of ReadStableAppend and ReadStableAtFenceAppend.
func appendVersion(arena []byte, word uint64, data []byte) (newArena, val []byte, tid uint64, present bool) {
	tid, present = TIDClean(word), !TIDAbsent(word)
	if present {
		off := len(arena)
		arena = append(arena, data...)
		val = arena[off:len(arena):len(arena)]
	}
	return arena, val, tid, present
}

// ReadStableAppend appends the record's value to arena and returns the
// extended arena plus the appended region. Hot execution paths use it
// with a per-worker arena reset each transaction, so steady-state reads
// allocate nothing; when the arena grows, previously returned regions
// keep pointing into the old (immutable) backing array and stay valid.
func (r *Record) ReadStableAppend(arena []byte) (newArena, val []byte, tid uint64, present bool) {
	r.Lock()
	arena, val, tid, present = appendVersion(arena, r.tid.Load(), r.data)
	r.Unlock()
	return arena, val, tid, present
}

// ReadStableAtFenceAppend is ReadStableAppend pinned to the last epoch
// fence: if the record has been written in the in-flight epoch (its
// revert snapshot was saved for `epoch`), the pre-epoch version is
// returned instead of the current one. Because the replication fence
// guarantees every epoch-(E-1) write was applied before epoch E began,
// the set of fence versions across all records is a transactionally
// consistent snapshot of the database as of the last phase switch —
// readable on any replica without coordination (the read-only snapshot
// path). The returned TID is the fence version's TID.
func (r *Record) ReadStableAtFenceAppend(arena []byte, epoch uint64) (newArena, val []byte, tid uint64, present bool) {
	r.Lock()
	word, data := r.tid.Load(), r.data
	if r.savedEpoch == epoch && r.priorValid {
		word, data = r.priorTID, r.priorData
	}
	arena, val, tid, present = appendVersion(arena, word, data)
	r.Unlock()
	return arena, val, tid, present
}

// TryReadStable is ReadStable with bounded latch acquisition: after
// `attempts` failed TryLocks (with SpinWait between them) it gives up
// and returns ok=false. Message-router contexts use this so that a
// record latched by an in-flight transaction cannot wedge the router
// that must deliver that very transaction's commit.
func (r *Record) TryReadStable(buf []byte, attempts int) (val []byte, tid uint64, present, ok bool) {
	for i := 0; i < attempts; i++ {
		if r.TryLock() {
			val, tid, present = r.copyLocked(buf)
			r.Unlock()
			return val, tid, present, true
		}
		SpinWait()
	}
	return nil, 0, false, false
}

// ValueLocked returns the in-place value; the caller must hold the latch.
func (r *Record) ValueLocked() []byte { return r.data }

// savePriorLocked snapshots the current version the first time the record
// is written in the given epoch. Caller holds the latch.
func (r *Record) savePriorLocked(epoch uint64) (firstTouch bool) {
	if r.savedEpoch == epoch {
		return false
	}
	cur := r.tid.Load()
	r.priorTID = TIDClean(cur) | (cur & TIDAbsentBit)
	if TIDAbsent(cur) {
		r.priorData = nil
	} else {
		r.priorData = append(r.priorData[:0], r.data...)
	}
	r.priorValid = true
	r.savedEpoch = epoch
	return true
}

// CollectibleAt reports whether the record is a committed tombstone that
// no fence reader at or after epoch can observe — absent, unlatched, and
// last touched before the committing epoch. The partition uses it at the fence to
// decide whether the record's index slot can be physically reclaimed. A
// latched record is simply skipped this round; the next fence retries.
func (r *Record) CollectibleAt(epoch uint64) bool {
	if !r.TryLock() {
		return false
	}
	ok := TIDAbsent(r.tid.Load()) && r.savedEpoch < epoch
	r.Unlock()
	return ok
}

// revertLocked restores the pre-epoch version; caller holds the latch.
// It reports whether the record is absent after the revert (so the
// partition can drop placeholder inserts). epoch 0 is a wildcard: the
// record reverts whatever epoch its snapshot was saved for — the rejoin
// path uses it to discard ALL of a node's in-flight state, whose epoch
// the coordinator cannot know (the node may have been cut off several
// epochs ago).
func (r *Record) revertLocked(epoch uint64) (absent bool) {
	if !r.priorValid || (epoch != 0 && r.savedEpoch != epoch) {
		return TIDAbsent(r.tid.Load())
	}
	if TIDAbsent(r.priorTID) {
		r.data = r.data[:0]
		r.tid.Store(TIDClean(r.priorTID) | TIDAbsentBit | TIDLockBit)
	} else {
		r.data = append(r.data[:0], r.priorData...)
		r.tid.Store(TIDClean(r.priorTID) | TIDLockBit)
	}
	r.savedEpoch = 0
	r.priorValid = false
	return TIDAbsent(r.priorTID)
}
