// Package occ implements the Silo-variant optimistic concurrency control
// STAR uses in its single-master phase (§4.2), decomposed so engines can
// compose the pieces: sorted write locking, read validation, TID
// assignment (Silo's three rules), write application and lock release.
// The same pieces also power the PB. OCC and Dist. OCC baselines.
package occ

import (
	"star/internal/storage"
	"star/internal/txn"
)

// TIDGen issues per-worker transaction IDs obeying Silo's rules:
// (a) larger than any TID in the read/write set, (b) larger than this
// worker's last TID, (c) within the current global epoch.
type TIDGen struct {
	last uint64
}

// Next returns the next TID for a transaction whose read/write-set
// maximum is maxSeen, in the given epoch.
func (g *TIDGen) Next(epoch, maxSeen uint64) uint64 {
	cand := maxSeen
	if g.last > cand {
		cand = g.last
	}
	var tid uint64
	if storage.TIDEpoch(cand) < epoch {
		tid = storage.MakeTID(epoch, 1)
	} else {
		tid = storage.MakeTID(storage.TIDEpoch(cand), storage.TIDSeq(cand)+1)
	}
	g.last = tid
	return tid
}

// lockWrites resolves and locks the write set in global order
// (RWSet.KeyOrder). On a conflict (a vanished update target, an insert of
// a present key) everything locked so far is unlocked and false is
// returned. epoch buckets any insert placeholders created here for
// revert.
func lockWrites(db *storage.DB, set *txn.RWSet, epoch uint64) bool {
	order := set.KeyOrder()
	for n, i := range order {
		w := &set.Writes[i]
		tbl := db.Table(w.Table)
		if w.Insert {
			w.Rec = tbl.Partition(w.Part).GetOrCreate(w.Key, epoch)
		} else if w.Rec == nil {
			w.Rec = tbl.Get(w.Part, w.Key)
		}
		if w.Rec == nil {
			unlock(set, order[:n])
			return false
		}
		w.Rec.Lock()
		if w.Insert != storage.TIDAbsent(w.Rec.TID()) {
			// Uniqueness violation, or update/delete of a vanished record.
			unlock(set, order[:n+1])
			return false
		}
	}
	return true
}

// unlock releases the listed entries' locks.
func unlock(set *txn.RWSet, locked []int32) {
	for _, i := range locked {
		set.Writes[i].Rec.Unlock()
	}
}

// LockAndValidate is lockWrites plus validation of the read set
// (unchanged TIDs, no foreign locks). On failure everything is unlocked
// and false is returned; the transaction must abort and may retry.
func LockAndValidate(db *storage.DB, set *txn.RWSet, epoch uint64) bool {
	if !lockWrites(db, set, epoch) {
		return false
	}
	for i := range set.Reads {
		r := &set.Reads[i]
		cur := r.Rec.TID()
		if storage.TIDClean(cur) != storage.TIDClean(r.TID) ||
			storage.TIDLocked(cur) && !inWriteSet(set, r.Rec) {
			ReleaseLocks(set)
			return false
		}
	}
	return true
}

func inWriteSet(set *txn.RWSet, rec *storage.Record) bool {
	for i := range set.Writes {
		if set.Writes[i].Rec == rec {
			return true
		}
	}
	return false
}

// land installs one write-set entry on its resolved, latched record
// through the storage layer's one landing routine, noting first whether
// it is the record's first write of the epoch. With collectRows the
// entry's Row becomes a copy of the final record value (empty for a
// delete, which replicates as an absent value entry) — the payload for
// value replication and logging.
func land(db *storage.DB, w *txn.WriteEntry, epoch, tid uint64, collectRows bool) {
	w.FirstOfEpoch = storage.TIDEpoch(w.Rec.TID()) < epoch
	wr := storage.Write{Kind: storage.WriteOps, Ops: w.Ops}
	if w.Insert {
		wr = storage.Write{Kind: storage.WriteRow, Row: w.Row}
	} else if w.Delete {
		wr = storage.Write{Kind: storage.WriteDelete}
	}
	row, err := db.Table(w.Table).Land(w.Part, w.Key, w.Rec, epoch, tid, wr)
	if err != nil {
		panic("occ: " + err.Error())
	}
	if w.Delete {
		w.Row = w.Row[:0]
	} else if collectRows {
		w.Row = append(w.Row[:0], row...)
	}
}

// ApplyWrites installs the write set under the locks taken by
// LockAndValidate, tagging records with tid. Locks remain held (the
// paper's synchronous-replication variant replicates before release).
func ApplyWrites(db *storage.DB, set *txn.RWSet, epoch, tid uint64, collectRows bool) {
	for i := range set.Writes {
		land(db, &set.Writes[i], epoch, tid, collectRows)
	}
}

// ReleaseLocks unlocks the write set after ApplyWrites.
func ReleaseLocks(set *txn.RWSet) {
	for i := range set.Writes {
		set.Writes[i].Rec.Unlock()
	}
}

// Commit is the common fast path: lock+validate, assign a TID, apply,
// release. It returns the TID and whether the transaction committed.
func Commit(db *storage.DB, set *txn.RWSet, epoch uint64, gen *TIDGen, collectRows bool) (uint64, bool) {
	if !LockAndValidate(db, set, epoch) {
		return 0, false
	}
	tid := gen.Next(epoch, set.MaxReadTID())
	ApplyWrites(db, set, epoch, tid, collectRows)
	ReleaseLocks(set)
	return tid, true
}

// CommitReadCommitted commits under READ COMMITTED (§3: "a transaction
// runs under read committed by skipping read validation on commit, since
// STAR uses OCC and uncommitted data never occurs in the database").
// Write locks are still taken in global order; only the read-set check
// is skipped, so lost-update anomalies become possible by design.
func CommitReadCommitted(db *storage.DB, set *txn.RWSet, epoch uint64, gen *TIDGen, collectRows bool) (uint64, bool) {
	if !lockWrites(db, set, epoch) {
		return 0, false
	}
	tid := gen.Next(epoch, set.MaxReadTID())
	ApplyWrites(db, set, epoch, tid, collectRows)
	ReleaseLocks(set)
	return tid, true
}

// CommitSerial commits without locking or validation — the partitioned
// phase, where a single worker owns the partition (§4.1: "it's not
// necessary to lock any record in the write set and do read validation").
// A TID is still generated and tagged onto the updated records.
//
// The abort checks (insert uniqueness, vanished update targets) run
// BEFORE any write is applied: the partition has a single writer, so
// the pre-checked facts cannot change mid-commit, and an abort must
// leave no partial write behind — a half-applied transaction would be
// local-only state that never replicates and silently diverges the
// replicas (the restart path hits this for real: a rejoined process
// re-generating its first life's history keys collides with the rows
// its snapshot catch-up restored).
func CommitSerial(db *storage.DB, set *txn.RWSet, epoch uint64, gen *TIDGen, collectRows bool) (uint64, bool) {
	for i := range set.Writes {
		w := &set.Writes[i]
		tbl := db.Table(w.Table)
		if w.Insert {
			w.Rec = tbl.Partition(w.Part).GetOrCreate(w.Key, epoch)
			if !storage.TIDAbsent(w.Rec.TID()) {
				return 0, false // uniqueness violation
			}
			for j := 0; j < i; j++ {
				if set.Writes[j].Insert && set.Writes[j].Rec == w.Rec {
					return 0, false // duplicate insert within the txn
				}
			}
			continue
		}
		if w.Rec == nil {
			w.Rec = tbl.Get(w.Part, w.Key)
		}
		if w.Rec == nil || storage.TIDAbsent(w.Rec.TID()) {
			return 0, false // update/delete of a vanished record
		}
	}
	tid := gen.Next(epoch, set.MaxReadTID())
	for i := range set.Writes {
		w := &set.Writes[i]
		w.Rec.Lock()
		land(db, w, epoch, tid, collectRows)
		w.Rec.Unlock()
	}
	return tid, true
}
