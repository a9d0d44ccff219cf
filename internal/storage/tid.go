// Package storage implements STAR's in-memory storage substrate: fixed
// schema rows, Silo-style TID words, records keeping two versions (for
// epoch revert on failure, §4.5.2 of the paper), partitioned hash tables
// with optional secondary indexes, and the field operations used by
// operation replication (§5).
//
// Reading is open to every package (Get, the ReadStable family, index
// lookups). Writing is not: a record changes only inside Table.Land
// (land.go), which owns the landing contract — save the pre-epoch
// version, register it for revert, keep the indexes, stamp the TID word —
// so the pieces of that contract are not exported to be re-assembled.
// Load time is the one exception: Table.Fill (fill.go) puts the rows of a
// partition nothing uses yet in place, committed.
package storage

import "fmt"

// A TID word packs, into one uint64:
//
//	bit  0      lock bit (record latch)
//	bit  1      absent bit (tombstone / not-yet-inserted)
//	bits 2..33  sequence number (32 bits)
//	bits 34..63 epoch number (30 bits)
//
// TIDs of conflicting writes are assigned in serial-equivalent order
// (Silo's three rules), so the Thomas write rule "apply if newer" is safe
// for value replication.
const (
	TIDLockBit    uint64 = 1 << 0
	TIDAbsentBit  uint64 = 1 << 1
	tidSeqShift          = 2
	tidSeqMask    uint64 = (1<<32 - 1) << tidSeqShift
	tidEpochShift        = 34
)

// MakeTID builds an unlocked, present TID from an epoch and sequence.
func MakeTID(epoch, seq uint64) uint64 {
	return epoch<<tidEpochShift | (seq<<tidSeqShift)&tidSeqMask
}

// TIDEpoch extracts the epoch number.
func TIDEpoch(tid uint64) uint64 { return tid >> tidEpochShift }

// TIDSeq extracts the sequence number.
func TIDSeq(tid uint64) uint64 { return (tid & tidSeqMask) >> tidSeqShift }

// TIDLocked reports whether the lock bit is set.
func TIDLocked(tid uint64) bool { return tid&TIDLockBit != 0 }

// TIDAbsent reports whether the absent bit is set.
func TIDAbsent(tid uint64) bool { return tid&TIDAbsentBit != 0 }

// TIDClean strips the lock and absent bits, leaving the version.
func TIDClean(tid uint64) uint64 { return tid &^ (TIDLockBit | TIDAbsentBit) }

// FormatTID renders a TID for diagnostics.
func FormatTID(tid uint64) string {
	s := fmt.Sprintf("e%d.s%d", TIDEpoch(tid), TIDSeq(tid))
	if TIDLocked(tid) {
		s += "+L"
	}
	if TIDAbsent(tid) {
		s += "+A"
	}
	return s
}
