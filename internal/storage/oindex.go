package storage

import (
	"bytes"
	"sync"
	"sync/atomic"
)

// OrderedIndex is a per-partition secondary index: an ordered set of
// (value, primary key) entries implemented as a skiplist with the same
// memory-model discipline as the primary hash index (index.go):
//
//   - Reads are latch-free — a lookup is a chain of atomic pointer loads
//     plus one atomic state load per candidate entry. No reader ever
//     takes a mutex or a record latch.
//
//   - Writers (inserts, deletes, epoch reverts, commit bookkeeping)
//     serialize on the index's own mutex. Inserts publish a fully
//     initialised node with one atomic store per level, bottom-up, so a
//     reader that observes a node observes its immutable val/pk and a
//     coherent next chain. An entry whose insert is rolled back by an
//     epoch revert is tombstoned in place (its state word gains the dead
//     bit) and may be revived by a later re-insert. A committed delete is
//     physically unlinked at the epoch fence (commitEpochBefore), once no
//     fence reader can see it: unlinking only redirects predecessor
//     pointers forward under the mutex, so a concurrent latch-free reader
//     standing on the node still follows its (immutable) next chain.
//
//   - Tower heights derive from a pure hash of (val, pk), not an RNG, so
//     every replica builds byte-identical structures from the same
//     inserts — replica convergence checks can fold index contents into
//     partition checksums.
//
// Epoch visibility: each entry carries the epoch of the insert that
// created (or revived) it. A fence-snapshot reader at epoch E skips
// entries inserted at E or later — exactly mirroring how
// Record.ReadStableAtFenceAppend hides in-flight row versions — so the
// read-only snapshot path sees a transactionally consistent index.
// Current-mode readers pass IndexAllEpochs and see every live entry.
//
// Entries point at primary keys, not records; Table.Land moves them with
// every write that changes an indexed value (land.go).

// IndexAllEpochs makes a lookup return every live entry regardless of
// its insert epoch (the current-state read mode).
const IndexAllEpochs = ^uint64(0)

// oiDead marks a tombstoned entry in the state word; the remaining bits
// hold the insert epoch.
const oiDead = uint64(1) << 63

const oiMaxHeight = 16

// oiNode is one skiplist entry. val and pk are immutable after
// publication; state is atomic (insert epoch + dead bit); next pointers
// are written only under the index mutex and read atomically.
//
// delEpoch disambiguates the two meanings of the dead bit: 0 means the
// entry's insert was reverted (never committed — invisible at every
// fence), non-zero is the epoch a committed-path delete tombstoned it
// (still visible to fence-snapshot readers whose epoch the delete has
// not passed).
type oiNode struct {
	val      []byte
	pk       Key
	state    atomic.Uint64
	delEpoch atomic.Uint64
	next     []atomic.Pointer[oiNode]
}

// visibleAt reports whether the entry is visible to a reader pinned at
// atEpoch (IndexAllEpochs = current state).
func (n *oiNode) visibleAt(atEpoch uint64) bool {
	s := n.state.Load()
	if s&^oiDead >= atEpoch {
		return false // inserted at or after the fence
	}
	if s&oiDead == 0 {
		return true
	}
	de := n.delEpoch.Load()
	return de != 0 && de >= atEpoch // deleted, but not yet at this fence
}

// before reports whether n sorts strictly before (val, pk).
func (n *oiNode) before(val []byte, pk Key) bool {
	switch bytes.Compare(n.val, val) {
	case -1:
		return true
	case 1:
		return false
	}
	if n.pk.Hi != pk.Hi {
		return n.pk.Hi < pk.Hi
	}
	return n.pk.Lo < pk.Lo
}

// OrderedIndex is one partition's instance of a declared secondary
// index. See the package comment above for the concurrency contract.
type OrderedIndex struct {
	head *oiNode

	mu      sync.Mutex          // serializes inserts, deletes, reverts and commit bookkeeping
	pend    epochLog[[]*oiNode] // entries inserted while their epoch is revertable
	pendDel epochLog[[]*oiNode] // entries deleted while their epoch is revertable
}

func newOrderedIndex() *OrderedIndex {
	return &OrderedIndex{head: &oiNode{next: make([]atomic.Pointer[oiNode], oiMaxHeight)}}
}

// oiHeight derives a deterministic tower height from the entry itself
// (geometric p=1/2), so replicas build identical structures.
func oiHeight(val []byte, pk Key) int {
	h := hashKey(pk)
	for _, b := range val {
		h = (h ^ uint64(b)) * 1099511628211
	}
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 33
	lvl := 1
	for h&1 == 1 && lvl < oiMaxHeight {
		lvl++
		h >>= 1
	}
	return lvl
}

// findPreds fills preds with the rightmost node before (val, pk) at each
// level. Caller may hold the mutex (writers) or not (the read path uses
// only level-0 continuation).
func (ix *OrderedIndex) findPreds(val []byte, pk Key, preds *[oiMaxHeight]*oiNode) {
	x := ix.head
	for lvl := oiMaxHeight - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt != nil && nxt.before(val, pk) {
				x = nxt
				continue
			}
			break
		}
		preds[lvl] = x
	}
}

// Insert publishes (val, pk) under epoch. A live duplicate is a no-op
// (replication replay, snapshot catch-up); a tombstoned duplicate is
// revived under the new epoch. The value bytes are copied.
func (ix *OrderedIndex) Insert(val []byte, pk Key, epoch uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var preds [oiMaxHeight]*oiNode
	ix.findPreds(val, pk, &preds)
	if n := preds[0].next[0].Load(); n != nil && n.pk == pk && bytes.Equal(n.val, val) {
		if s := n.state.Load(); s&oiDead != 0 {
			if n.delEpoch.Load() != 0 {
				// Re-insert over a not-yet-reclaimed delete: undo the
				// delete, keeping the original insert epoch so fence
				// readers that predate it still see the entry. The stale
				// pendDel entry is skipped by its delEpoch check on both
				// revert and reclaim.
				n.delEpoch.Store(0)
				n.state.Store(s &^ oiDead)
			} else {
				// Revived reverted insert: a fresh revertable insert.
				n.delEpoch.Store(0)
				n.state.Store(epoch &^ oiDead)
				b := ix.pend.at(epoch)
				*b = append(*b, n)
			}
		}
		return
	}
	h := oiHeight(val, pk)
	n := &oiNode{
		val:  append([]byte(nil), val...),
		pk:   pk,
		next: make([]atomic.Pointer[oiNode], h),
	}
	n.state.Store(epoch &^ oiDead)
	for lvl := 0; lvl < h; lvl++ {
		n.next[lvl].Store(preds[lvl].next[lvl].Load())
	}
	// Publish bottom-up: after the level-0 store the node is reachable
	// and fully initialised; higher levels only add shortcuts.
	for lvl := 0; lvl < h; lvl++ {
		preds[lvl].next[lvl].Store(n)
	}
	b := ix.pend.at(epoch)
	*b = append(*b, n)
}

// Delete tombstones the live entry (val, pk) under epoch. The entry
// stays visible to fence-snapshot readers the delete has not passed
// (delEpoch >= their fence) and is revertable until the epoch commits;
// commitEpochBefore then unlinks it physically. Deleting a missing or
// already-dead entry is a no-op (replication replay, Thomas-rule skips).
func (ix *OrderedIndex) Delete(val []byte, pk Key, epoch uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	var preds [oiMaxHeight]*oiNode
	ix.findPreds(val, pk, &preds)
	n := preds[0].next[0].Load()
	if n == nil || n.pk != pk || !bytes.Equal(n.val, val) {
		return
	}
	s := n.state.Load()
	if s&oiDead != 0 {
		return
	}
	n.delEpoch.Store(epoch)
	n.state.Store(s | oiDead)
	b := ix.pendDel.at(epoch)
	*b = append(*b, n)
}

// LookupAppend appends every primary key stored under val and visible at
// atEpoch to dst, in ascending key order. atEpoch == IndexAllEpochs sees
// all live entries; a fence-snapshot reader passes its in-flight epoch
// and entries inserted at or after it stay hidden. Latch-free.
func (ix *OrderedIndex) LookupAppend(val []byte, atEpoch uint64, dst []Key) []Key {
	x := ix.head
	for lvl := oiMaxHeight - 1; lvl >= 0; lvl-- {
		for {
			nxt := x.next[lvl].Load()
			if nxt != nil && nxt.before(val, Key{}) {
				x = nxt
				continue
			}
			break
		}
	}
	for n := x.next[0].Load(); n != nil && bytes.Equal(n.val, val); n = n.next[0].Load() {
		if !n.visibleAt(atEpoch) {
			continue
		}
		dst = append(dst, n.pk)
	}
	return dst
}

// Range calls fn for every live entry in (val, pk) order; fn must not
// call back into the index. Latch-free and fuzzy like Partition.Range —
// quiesced callers (checksums, probes) see a stable ordered image.
func (ix *OrderedIndex) Range(fn func(val []byte, pk Key) bool) {
	for n := ix.head.next[0].Load(); n != nil; n = n.next[0].Load() {
		if n.state.Load()&oiDead != 0 {
			continue
		}
		if !fn(n.val, n.pk) {
			return
		}
	}
}

// Len counts live entries (tests).
func (ix *OrderedIndex) Len() int {
	n := 0
	ix.Range(func([]byte, Key) bool { n++; return true })
	return n
}

// revertEpoch rolls back the epoch's index writes (0 = wildcard: every
// pending write, the rejoin cleanup): deleted entries are resurrected,
// then inserted entries are tombstoned — in that order, so an entry both
// inserted and deleted in the reverted epoch ends up dead, as if the
// epoch never ran. Buckets for other epochs are kept revertable.
func (ix *OrderedIndex) revertEpoch(epoch uint64) {
	ix.mu.Lock()
	defer ix.mu.Unlock()
	for _, b := range ix.pendDel.take(epoch) {
		for _, n := range b.v {
			if n.state.Load()&oiDead != 0 && n.delEpoch.Load() == b.epoch {
				n.delEpoch.Store(0)
				n.state.Store(n.state.Load() &^ oiDead)
			}
		}
	}
	for _, b := range ix.pend.take(epoch) {
		for _, n := range b.v {
			if s := n.state.Load(); epoch == 0 || s&^oiDead == epoch {
				n.delEpoch.Store(0)
				n.state.Store(s | oiDead)
			}
		}
	}
}

// unlink splices n out of the list at every level it occupies. Caller
// holds the mutex; readers standing on n still follow its next chain.
func (ix *OrderedIndex) unlink(n *oiNode) {
	var preds [oiMaxHeight]*oiNode
	ix.findPreds(n.val, n.pk, &preds)
	for lvl := 0; lvl < len(n.next); lvl++ {
		if preds[lvl].next[lvl].Load() == n {
			preds[lvl].next[lvl].Store(n.next[lvl].Load())
		}
	}
}

// commitEpochBefore commits the epochs before `epoch`: pending-insert
// buckets are dropped (constant time), and committed deletes are
// physically unlinked — the fence guarantees no snapshot reader at
// epoch >= `epoch` can see an entry deleted earlier, so reclamation
// here is epoch-safe. A node revived by a later re-insert (delEpoch
// reset) is left alone.
func (ix *OrderedIndex) commitEpochBefore(epoch uint64) {
	ix.mu.Lock()
	ix.pend.before(epoch)
	for _, b := range ix.pendDel.before(epoch) {
		for _, n := range b.v {
			if n.state.Load()&oiDead != 0 && n.delEpoch.Load() == b.epoch {
				ix.unlink(n)
			}
		}
	}
	ix.mu.Unlock()
}

// oiMaxTail caps LookupTailAppend's bound (the ring lives on the stack).
const oiMaxTail = 64

// LookupTailAppend appends the LAST (greatest-key) visible entries for
// val — at most max of them, capped at 64 — to dst in ascending order.
// The common case (the newest entry is live and visible, max == 1) is a
// single O(log n) descent; only when that entry is hidden, or more than
// one is wanted, does it fall back to a forward walk that keeps the
// last max visible entries. Latch-free. Order-Status uses this for
// "the customer's most recent order" so the query cost stays bounded as
// the order history grows.
func (ix *OrderedIndex) LookupTailAppend(val []byte, atEpoch uint64, max int, dst []Key) []Key {
	if max <= 0 {
		return dst
	}
	if max > oiMaxTail {
		max = oiMaxTail
	}
	var preds [oiMaxHeight]*oiNode
	ix.findPreds(val, Key{Hi: ^uint64(0), Lo: ^uint64(0)}, &preds)
	last := preds[0]
	if last == ix.head || !bytes.Equal(last.val, val) {
		return dst
	}
	if max == 1 {
		if last.visibleAt(atEpoch) {
			return append(dst, last.pk)
		}
		// Newest entry hidden: fall through to the bounded walk.
	}
	// Forward walk from the first entry of val, keeping the last max
	// visible entries in a stack ring.
	var ring [oiMaxTail]Key
	n, seen := 0, 0
	ix.findPreds(val, Key{}, &preds)
	for x := preds[0].next[0].Load(); x != nil && bytes.Equal(x.val, val); x = x.next[0].Load() {
		if !x.visibleAt(atEpoch) {
			continue
		}
		ring[n%max] = x.pk
		n = (n + 1) % max
		seen++
	}
	if seen > max {
		seen = max
	}
	start := ((n-seen)%max + max) % max
	for i := 0; i < seen; i++ {
		dst = append(dst, ring[(start+i)%max])
	}
	return dst
}
