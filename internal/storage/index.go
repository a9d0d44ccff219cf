package storage

import "sync/atomic"

// index is a lock-free open-addressing hash table from Key to *Record,
// built for STAR's execution phases: reads are latch-free (a single
// atomic load per probe), inserts are serialized by the owning
// Partition's insert mutex, and growth is copy-on-grow — a full rehash
// into a larger slot array published with one atomic pointer store, so
// in-flight readers keep probing a complete (if slightly stale) table.
//
// The design exploits two invariants of the engine:
//
//   - The partitioned phase has exactly one writer per partition, and the
//     single-master phase serializes inserts through GetOrCreate, so the
//     insert path can afford a mutex; the read path — every Get of every
//     transaction — cannot, and takes none.
//
//   - Slots are removed only by replacing them with a tombstone sentinel
//     that probes skip (reverted inserts, and committed deletes reclaimed
//     at the epoch fence). Probe chains therefore never shrink under a
//     reader's feet; tombstoned slots are recycled by later inserts and
//     swept out wholesale by a copy-on-write compaction once their ratio
//     crosses idxCompactNum/idxCompactDen.
//
// Memory model: an idxEntry is immutable after publication, and both the
// slot store and the table-pointer store are atomic releases paired with
// the readers' atomic acquires, so a reader that observes an entry
// observes its fully initialised fields.

// idxEntry is one published key→record binding. Immutable once stored.
type idxEntry struct {
	key Key
	rec *Record
}

// idxTombstone marks a slot whose binding was removed (reverted insert
// or fence-reclaimed delete). Probes skip it; inserts may reuse it.
var idxTombstone = &idxEntry{}

// idxTable is one generation of the slot array. len(slots) is a power of
// two and at least 1/4 empty, so linear probes always terminate.
type idxTable struct {
	slots []atomic.Pointer[idxEntry]
	used  int // occupied slots incl. tombstones; maintained under the insert mutex
	dead  int // tombstoned slots (subset of used); maintained under the insert mutex
}

const idxMinSlots = 16

// A table whose tombstones exceed 1/4 of its slots is compacted in place
// (same or smaller size) instead of doubled: a steady-size churn
// workload (insert/revert, delete/re-insert) would otherwise inflate
// probe chains and trigger spurious capacity-doubling rehashes, since
// `used` counts tombstones against the 3/4 occupancy bound.
const (
	idxCompactNum = 1
	idxCompactDen = 4
)

func newIdxTable(slots int) *idxTable {
	return &idxTable{slots: make([]atomic.Pointer[idxEntry], slots)}
}

// hashKey mixes both key words through a splitmix64-style finalizer.
func hashKey(k Key) uint64 {
	h := k.Lo*0x9e3779b97f4a7c15 ^ k.Hi*0xbf58476d1ce4e5b9
	h ^= h >> 30
	h *= 0xbf58476d1ce4e5b9
	h ^= h >> 27
	h *= 0x94d049bb133111eb
	h ^= h >> 31
	return h
}

// get is the latch-free read path: probe the current table, return the
// record or nil. Safe to call concurrently with inserts and growth.
func (t *idxTable) get(key Key) *Record {
	mask := uint64(len(t.slots) - 1)
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return nil
		}
		if e != idxTombstone && e.key == key {
			return e.rec
		}
	}
}

// insert publishes key→rec. Caller holds the partition's insert mutex and
// has verified the key is not present. It reuses the first tombstone on
// the probe path, else the terminating empty slot.
func (t *idxTable) insert(key Key, rec *Record) {
	mask := uint64(len(t.slots) - 1)
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			t.used++
			t.slots[i].Store(&idxEntry{key: key, rec: rec})
			return
		}
		if e == idxTombstone {
			t.dead--
			t.slots[i].Store(&idxEntry{key: key, rec: rec})
			return
		}
		if e.key == key {
			panic("storage: index insert of present key")
		}
	}
}

// tombstone replaces key's slot with the tombstone sentinel (epoch revert
// of an insert, or fence reclamation of a committed delete). Caller
// holds the insert mutex. A no-op when the key is not indexed.
func (t *idxTable) tombstone(key Key) {
	mask := uint64(len(t.slots) - 1)
	for i := hashKey(key) & mask; ; i = (i + 1) & mask {
		e := t.slots[i].Load()
		if e == nil {
			return
		}
		if e != idxTombstone && e.key == key {
			t.dead++
			t.slots[i].Store(idxTombstone)
			return
		}
	}
}

// live is the number of real key→record bindings.
func (t *idxTable) live() int { return t.used - t.dead }

// needsGrow reports whether one more insert would push occupancy past
// 3/4, the bound that keeps probe chains short and terminating.
func (t *idxTable) needsGrow() bool {
	return (t.used+1)*4 > len(t.slots)*3
}

// needsCompact reports whether tombstones alone justify a rehash: probe
// chains walk through them, so a churning table degrades even when its
// live count is flat.
func (t *idxTable) needsCompact() bool {
	return t.dead*idxCompactDen > len(t.slots)*idxCompactNum
}

// rebuilt rehashes live entries into a fresh table of the given size,
// dropping tombstones. Caller holds the insert mutex and publishes the
// result with an atomic store.
func (t *idxTable) rebuilt(slots int) *idxTable {
	nt := newIdxTable(slots)
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && e != idxTombstone {
			nt.insertRehash(e)
		}
	}
	return nt
}

// grown rehashes into a table sized for the live count: if tombstones
// are what pushed occupancy over the bound, the table is compacted at
// its current (or a halved) size rather than doubled.
func (t *idxTable) grown() *idxTable {
	size := len(t.slots) * 2
	// Size down to the smallest power of two that keeps the live set
	// under 1/2 full — compaction, not growth, when churn dominates.
	for size/2 >= idxMinSlots && t.live()*2 <= size/2 {
		size /= 2
	}
	return t.rebuilt(size)
}

// compacted rehashes at the current size (halving while the live set
// stays under 1/4 of the result) to sweep tombstones without growing.
func (t *idxTable) compacted() *idxTable {
	size := len(t.slots)
	for size/2 >= idxMinSlots && t.live()*2 <= size/2 {
		size /= 2
	}
	return t.rebuilt(size)
}

// insertRehash places an entry in a table without tombstones: an
// existing one during a rebuild (plain pointer reuse: entries are
// immutable), or a Filler's. It panics on a key already placed.
func (t *idxTable) insertRehash(e *idxEntry) {
	mask := uint64(len(t.slots) - 1)
	for i := hashKey(e.key) & mask; ; i = (i + 1) & mask {
		cur := t.slots[i].Load()
		if cur == nil {
			t.used++
			t.slots[i].Store(e)
			return
		}
		if cur.key == e.key {
			panic("storage: index insert of present key")
		}
	}
}
