package storage

import (
	"fmt"
	"sync"
	"sync/atomic"
)

// Key is a fixed-width composite key. Workloads pack their key components
// into the two words (helpers live with each workload's schema).
type Key struct{ Hi, Lo uint64 }

// K1 builds a single-component key.
func K1(a uint64) Key { return Key{Lo: a} }

// K2 builds a two-component key.
func K2(a, b uint64) Key { return Key{Hi: a, Lo: b} }

// KeySize is the wire size of a Key.
const KeySize = 16

// dirtyBucket holds one epoch's revert bookkeeping (Partition.dirty):
// the records whose pre-epoch version was saved in that epoch, the keys
// whose index slot was created in it, and the keys deleted in it
// (reclaimed once the epoch's fence passes).
type dirtyBucket struct {
	recs    []*Record
	keys    []Key
	delKeys []Key
}

// Partition is one hash-partition of a table, indexed by a lock-free
// open-addressing table (see index.go): reads take no latch at all —
// the partitioned phase's single writer and the OCC phase's validation
// both rely only on the per-record TID latch — while inserts (rare:
// replication placeholders and new rows) serialize on insertMu. Each
// partition also carries one OrderedIndex per secondary index declared
// on its table (see oindex.go).
type Partition struct {
	idx      atomic.Pointer[idxTable]
	insertMu sync.Mutex

	// oidx are this partition's secondary indexes, aligned with the
	// owning table's IndexSpecs. Immutable after table construction.
	oidx []*OrderedIndex

	// dirty tracks per-epoch revert state: records first-written in each
	// in-flight epoch, and the keys inserted and deleted in it.
	dirtyMu sync.Mutex
	dirty   epochLog[dirtyBucket]
}

func newPartition(nIndexes int) *Partition {
	p := &Partition{}
	p.idx.Store(newIdxTable(idxMinSlots))
	for i := 0; i < nIndexes; i++ {
		p.oidx = append(p.oidx, newOrderedIndex())
	}
	return p
}

// Get returns the record for key, or nil. Latch-free: a single atomic
// load per probe step, safe against concurrent inserts and growth.
func (p *Partition) Get(key Key) *Record {
	return p.idx.Load().get(key)
}

// GetOrCreate returns the record for key, creating an absent placeholder
// when missing (used by replication appliers and inserts). epoch is the
// epoch the caller is writing under; a created placeholder joins that
// epoch's revert bucket so a failed epoch removes it again.
func (p *Partition) GetOrCreate(key Key, epoch uint64) *Record {
	if r := p.Get(key); r != nil {
		return r
	}
	p.insertMu.Lock()
	t := p.idx.Load()
	// Re-probe under the insert mutex: another inserter may have won.
	if r := t.get(key); r != nil {
		p.insertMu.Unlock()
		return r
	}
	if t.needsGrow() {
		nt := t.grown()
		p.idx.Store(nt)
		t = nt
	}
	r := NewAbsentRecord(0)
	t.insert(key, r)
	p.insertMu.Unlock()
	p.dirtyMu.Lock()
	b := p.dirty.at(epoch)
	b.keys = append(b.keys, key)
	p.dirtyMu.Unlock()
	return r
}

// markDirty registers a record whose pre-epoch version was just saved
// for the given epoch.
func (p *Partition) markDirty(r *Record, epoch uint64) {
	p.dirtyMu.Lock()
	b := p.dirty.at(epoch)
	b.recs = append(b.recs, r)
	p.dirtyMu.Unlock()
}

// markDeleted registers a key deleted in the epoch. Once the epoch's
// fence passes (CommitEpochBefore), the key's index slot
// is tombstoned and the record becomes unreachable — physical
// reclamation, deferred to the horizon where no snapshot reader can
// still need the record's prior version.
func (p *Partition) markDeleted(key Key, epoch uint64) {
	p.dirtyMu.Lock()
	b := p.dirty.at(epoch)
	b.delKeys = append(b.delKeys, key)
	p.dirtyMu.Unlock()
}

// Index returns the partition's i-th secondary index.
func (p *Partition) Index(i int) *OrderedIndex { return p.oidx[i] }

// Len returns the number of present records.
func (p *Partition) Len() int {
	t := p.idx.Load()
	n := 0
	for i := range t.slots {
		if e := t.slots[i].Load(); e != nil && e != idxTombstone && !TIDAbsent(e.rec.TID()) {
			n++
		}
	}
	return n
}

// Range calls fn for every present record with a stable copy of its
// value. fn must not call back into the partition. Used by checkpointing
// and consistency checks; the iteration is fuzzy (not a snapshot).
func (p *Partition) Range(fn func(key Key, tid uint64, val []byte) bool) {
	t := p.idx.Load()
	var buf []byte
	for i := range t.slots {
		e := t.slots[i].Load()
		if e == nil || e == idxTombstone {
			continue
		}
		val, tid, present := e.rec.ReadStable(buf)
		buf = val
		if !present {
			continue
		}
		if !fn(e.key, tid, val) {
			return
		}
	}
}

// RevertEpoch restores every record written in the epoch to its prior
// version and removes records inserted in it (paper Fig. 6: "Revert to
// Epoch 1"), including their secondary-index entries. Returns the number
// of reverted records. epoch 0 reverts every uncommitted record
// regardless of its epoch (rejoin cleanup).
func (p *Partition) RevertEpoch(epoch uint64) int {
	p.dirtyMu.Lock()
	var recs []*Record
	var inserted []Key
	for _, b := range p.dirty.take(epoch) {
		recs = append(recs, b.v.recs...)
		inserted = append(inserted, b.v.keys...)
	}
	p.dirtyMu.Unlock()

	n := 0
	for _, r := range recs {
		r.Lock()
		r.revertLocked(epoch)
		r.Unlock()
		n++
	}
	// Placeholders created this epoch that reverted to absent are
	// tombstoned out of the index (concurrent probes skip the slot;
	// chains never break because the slot is replaced, not emptied).
	p.insertMu.Lock()
	t := p.idx.Load()
	for _, k := range inserted {
		if r := t.get(k); r != nil && TIDAbsent(r.TID()) {
			t.tombstone(k)
		}
	}
	p.insertMu.Unlock()
	for _, ix := range p.oidx {
		ix.revertEpoch(epoch)
	}
	return n
}

// reclaim tombstones the index slots of committed deletes (skipping keys
// that were re-inserted or are still latched), then compacts the slot
// array if tombstones dominate it. Runs at the epoch fence, after which
// no snapshot reader can see the deleted records.
func (p *Partition) reclaim(keys []Key, epoch uint64) {
	if len(keys) == 0 {
		return
	}
	p.insertMu.Lock()
	t := p.idx.Load()
	for _, k := range keys {
		if r := t.get(k); r != nil && r.CollectibleAt(epoch) {
			t.tombstone(k)
		}
	}
	if t.needsCompact() {
		p.idx.Store(t.compacted())
	}
	p.insertMu.Unlock()
}

// CommitEpochBefore discards revert information for epochs BEFORE epoch,
// keeping newer-epoch snapshots revertable. Replication can deliver a
// new epoch's entries ahead of the local phase-start command (the stamps
// travel on different links); committing them with the old epoch would
// orphan them from a subsequent revert of the new epoch and leave zombie
// versions the Thomas write rule then defends forever. With the dirty
// set bucketed by epoch this is a constant-time bucket drop: no record
// is latched at the phase switch. Epoch ^uint64(0) commits every epoch.
func (p *Partition) CommitEpochBefore(epoch uint64) {
	p.dirtyMu.Lock()
	var reclaim []Key
	for _, b := range p.dirty.before(epoch) {
		reclaim = append(reclaim, b.v.delKeys...)
	}
	p.dirtyMu.Unlock()
	p.reclaim(reclaim, epoch)
	for _, ix := range p.oidx {
		ix.commitEpochBefore(epoch)
	}
}

// TableID identifies a table within a database.
type TableID uint8

// IndexSpec declares one secondary index on a table: a name and the
// extractor that derives the index value from a row. Extract appends the
// value's canonical byte encoding to dst and returns it; the encoding
// must be order-preserving for the workload's scan semantics (e.g.
// big-endian integers). Specs are static program data declared with the
// schema at BuildDB time.
type IndexSpec struct {
	Name string
	// Extract derives the index value for (key, row). key carries the
	// primary-key components that are not materialised in the row.
	Extract func(s *Schema, key Key, row []byte, dst []byte) []byte
}

// Table is a named, partitioned collection of records with one fixed
// schema, implemented as per-partition hash tables (paper §3: "Tables in
// STAR are implemented as collections of hash tables") plus zero or more
// ordered secondary indexes. Every write reaches its record through
// Table.Land (see land.go), which states and keeps the landing contract:
// prior version saved and registered for revert, indexes moved on an
// absent ↔ present transition, TID and absent bit stamped.
type Table struct {
	id     TableID
	name   string
	schema *Schema
	parts  []*Partition

	// replicated marks read-mostly tables materialised on every node in
	// a single logical partition (TPC-C's ITEM table).
	replicated bool

	specs []IndexSpec
}

// ID returns the table's id.
func (t *Table) ID() TableID { return t.id }

// Name returns the table's name.
func (t *Table) Name() string { return t.name }

// Schema returns the table's schema.
func (t *Table) Schema() *Schema { return t.schema }

// Replicated reports whether the table is fully replicated (unpartitioned).
func (t *Table) Replicated() bool { return t.replicated }

// NumPartitions returns the partition count (1 for replicated tables).
func (t *Table) NumPartitions() int { return len(t.parts) }

// newPart builds a partition carrying this table's secondary indexes.
func (t *Table) newPart() *Partition { return newPartition(len(t.specs)) }

// AddIndex declares a secondary index and returns its id (the position
// callers pass to IndexLookup / txn.Ctx.LookupIndex). Must be called at
// schema-declaration time, before any row exists.
func (t *Table) AddIndex(spec IndexSpec) int {
	for _, p := range t.parts {
		if p != nil && p.Len() > 0 {
			panic("storage: AddIndex after rows were inserted")
		}
	}
	t.specs = append(t.specs, spec)
	for _, p := range t.parts {
		if p != nil {
			p.oidx = append(p.oidx, newOrderedIndex())
		}
	}
	return len(t.specs) - 1
}

// NumIndexes returns the number of declared secondary indexes.
func (t *Table) NumIndexes() int { return len(t.specs) }

// Partition returns partition p, or nil when this node does not hold it.
func (t *Table) Partition(p int) *Partition {
	if t.replicated {
		return t.parts[0]
	}
	return t.parts[p]
}

// Get returns the record at (partition, key), or nil. It panics if the
// node does not hold the partition — routing bugs should be loud.
func (t *Table) Get(part int, key Key) *Record {
	p := t.Partition(part)
	if p == nil {
		panic(fmt.Sprintf("storage: table %s: partition %d not held by this node", t.name, part))
	}
	return p.Get(key)
}

// IndexLookup appends the primary keys stored under val in index idx of
// partition part to dst, ascending, honouring atEpoch visibility
// (IndexAllEpochs = current state; an in-flight epoch = that epoch's
// fence snapshot). Returns dst unchanged when the partition is not held.
func (t *Table) IndexLookup(part, idx int, val []byte, atEpoch uint64, dst []Key) []Key {
	p := t.Partition(part)
	if p == nil {
		return dst
	}
	return p.oidx[idx].LookupAppend(val, atEpoch, dst)
}

// IndexLookupTail is IndexLookup bounded to the last (greatest-key) max
// matches — an O(log n) descent in the common single-match case instead
// of materialising a customer's whole history (see
// OrderedIndex.LookupTailAppend).
func (t *Table) IndexLookupTail(part, idx int, val []byte, atEpoch uint64, max int, dst []Key) []Key {
	p := t.Partition(part)
	if p == nil {
		return dst
	}
	return p.oidx[idx].LookupTailAppend(val, atEpoch, max, dst)
}
