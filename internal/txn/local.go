package txn

import "star/internal/storage"

// Writer is the write half every engine's execution context shares: it
// buffers a procedure's writes in the caller's RWSet and counts them for
// the cost model.
type Writer struct {
	Set    *RWSet
	Writes int
}

// Write buffers field mutations in Set.
func (c *Writer) Write(t storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	c.Writes++
	c.Set.AddWrite(t, part, key, ops...)
}

// Insert buffers a new row in Set.
func (c *Writer) Insert(t storage.TableID, part int, key storage.Key, row []byte) {
	c.Writes++
	c.Set.AddInsert(t, part, key, row)
}

// Delete buffers a row's removal in Set.
func (c *Writer) Delete(t storage.TableID, part int, key storage.Key) {
	c.Writes++
	c.Set.AddDelete(t, part, key)
}

// Local executes against a database that holds every partition the
// procedure touches, with no validation of its own: STAR's partitioned
// and single-master phases, its snapshot reads and PB.OCC's primary. A
// read of a partitioned table records the record and its TID in Set, for
// the TID rules and commit-time validation; an absent row or a tombstone
// there sets Failed and records nothing (under OCC the row was deleted
// under the attempt, which the caller then retries). A replicated table
// is read-only after load: its reads neither fail nor record. Row copies
// are appended to an arena that Reset truncates, so steady-state reads
// allocate nothing and a returned row stays stable for the rest of the
// transaction even as the arena grows. The caller resets Set itself.
//
// With Fence set to the in-flight epoch, the context reads the database
// as of that epoch's fence instead (Record.ReadStableAtFenceAppend, and
// index lookups at the same epoch): a record written in the in-flight
// epoch yields its pre-epoch version and an entry inserted in it stays
// hidden. The fence is immutable, so nothing is recorded, and an absent
// row reports !ok without setting Failed: a read-only procedure skips
// what the fence does not yet contain. Writes are still buffered and
// counted, which is how a caller tells that one was attempted.
type Local struct {
	Writer
	DB *storage.DB
	// Fence is the in-flight epoch whose fence reads resolve at; zero
	// reads live. Reset clears it.
	Fence  uint64
	Reads  int
	Failed bool
	arena  []byte
}

// Reset readies the context for the next attempt: counters, Failed and
// Fence cleared, the arena truncated.
func (c *Local) Reset() {
	c.Reads, c.Writes, c.Failed, c.Fence = 0, 0, false, 0
	c.arena = c.arena[:0]
}

// Read copies the row into the arena and returns it.
func (c *Local) Read(t storage.TableID, part int, key storage.Key) ([]byte, bool) {
	c.Reads++
	tbl := c.DB.Table(t)
	rec := tbl.Get(part, key)
	var val []byte
	var tid uint64
	present := rec != nil
	switch {
	case present && c.Fence != 0:
		c.arena, val, tid, present = rec.ReadStableAtFenceAppend(c.arena, c.Fence)
	case present:
		c.arena, val, tid, present = rec.ReadStableAppend(c.arena)
	}
	switch {
	case tbl.Replicated() || c.Fence != 0:
		return val, present
	case !present:
		c.Failed = true
		return nil, false
	}
	c.Set.AddRead(t, part, key, rec, tid)
	return val, true
}

// indexEpoch is the epoch index lookups resolve at: the fence's, or the
// current state.
func (c *Local) indexEpoch() uint64 {
	if c.Fence != 0 {
		return c.Fence
	}
	return storage.IndexAllEpochs
}

// LookupIndex resolves a secondary-index lookup. Index entries are
// immutable for the workloads' lookup targets (customer names,
// order→customer bindings change only by insert), so no read-set entry
// is collected; the record reads that follow are validated as usual.
func (c *Local) LookupIndex(t storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	c.Reads++
	return c.DB.Table(t).IndexLookup(part, idx, val, c.indexEpoch(), dst)
}

// LookupIndexTail implements IndexTailReader: bounded newest-first.
func (c *Local) LookupIndexTail(t storage.TableID, part, idx int, val []byte, max int, dst []storage.Key) []storage.Key {
	c.Reads++
	return c.DB.Table(t).IndexLookupTail(part, idx, val, c.indexEpoch(), max, dst)
}
