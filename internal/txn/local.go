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
// and single-master phases and PB.OCC's primary. A read of a partitioned
// table records the record and its TID in Set, for the TID rules and
// commit-time validation; an absent row or a tombstone there sets Failed
// and records nothing (under OCC the row was deleted under the attempt,
// which the caller then retries). A replicated table is read-only after
// load: its reads neither fail nor record. Row copies are appended to an
// arena that Reset truncates, so steady-state reads allocate nothing and
// a returned row stays stable for the rest of the transaction even as
// the arena grows. The caller resets Set itself.
type Local struct {
	Writer
	DB     *storage.DB
	Reads  int
	Failed bool
	arena  []byte
}

// Reset readies the context for the next attempt: counters and Failed
// cleared, the arena truncated.
func (c *Local) Reset() {
	c.Reads, c.Writes, c.Failed = 0, 0, false
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
	if present {
		c.arena, val, tid, present = rec.ReadStableAppend(c.arena)
	}
	switch {
	case tbl.Replicated():
		return val, present
	case !present:
		c.Failed = true
		return nil, false
	}
	c.Set.AddRead(t, part, key, rec, tid)
	return val, true
}

// LookupIndex resolves a secondary-index lookup against current state.
// Index entries are immutable for the workloads' lookup targets
// (customer names, order→customer bindings change only by insert), so
// no read-set entry is collected; the record reads that follow are
// validated as usual.
func (c *Local) LookupIndex(t storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	c.Reads++
	return c.DB.Table(t).IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
}

// LookupIndexTail implements IndexTailReader: bounded newest-first.
func (c *Local) LookupIndexTail(t storage.TableID, part, idx int, val []byte, max int, dst []storage.Key) []storage.Key {
	c.Reads++
	return c.DB.Table(t).IndexLookupTail(part, idx, val, storage.IndexAllEpochs, max, dst)
}
