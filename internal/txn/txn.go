// Package txn defines the stored-procedure programming model shared by
// the STAR engine and every baseline engine: transactions are pre-defined
// procedures with declared access footprints (as in H-Store, Silo and
// Calvin), executed against a Ctx supplied by the engine.
package txn

import (
	"errors"

	"star/internal/storage"
)

// ErrUserAbort is returned by a procedure that aborts for application
// reasons (e.g. TPC-C NewOrder with an invalid item id). Engines do not
// retry user aborts.
var ErrUserAbort = errors.New("txn: aborted by application")

// ErrConflict is used by engine Ctx implementations to signal a
// concurrency-control abort (lock failure, failed validation, remote
// timeout). Engines retry conflicted transactions.
var ErrConflict = errors.New("txn: concurrency conflict")

// Access declares one element of a transaction's footprint.
type Access struct {
	Table storage.TableID
	Part  int
	Key   storage.Key
	Write bool
	// LockOnly marks a synthetic lock name (insert intents for
	// deterministic engines, secondary-index prefetch names); no record
	// is read or validated for it.
	LockOnly bool
	// IndexVal, when non-nil, marks this access as a secondary-index
	// prefetch: the procedure will resolve dependent keys at execution
	// time with Ctx.LookupIndex(Table, Part, Index, IndexVal). The Key
	// then names a synthetic lock (LockOnly) that serializes conflicting
	// lookups on deterministic engines, and push-based engines (Calvin)
	// resolve the lookup on the partition's master and ship the matches
	// (plus the matched rows) with the read set.
	IndexVal []byte
	// Index is the table's secondary-index id for IndexVal prefetches.
	Index int
}

// Procedure is one transaction instance: parameters plus logic.
type Procedure interface {
	// Name identifies the transaction type, e.g. "tpcc.payment".
	Name() string
	// Accesses returns the declared footprint. Engines that do not need
	// a-priori sets (OCC) may ignore it; deterministic engines (Calvin)
	// lock exactly this set before running.
	Accesses() []Access
	// Run executes against ctx. Returning ErrUserAbort rolls back.
	Run(ctx Ctx) error
}

// ReadOnlyMarker is implemented by procedures that perform no writes
// (TPC-C Stock-Level). Engines with epoch-fenced replicas may execute
// them against a local snapshot instead of routing them to a master.
type ReadOnlyMarker interface {
	ReadOnly() bool
}

// IsReadOnly reports whether p declares itself read-only.
func IsReadOnly(p Procedure) bool {
	ro, ok := p.(ReadOnlyMarker)
	return ok && ro.ReadOnly()
}

// DeferredMarker is implemented by procedures that must be queued and
// executed asynchronously rather than inline at their home partition —
// TPC-C Delivery's deferred execution mode (§2.7.2). Phase-switching
// engines route them to the single-master phase even when their
// footprint is single-partition; baselines without a deferral queue run
// them inline.
type DeferredMarker interface {
	Deferred() bool
}

// IsDeferred reports whether p requests deferred execution.
func IsDeferred(p Procedure) bool {
	d, ok := p.(DeferredMarker)
	return ok && d.Deferred()
}

// Ctx is the data access interface engines hand to procedures.
type Ctx interface {
	// Read returns a stable copy of a row; ok is false if the record is
	// absent or the engine has already decided to abort (procedures
	// should then return an error promptly).
	Read(t storage.TableID, part int, key storage.Key) (row []byte, ok bool)
	// Write buffers field mutations for commit.
	Write(t storage.TableID, part int, key storage.Key, ops ...storage.FieldOp)
	// Insert buffers a new row for commit.
	Insert(t storage.TableID, part int, key storage.Key, row []byte)
	// Delete buffers removal of an existing row for commit. Deleting a
	// key that is absent at commit time is a concurrency conflict (the
	// procedure is expected to have read the row first), so engines
	// abort and retry rather than silently no-op.
	Delete(t storage.TableID, part int, key storage.Key)
	// LookupIndex appends the primary keys stored under val in the
	// table's secondary index idx (by declaration order) to dst, in
	// ascending key order, and returns the extended slice. The view is
	// engine-defined: execution contexts see current state, the
	// snapshot-read context sees the last epoch fence, and push-based
	// deterministic engines serve remote partitions from pushed match
	// lists. Entries may overshoot (an index is maintained on insert
	// only), so procedures re-verify liveness by reading the record.
	LookupIndex(t storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key
}

// IndexTailReader is optionally implemented by Ctx implementations that
// can serve a bounded newest-first index lookup: the last (greatest-key)
// max matches, still appended to dst in ascending order. Procedures that
// only need the tail of a lookup (Order-Status's "most recent order")
// use it when available — typically one O(log n) descent — and fall
// back to LookupIndex (full materialisation) on contexts that cannot
// bound the walk (remote push/RPC resolution).
type IndexTailReader interface {
	LookupIndexTail(t storage.TableID, part, idx int, val []byte, max int, dst []storage.Key) []storage.Key
}

// Request wraps a generated procedure with its bookkeeping.
type Request struct {
	Proc Procedure
	// Home is the partition the request is routed to (its master node
	// executes it in partitioned-phase systems).
	Home int
	// Parts is the set of partitions the footprint touches.
	Parts []int
	// Cross reports len(Parts) > 1.
	Cross bool
	// GenAt is the (virtual) time the client issued the request;
	// latency is measured from here to result release.
	GenAt int64
	// Retries counts concurrency-conflict re-executions.
	Retries int
	// Origin is the endpoint a client response is routed back to (the
	// session gate that admitted the request); meaningful only when
	// Ticket is non-zero. Engine-internal requests leave both zero.
	Origin int
	// Ticket correlates the response with the originating session slot.
	// A committed request with a non-zero Ticket releases an explicit
	// client response at the group-commit fence.
	Ticket uint64
}

// NewRequest computes routing metadata from the procedure's footprint.
func NewRequest(p Procedure, genAt int64) *Request {
	r := &Request{}
	r.ResetFor(p, genAt)
	return r
}

// ResetFor re-initialises r in place for a new procedure, reusing the
// Parts backing array — the partitioned-phase worker keeps one scratch
// Request and routes every generated transaction through it, so
// steady-state single-partition commits allocate no Request at all.
// Footprints are a handful of partitions, so deduplication is a linear
// scan instead of a map.
func (r *Request) ResetFor(p Procedure, genAt int64) {
	r.Proc = p
	r.GenAt = genAt
	r.Retries = 0
	r.Origin, r.Ticket = 0, 0
	parts := r.Parts[:0]
	for _, a := range p.Accesses() {
		dup := false
		for _, q := range parts {
			if q == a.Part {
				dup = true
				break
			}
		}
		if !dup {
			parts = append(parts, a.Part)
		}
	}
	r.Parts = parts
	r.Home = 0
	if len(parts) > 0 {
		r.Home = parts[0]
	}
	r.Cross = len(parts) > 1
}

// Clone returns a heap copy of r with its own Parts array, for requests
// that escape the generating worker (deferred cross-partition routing).
func (r *Request) Clone() *Request {
	c := *r
	c.Parts = append([]int(nil), r.Parts...)
	return &c
}

// ReadEntry is one validated read.
type ReadEntry struct {
	Table storage.TableID
	Part  int
	Key   storage.Key
	Rec   *storage.Record
	TID   uint64
}

// WriteEntry is one buffered write (update via ops, insert via Row, or
// delete via the Delete flag).
type WriteEntry struct {
	Table  storage.TableID
	Part   int
	Key    storage.Key
	Rec    *storage.Record // resolved at commit when nil (inserts, remote)
	Ops    []storage.FieldOp
	Insert bool
	Delete bool
	Row    []byte
	// FirstOfEpoch is set at commit, under the write latch: the record's
	// prior TID is from an earlier epoch, so the write landed on the
	// version the last fence put on every replica.
	FirstOfEpoch bool
}

// RWSet accumulates a transaction's reads and writes.
type RWSet struct {
	Reads  []ReadEntry
	Writes []WriteEntry
	order  []int32 // KeyOrder's
}

// Reset clears the set for reuse. Entry payload buffers (Ops, Row) are
// kept with the truncated entries and reused by the next transaction's
// AddWrite/AddInsert, so a steady-state worker's write set allocates
// nothing.
func (s *RWSet) Reset() {
	s.Reads = s.Reads[:0]
	s.Writes = s.Writes[:0]
}

// AddRead records a validated read.
func (s *RWSet) AddRead(t storage.TableID, part int, key storage.Key, rec *storage.Record, tid uint64) {
	s.Reads = append(s.Reads, ReadEntry{Table: t, Part: part, Key: key, Rec: rec, TID: tid})
}

// nextWrite extends Writes by one entry, reviving the retired entry's
// Ops/Row capacity when the backing array already holds one.
func (s *RWSet) nextWrite(t storage.TableID, part int, key storage.Key) *WriteEntry {
	if len(s.Writes) < cap(s.Writes) {
		s.Writes = s.Writes[:len(s.Writes)+1]
	} else {
		s.Writes = append(s.Writes, WriteEntry{})
	}
	w := &s.Writes[len(s.Writes)-1]
	w.Table, w.Part, w.Key = t, part, key
	w.Rec = nil
	w.Insert = false
	w.Delete = false
	w.Ops = w.Ops[:0]
	w.Row = w.Row[:0]
	return w
}

// AddWrite merges ops into an existing entry for the same record or
// appends a new one. The ops slice is copied into the entry's own
// buffer, so callers may reuse the slice — but each FieldOp's Arg bytes
// are aliased until commit, so callers must not overwrite an Arg buffer
// they have already passed in within the same transaction.
func (s *RWSet) AddWrite(t storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	for i := range s.Writes {
		w := &s.Writes[i]
		if w.Table == t && w.Part == part && w.Key == key && !w.Insert && !w.Delete {
			w.Ops = append(w.Ops, ops...)
			return
		}
	}
	w := s.nextWrite(t, part, key)
	w.Ops = append(w.Ops, ops...)
}

// AddInsert records a new-row write. The row is copied.
func (s *RWSet) AddInsert(t storage.TableID, part int, key storage.Key, row []byte) {
	w := s.nextWrite(t, part, key)
	w.Insert = true
	w.Row = append(w.Row, row...)
}

// AddDelete records removal of an existing row. A pending update for the
// same key collapses into the delete (the row is going away, so its field
// mutations are moot). Deleting a row inserted by the same transaction is
// not supported — the commit-time existence check would abort it.
func (s *RWSet) AddDelete(t storage.TableID, part int, key storage.Key) {
	for i := range s.Writes {
		w := &s.Writes[i]
		if w.Table == t && w.Part == part && w.Key == key && !w.Insert {
			w.Delete = true
			w.Ops = w.Ops[:0]
			return
		}
	}
	w := s.nextWrite(t, part, key)
	w.Delete = true
}

// FindWrite returns the pending write for a key, or nil.
func (s *RWSet) FindWrite(t storage.TableID, part int, key storage.Key) *WriteEntry {
	for i := range s.Writes {
		w := &s.Writes[i]
		if w.Table == t && w.Part == part && w.Key == key {
			return w
		}
	}
	return nil
}

// KeyOrder returns the write set's indices in global (table, partition,
// key) order, valid until the next call: the deadlock-free lock order
// used at commit (§4.2) and the order a committed write set replicates
// in. It is stable, so an insert and a later update of one record keep
// their order, and it moves no entry. Write sets are a handful of
// entries, so this is an insertion sort: no reflection, no closure, and
// no allocation once the set's index buffer has grown (sort.Slice
// allocates its swapper even for a one-element slice).
func (s *RWSet) KeyOrder() []int32 {
	s.order = s.order[:0]
	for i := range s.Writes {
		j := len(s.order)
		for s.order = append(s.order, int32(i)); j > 0 && writeLess(&s.Writes[i], &s.Writes[s.order[j-1]]); j-- {
			s.order[j] = s.order[j-1]
		}
		s.order[j] = int32(i)
	}
	return s.order
}

func writeLess(a, b *WriteEntry) bool {
	if a.Table != b.Table {
		return a.Table < b.Table
	}
	if a.Part != b.Part {
		return a.Part < b.Part
	}
	if a.Key.Hi != b.Key.Hi {
		return a.Key.Hi < b.Key.Hi
	}
	return a.Key.Lo < b.Key.Lo
}

// MaxReadTID returns the largest clean TID across reads and resolved
// write records — inputs to Silo TID rule (a).
func (s *RWSet) MaxReadTID() uint64 {
	var m uint64
	for i := range s.Reads {
		if t := storage.TIDClean(s.Reads[i].TID); t > m {
			m = t
		}
	}
	for i := range s.Writes {
		if r := s.Writes[i].Rec; r != nil {
			if t := storage.TIDClean(r.TID()); t > m {
				m = t
			}
		}
	}
	return m
}
