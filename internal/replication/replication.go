// Package replication implements STAR's replication machinery (§3, §5):
// value entries (full records: inserts, deletes, and a single-master
// update of a record the epoch already wrote), operation entries (small
// field deltas: every partitioned-phase update, and a record's first
// single-master write of an epoch), both applied in any order under the
// Thomas write rule, per-destination batched streams and the envelope
// they ship in (envelope.go: its format, size and codec), and the
// sent/applied counters the fence reconciles at every phase switch.
package replication

import (
	"fmt"
	"sync/atomic"

	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire/prim"
)

// Entry is one replicated write. Exactly one of Row/Ops is meaningful:
// a value entry carries the whole row (or a tombstone), an operation
// entry carries field deltas.
type Entry struct {
	Table  storage.TableID
	Part   int32
	Key    storage.Key
	TID    uint64
	Row    []byte
	Absent bool
	Ops    []storage.FieldOp
}

// IsOp reports whether this is an operation-replication entry.
func (e *Entry) IsOp() bool { return e.Ops != nil }

// Write is the entry as storage lands it.
func (e *Entry) Write() storage.Write {
	switch {
	case e.IsOp():
		return storage.Write{Kind: storage.WriteOps, Ops: e.Ops}
	case e.Absent:
		return storage.Write{Kind: storage.WriteDelete}
	}
	return storage.Write{Kind: storage.WriteRow, Row: e.Row}
}

// Fits reports whether db can land the entry: a table and partition db
// has (held here, if held) and a write the table's schema fits. An entry
// read off the wire or a disk is checked with it before its ids index.
func (e *Entry) Fits(db *storage.DB, held bool) bool {
	if int(e.Table) >= db.NumTables() || e.Part < 0 || int(e.Part) >= db.NumPartitions() {
		return false
	}
	t := db.Table(e.Table)
	return (!held || t.Partition(int(e.Part)) != nil) && t.Schema().Fits(e.Write())
}

// Apply is ApplyInto with no scratch buffer and without the landed flag.
func Apply(db *storage.DB, epoch uint64, e *Entry, wantRow bool) ([]byte, error) {
	row, _, err := ApplyInto(db, epoch, e, nil, wantRow)
	return row, err
}

// ApplyInto lands the entry in db for the given epoch through
// storage.Table.LandThomas, the step the master's commit ran, so replica
// rows, revert state and indexes stay equal to the master's. Whatever its
// form, an entry lands only over an older TID, which makes a delta safe in
// any arrival order: one ships only from a partition's one writer, in
// order, or as its record's first single-master write of an epoch, on the
// version the last fence put on every replica. So the replica holds that
// base, or a newer image of the same epoch that contains the delta and
// refuses it. A delta finding no row, or an older tombstone, is an error.
//
// With wantRow a landed operation entry's post-image (§5's op→value
// transformation, for the log) is returned in buf's backing array, grown
// as needed, so a scratch-owning applier does not allocate; for a value
// entry its own Row serves and nil is returned.
func ApplyInto(db *storage.DB, epoch uint64, e *Entry, buf []byte, wantRow bool) (row []byte, landed bool, err error) {
	if !e.Fits(db, true) {
		return nil, false, fmt.Errorf("replication: entry does not fit table %d partition %d here", e.Table, e.Part)
	}
	tbl := db.Table(e.Table)
	var image *[]byte
	if wantRow && e.IsOp() {
		image = &buf
	}
	if landed, err = tbl.LandThomas(int(e.Part), e.Key, epoch, e.TID, e.Write(), image); landed && image != nil {
		row = buf
	}
	return row, landed, err
}

// ValueEntries builds value entries from a committed write set whose
// final rows were collected at commit (occ collectRows=true), in the
// set's key order (RWSet.KeyOrder).
func ValueEntries(set *txn.RWSet, tid uint64) []Entry {
	out := make([]Entry, 0, len(set.Writes))
	for _, i := range set.KeyOrder() {
		w := &set.Writes[i]
		out = append(out, Entry{
			Table: w.Table, Part: int32(w.Part), Key: w.Key, TID: tid,
			Row: append([]byte(nil), w.Row...), Absent: w.Delete,
		})
	}
	return out
}

// OpEntries builds operation entries from a committed write set, in its
// key order; inserts and deletes (which have no delta form) become value
// entries.
func OpEntries(set *txn.RWSet, tid uint64) []Entry {
	out := make([]Entry, 0, len(set.Writes))
	for _, i := range set.KeyOrder() {
		w := &set.Writes[i]
		e := Entry{Table: w.Table, Part: int32(w.Part), Key: w.Key, TID: tid, Absent: w.Delete}
		if w.Insert {
			e.Row = append([]byte(nil), w.Row...)
		} else if !w.Delete {
			e.Ops = append(make([]storage.FieldOp, 0, len(w.Ops)), w.Ops...)
		}
		out = append(out, e)
	}
	return out
}

// Batch is the wire envelope carrying coalesced entries from one node to
// another: the partitioned phase ships one of these per destination per
// size/epoch flush instead of one message per write. Epoch is the epoch
// the entries were committed in (0 when the sender predates epochs, e.g.
// ad-hoc test streams).
type Batch struct {
	From    int
	Epoch   uint64
	Entries []Entry
}

// Size implements transport.Message: the envelope's frame length.
func (b *Batch) Size() int { return prim.FrameOverhead + BatchLen(b) }

// Tracker counts entries sent to and applied from each peer since the
// link to it last came up (Forget); the replication fence compares the
// two sides (§4.3: "each node learns how many outstanding writes it is
// waiting to see").
type Tracker struct {
	sent    []atomic.Int64 // indexed by destination
	applied []atomic.Int64 // indexed by source
	// wait is the registered fence drain, if any (see AwaitDrained).
	wait atomic.Pointer[drainWait]
}

// drainWait is one registered fence drain: the applied counts to reach
// and who to tell.
type drainWait struct {
	expected []int64
	wake     func()
}

// NewTracker creates a tracker for a cluster of n nodes.
func NewTracker(n int) *Tracker {
	return &Tracker{sent: make([]atomic.Int64, n), applied: make([]atomic.Int64, n)}
}

// AddSent records n entries shipped to dst.
func (t *Tracker) AddSent(dst int, n int64) { t.sent[dst].Add(n) }

// AddApplied records n entries applied from src.
func (t *Tracker) AddApplied(src int, n int64) {
	t.applied[src].Add(n)
	t.wakeIfDrained()
}

// Forget restarts the link with peer at zero on this end: nothing sent
// to it, nothing applied from it. Both ends of a link call it when the
// link comes up in their view (a peer rejoins or joins, or this node
// does), before either sends on it, so the counts they exchange from then
// on start together; the catch-up snapshot stands for everything before.
func (t *Tracker) Forget(peer int) {
	t.sent[peer].Store(0)
	t.applied[peer].Store(0)
}

// AwaitDrained reports whether everything expected has been applied
// (see Drained). If not, it registers the drain: the AddApplied call
// that reaches the expected vector calls wake, once,
// on the applying goroutine — so a fence drain waits for an event, with
// no timer or poll on its path. One drain is registered at a time (a
// new call replaces the previous one); the caller must not modify
// expected until wake ran or CancelAwait returned.
func (t *Tracker) AwaitDrained(expected []int64, wake func()) bool {
	w := &drainWait{expected: expected, wake: wake}
	// Publish before checking: an applier that adds after the check
	// below then sees the registration, and one that added before it is
	// seen by the check.
	t.wait.Store(w)
	if t.Drained(expected) && t.wait.CompareAndSwap(w, nil) {
		return true
	}
	return false
}

// CancelAwait drops the registered drain, if any (a revert aborts it).
func (t *Tracker) CancelAwait() { t.wait.Store(nil) }

func (t *Tracker) wakeIfDrained() {
	if w := t.wait.Load(); w != nil && t.Drained(w.expected) && t.wait.CompareAndSwap(w, nil) {
		w.wake()
	}
}

// SentVector snapshots the per-destination sent counts.
func (t *Tracker) SentVector() []int64 {
	v := make([]int64, len(t.sent))
	for i := range t.sent {
		v[i] = t.sent[i].Load()
	}
	return v
}

// Applied returns the count applied from src.
func (t *Tracker) Applied(src int) int64 { return t.applied[src].Load() }

// Nodes returns the cluster size the tracker was built for.
func (t *Tracker) Nodes() int { return len(t.sent) }

// Drained reports whether everything expected from each source has been
// applied. expected[i] is the count source i claims to have sent us.
func (t *Tracker) Drained(expected []int64) bool {
	for i, want := range expected {
		if t.applied[i].Load() < want {
			return false
		}
	}
	return true
}

// Adaptive flush-threshold bounds: the per-destination byte threshold is
// re-derived every epoch as max(Limits.Bytes, measuredEpochBytes /
// AdaptiveTargetFlushes), capped at AdaptiveMaxBytes. Adaptation only
// ever grows the threshold past the configured bound — the fixed bound
// already balances fence overlap against per-message cost at normal
// volume, and shrinking it for short or quiet phases floods the
// receiving routers with envelope handling; growth caps the envelope
// count per epoch when a destination's write volume spikes far past the
// configured threshold (message storms under hot partitions or bigger
// clusters).
const (
	AdaptiveMaxBytes      = 256 << 10
	AdaptiveTargetFlushes = 64
)

// Limits bounds a stream's per-destination batch growth. A zero field
// means "no bound on that axis"; an all-zero Limits flushes only at
// explicit Flush calls (the epoch fence).
type Limits struct {
	// Entries flushes a destination once this many entries are buffered.
	Entries int
	// Bytes flushes a destination once its buffered entries' encoded
	// size reaches this many bytes. With Adaptive set it is only the
	// initial threshold.
	Bytes int
	// Adaptive re-sizes the byte threshold per destination at every
	// epoch from the previous epoch's measured write volume.
	Adaptive bool
}

// dstBuf is one destination's pending batch: the entry headers plus the
// arenas their Row/Ops payloads are copied into. Arena-backed copies make
// Append allocation-free per entry — callers hand in entries whose
// payload slices they immediately reuse, and the only allocations are
// the amortised arena growths and the per-envelope handoff at flush.
type dstBuf struct {
	entries []Entry
	// sizer stands where the open envelope's encoding does; bytes is
	// what its entries encode to.
	sizer EntryCoder
	bytes int
	arena []byte            // Row bytes and FieldOp args
	ops   []storage.FieldOp // op-entry headers
	// limit is this destination's current byte threshold (adaptive mode
	// re-derives it each epoch; fixed mode mirrors Limits.Bytes).
	limit int
	// epochBytes measures this epoch's appended volume for adaptation;
	// prevEpochBytes keeps the epoch before it. Epochs strictly
	// alternate partitioned and single-master phases (a stream is busy
	// in one and usually idle in the other), so adaptation keys off the
	// max of the two — the busy phase's volume governs both following
	// epochs instead of collapsing after the idle one.
	epochBytes     int
	prevEpochBytes int
}

// Stream accumulates entries per destination and ships them as batched
// Batch envelopes: a partitioned-phase epoch produces O(destinations ×
// epochBytes/limit) messages instead of O(writes). One stream per
// worker thread keeps it contention-free; the shared Tracker is atomic.
// The fence accounting is per entry, not per envelope: AddSent counts
// len(entries) at flush time, so Sent/Expected reconcile exactly however
// the entries were packed.
type Stream struct {
	net     transport.Transport
	tracker *Tracker
	src     int
	lim     Limits
	epoch   uint64
	bufs    []*dstBuf // indexed by destination node
}

// NewStream creates a stream for worker threads on node src; batches
// flush automatically at the given limits and at explicit Flush calls.
func NewStream(net transport.Transport, tracker *Tracker, src int, lim Limits) *Stream {
	return &Stream{net: net, tracker: tracker, src: src, lim: lim,
		bufs: make([]*dstBuf, tracker.Nodes())}
}

// SetEpoch stamps subsequently flushed batches with epoch. Any entries
// still buffered from the previous epoch are flushed first so an
// envelope never mixes epochs (callers flush at the fence anyway; this
// is the backstop). In adaptive mode this is also where each
// destination's flush threshold is re-derived from the epoch's volume.
func (s *Stream) SetEpoch(epoch uint64) {
	if epoch == s.epoch {
		return
	}
	s.Flush()
	s.epoch = epoch
	if !s.lim.Adaptive {
		return
	}
	for _, b := range s.bufs {
		if b == nil {
			continue
		}
		b.limit = adaptedLimit(s.lim.Bytes, max(b.epochBytes, b.prevEpochBytes))
		b.prevEpochBytes = b.epochBytes
		b.epochBytes = 0
	}
}

// adaptedLimit grows the configured byte bound to keep roughly
// AdaptiveTargetFlushes envelopes per epoch at the measured volume;
// it never shrinks below the configured bound.
func adaptedLimit(configured, epochBytes int) int {
	v := epochBytes / AdaptiveTargetFlushes
	if v < configured {
		return configured
	}
	if v > AdaptiveMaxBytes {
		return AdaptiveMaxBytes
	}
	return v
}

func (s *Stream) dst(dst int) *dstBuf {
	b := s.bufs[dst]
	if b == nil {
		// ops starts empty, not nil: a zero-op entry carved from it must
		// still read as an operation entry (IsOp is Ops != nil).
		b = &dstBuf{limit: s.lim.Bytes, ops: []storage.FieldOp{}}
		s.bufs[dst] = b
	}
	return b
}

// Append queues e for dst, flushing the destination's batch when a limit
// is hit, and returns what e costs in the envelope (EntryCoder.Next): the
// bytes the limits count. The entry's Row and Ops payloads are copied
// into the destination's arena, so the caller may reuse their backing
// arrays immediately. Local (src==dst) appends are dropped, and cost
// nothing: a node does not replicate to itself.
func (s *Stream) Append(dst int, e Entry) (header, payload, raw int) {
	if dst == s.src {
		return 0, 0, 0
	}
	b := s.dst(dst)
	if len(b.entries) == 0 {
		b.sizer.Reset(s.epoch) // e opens an envelope
	}
	b.entries = append(b.entries, e)
	ne := &b.entries[len(b.entries)-1]
	if e.Ops != nil {
		// Deep-copy the op headers and the args they do not hold. Arena
		// growth leaves earlier entries pointing into the old (immutable)
		// backing arrays, which stays valid.
		off := len(b.ops)
		b.ops = append(b.ops, e.Ops...)
		ne.Ops = b.ops[off:len(b.ops):len(b.ops)]
		for i := range ne.Ops {
			if op, ao := &ne.Ops[i], len(b.arena); op.Arg != nil {
				b.arena = append(b.arena, op.Arg...)
				op.Arg = b.arena[ao:len(b.arena):len(b.arena)]
			}
		}
		ne.Row = nil
	} else if len(e.Row) > 0 {
		off := len(b.arena)
		b.arena = append(b.arena, e.Row...)
		ne.Row = b.arena[off:len(b.arena):len(b.arena)]
	}
	header, payload, raw = b.sizer.Next(ne)
	b.bytes += header + payload
	b.epochBytes += header + payload
	if (s.lim.Entries > 0 && len(b.entries) >= s.lim.Entries) ||
		(b.limit > 0 && b.bytes >= b.limit) {
		s.flushDst(dst, b)
	}
	return header, payload, raw
}

func (s *Stream) flushDst(dst int, b *dstBuf) {
	if len(b.entries) == 0 {
		return
	}
	entries := b.entries
	// The entries and their arenas escape with the envelope; the next
	// batch starts in fresh buffers as large as this one grew to, so a
	// stream in steady state pays one allocation per buffer per envelope
	// instead of regrowing each from nil by doubling.
	b.entries = make([]Entry, 0, len(entries))
	b.arena = make([]byte, 0, len(b.arena))
	b.ops = make([]storage.FieldOp, 0, len(b.ops))
	b.bytes = 0
	s.tracker.AddSent(dst, int64(len(entries)))
	s.net.Send(s.src, dst, transport.Replication, &Batch{From: s.src, Epoch: s.epoch, Entries: entries})
}

// Flush ships all buffered batches (called at every phase end, so the
// replication fence sees complete Sent counts).
func (s *Stream) Flush() {
	for dst, b := range s.bufs {
		if b != nil {
			s.flushDst(dst, b)
		}
	}
}
