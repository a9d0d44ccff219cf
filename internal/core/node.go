package core

import (
	"slices"
	"sync/atomic"
	"time"

	"star/internal/metrics"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wal"
)

// node is one STAR server: its copy of the database, its workers, and a
// router process that owns the network inbox (actor-style: replication
// application, fence participation and request routing all happen here).
type node struct {
	e       *Engine
	id      int
	db      *storage.DB
	tracker *replication.Tracker
	workers []*worker

	// masterQ holds deferred cross-partition requests (meaningful on the
	// designated master).
	masterQ rt.Chan

	// view is this node's cluster view: the last msgTopology's layout and
	// failed set, plus the failures a phase command or revert named since.
	// The router alone writes it (setView); the workers (what they master,
	// where their writes replicate, who the designated master is), the
	// client gate and the admin plane read it.
	view atomic.Pointer[View]

	// epoch is atomic because the applier processes and the checkpointer
	// read it while the router advances it at phase starts; the exact
	// epoch observed mid-transition is immaterial (see applyBatch's
	// comment), but the access must not race.
	epoch atomic.Uint64

	// gate is the node's client-session layer (star-client front door).
	gate *ClientGate

	// replLag is this node's registry gauge for replication backlog: the
	// entries still unapplied at the moment the fence drain began
	// (repl_lag{node="<id>"}). A scrape mid-phase sees the last fence's
	// starting backlog — the drain work the fence had to absorb.
	replLag *metrics.Gauge

	// Fence state, owned by the router. The node starts draining the
	// moment its own phase ends (phaseDone): each peer's msgEpochMark
	// names how much of that peer's stream to wait for, and the applier
	// that reaches the full expected vector wakes the router
	// (Tracker.AwaitDrained) — no timer or poll sits on the path. acked
	// latches the fence ack for the in-flight epoch.
	workersDone int
	phaseDone   bool
	acked       bool
	drainBegun  bool          // drainStart and the repl_lag gauge are set for this epoch
	drainStart  time.Duration // when the expected vector became complete
	// marks is the latest marker per source node. Markers can run ahead
	// of this node's own phase command (a stand-by peer reports the
	// moment its phase starts, on a different link), so they are kept by
	// epoch and only consulted once the epochs match.
	marks []epochMark

	// Phase monitors, accumulated by the router from the workers' done
	// reports (reset each phase; the workers shard them locally so the
	// commit path takes no node mutex).
	phaseCommitted int64
	genSingle      int64
	genCross       int64

	// snapPending tracks the partitions whose snapshot is still
	// outstanding during a rejoin catch-up. A set, not a counter: the
	// request/snapshot plane tolerates duplicate delivery (re-dialled
	// links, chaos testing), and a duplicated snapshot must not make the
	// node report recovery-done while other partitions are still in
	// flight — the coordinator would install the node around a copy
	// that is missing data.
	snapPending map[int]bool

	// caughtUp is the newest epoch admission made this node's state
	// account for: the one a wildcard revert found it in, or a catch-up
	// snapshot's. An envelope stamped no later — a TCP queue can outlive
	// its peer's down/up bounce — is superseded and dropped uncounted
	// (the catch-up holds its outcome, and the install that follows
	// restarts the link's counters at zero).
	caughtUp uint64

	// appliers parallelise replication replay (SiloR-style): entries are
	// sharded by partition so operation entries keep their per-partition
	// FIFO order.
	appliers []rt.Chan

	// Real recovery-log writers (LogDir mode): one per applier plus the
	// router's own (which carries the epoch marks). dir (nil without a
	// LogDir) made them and the workers' and runs the checkpoint rounds.
	routerLog   *wal.Logger
	applierLogs []*wal.Logger
	dir         *wal.Dir
}

// epochMark is one peer's end-of-epoch marker as the router holds it.
type epochMark struct {
	epoch uint64
	sent  int64
}

// fenceWake is the node-local nudge an applier drops into the router's
// inbox when it brings the tracker up to the awaited vector.
type fenceWake struct{}

// applierBatch is one applier's share of a replication batch. epoch is
// the sender's epoch stamp: entries apply (and save their revert/fence
// snapshots) under the epoch they were committed in, not the receiver's
// possibly-lagging view.
type applierBatch struct {
	from    int
	epoch   uint64
	entries []replication.Entry
}

// workerDoneMsg is what a worker drops into its router's inbox when it
// finishes a phase, carrying its monitor shard for the router to fold
// into the node's phase totals. It never crosses the transport.
type workerDoneMsg struct {
	Worker    int
	Committed int64
	GenSingle int64
	GenCross  int64
	Repl      replStats
}

// syncBatch wraps a replication batch that must be acknowledged before
// the writer releases its locks (SYNC STAR).
type syncBatch struct {
	Batch   *msgReplBatch
	Worker  int
	Seq     uint64
	ReplyTo int
}

// msgRecoveryDone tells the coordinator a node finished its snapshot
// catch-up: every partition it was told to copy is applied, so its
// caughtUp is final before the install that follows.
type msgRecoveryDone struct {
	Node int
}

// msgStartRecovery orders a rejoining node to copy the listed partitions
// from the given healthy holders.
type msgStartRecovery struct {
	Parts []int32
	From  []int32
}

func (n *node) inbox() rt.Chan { return n.e.net.Inbox(n.id) }

func (n *node) routerLoop() {
	in := n.inbox()
	for {
		n.handle(in.Recv())
	}
}

// handle is the router's one way in: a frame the entry check refuses
// (Engine.accepts) is dropped whole before any case below reads it.
func (n *node) handle(m any) {
	if !n.e.accepts(n.id, m) {
		return
	}
	r := n.e.cfg.RT
	switch msg := m.(type) {
	case *msgReplBatch:
		r.Compute(CostMsgHandling)
		if !n.superseded(msg) {
			n.applyBatch(msg)
		}
	case syncBatch:
		r.Compute(CostMsgHandling)
		// Synchronous replication: the ack may only leave once the entries
		// are applied and logged, so the router applies them itself, into
		// the log it owns (applyEntries flushes it).
		if !n.superseded(msg.Batch) {
			n.applyEntries(&applier{lg: n.routerLog}, msg.Batch.From, msg.Batch.Epoch, msg.Batch.Entries)
		}
		n.e.net.Send(n.id, msg.ReplyTo, transport.Control, msgReplAck{Worker: msg.Worker, Seq: msg.Seq})
	case msgStartPhase:
		n.startPhase(msg)
	case msgEpochMark:
		n.noteMark(msg)
	case fenceWake:
		n.tryFinishFence()
	case msgDefer:
		n.e.deferred.Inc()
		n.admitDeferred(msg.Req)
	case ClientReq:
		r.Compute(CostMsgHandling)
		n.e.deferred.Inc()
		n.admitDeferred(msg.Req)
	case ClientResp:
		// Responses routed back to front-door submissions hosted here.
		n.gate.deliver(msg.Ticket, m.(transport.Message))
	case AdminResp:
		n.gate.deliver(msg.Ticket, m.(transport.Message))
	case msgReplAck:
		n.workers[msg.Worker].resp.Send(msg)
	case workerDoneMsg:
		n.phaseCommitted += msg.Committed
		n.genSingle += msg.GenSingle
		n.genCross += msg.GenCross
		n.e.replOps.Add(msg.Repl.OpEntries)
		n.e.replValues.Add(msg.Repl.ValueEntries)
		n.e.replEntryBytes.Add(msg.Repl.Bytes)
		n.e.replEquivBytes.Add(msg.Repl.ValueEquivBytes)
		n.workersDone++
		if n.workersDone == len(n.workers) {
			n.reportPhaseDone()
		}
	case msgRevert:
		n.revert(msg)
	case msgSnapshotReq:
		n.serveSnapshot(msg)
	case *msgSnapshot:
		n.applySnapshot(msg)
	case msgStartRecovery:
		n.startRecovery(msg)
	case msgTopology:
		n.installTopology(msg)
	case AdminReq:
		n.serveAdmin(msg)
	case msgHalt:
		n.e.haltCh.TrySend(struct{}{})
	}
}

// startRecovery fetches partition snapshots from healthy holders
// (§4.5.3 case 1: "it copies data from remote nodes and applies them to
// its database ... using the Thomas write rule").
func (n *node) startRecovery(m msgStartRecovery) {
	if len(m.Parts) == 0 {
		n.e.net.Send(n.id, n.e.cfg.coordID(), transport.Control, msgRecoveryDone{Node: n.id})
		return
	}
	// Materialise the partitions first: a joining node (or a member
	// gaining partitions in a planned migration) has never held them, and
	// applySnapshot skips unmaterialised partitions.
	for _, p := range m.Parts {
		n.db.SetHolds(int(p), true)
	}
	n.snapPending = make(map[int]bool)
	for i, p := range m.Parts {
		n.snapPending[int(p)] = true
		n.e.net.Send(n.id, int(m.From[i]), transport.Data, msgSnapshotReq{From: n.id, Part: int(p)})
	}
}

// startPhase commits the previous epoch (revert info dropped, group-
// committed results released to clients) and kicks the workers.
func (n *node) startPhase(m msgStartPhase) {
	if m.ScriptTxns == 0 {
		// The deadline arrives as a phase budget relative to receipt
		// (processes do not share a clock origin — an absolute
		// coordinator-clock timestamp would make a restarted process
		// sleep out the skew and miss every phase). Localising it at the
		// ROUTER, not in the workers, keeps the old absolute semantics
		// within the process: a worker that dequeues the command late
		// sees a near-expired deadline and short-circuits instead of
		// running a full phase past the coordinator's grace.
		m.Deadline += n.e.cfg.RT.Now()
	}
	if n.routerLog != nil && m.Epoch > n.epoch.Load() && n.epoch.Load() > 0 {
		// The fence for the previous epoch completed: mark it durable.
		n.routerLog.AppendEpochMark(n.epoch.Load())
		n.routerLog.Flush(false)
	}
	// Commit everything up to (but not including) the epoch now starting:
	// replication can deliver the new epoch's first entries before this
	// command (different links), and they must stay revertable in case
	// the new epoch fails.
	n.db.CommitEpochBefore(m.Epoch)
	n.releaseResults()
	n.epoch.Store(m.Epoch)
	n.setFailed(m.Failed)
	n.workersDone = 0
	n.phaseDone, n.acked, n.drainBegun = false, false, false
	n.phaseCommitted, n.genSingle, n.genCross = 0, 0, 0
	for _, w := range n.workers {
		w.ctl.Send(m)
	}
}

// setFailed adds the failures a phase command or a revert names to the
// node's view. It never takes one out: a peer comes back up only at an
// install (installTopology), which restarts the link's counters. A set
// that leaves no full replica alive is one the coordinator halts on and
// never sends: a frame that names one is ignored.
func (n *node) setFailed(failed []int) {
	v := n.view.Load()
	if !slices.ContainsFunc(failed, v.Up) {
		return
	}
	if next := v.Fail(failed...); next.master >= 0 {
		n.setView(next)
	}
}

// setView installs v as the node's view. A peer that is up in v and was
// not before — it rejoined or joined — gets this process's transport
// links to it revived: on a 3+ process cluster the survivors' tcpnet
// links to a crashed-and-restarted peer are dead until someone tells the
// transport the peer is back (no-op on simnet and for peers whose links
// never died). A link comes up when both its ends are up in v and were
// not both up before: to a peer that came up, or to every peer of a node
// that came up itself. Its counters restart at zero, at each end on its
// own install: the catch-up stands for everything before, and neither
// end sends on the link until the install that brings the other up.
func (n *node) setView(v *View) {
	old := n.view.Load()
	for i := range v.Capacity {
		if i == n.id || !v.Up(i) {
			continue
		}
		if !old.Up(i) {
			n.e.net.SetDown(i, false)
		}
		if v.Up(n.id) && !(old.Up(i) && old.Up(n.id)) {
			n.tracker.Forget(i)
		}
	}
	n.view.Store(v)
}

// releaseResults observes group-commit latency for every transaction
// committed in the epoch that just closed, and releases the pending
// client responses: a ticketed commit's response (carrying its commit
// epoch as the session freshness token) may only leave once that fence
// completed cluster-wide, which is exactly what the next phase-start
// command certifies. It runs on the router while the workers idle
// between phases (their done reports happened-before this read; the
// next phase command happens-after the reset).
func (n *node) releaseResults() {
	now := int64(n.e.cfg.RT.Now())
	for _, w := range n.workers {
		for _, genAt := range w.pendingLat {
			n.e.latency.Observe(time.Duration(now - genAt))
		}
		w.pendingLat = w.pendingLat[:0]
		for _, pc := range w.pendingClient {
			n.e.net.Send(n.id, pc.origin, transport.Control,
				ClientResp{Ticket: pc.ticket, Status: StatusOK, Token: pc.epoch})
		}
		w.pendingClient = w.pendingClient[:0]
	}
}

// admitDeferred is admission control, the one way into the master queue: a
// full queue rejects the request — counted, and a ticketed one answered
// busy so its client backs off instead of timing out. A blocking enqueue
// would wedge the router the single-master phase depends on, or a
// requeueing worker, which is one of the queue's only consumers.
func (n *node) admitDeferred(req *txn.Request) {
	if !n.masterQ.TrySend(req) {
		n.e.rejected.Inc()
		n.respondClient(req, ClientResp{Status: StatusBusy})
	}
}

// respondClient routes a response for a ticketed request back to its
// originating session gate. No-op for engine-internal requests.
func (n *node) respondClient(req *txn.Request, resp ClientResp) {
	if req.Ticket == 0 {
		return
	}
	resp.Ticket = req.Ticket
	n.e.net.Send(n.id, req.Origin, transport.Control, resp)
}

// reportPhaseDone runs when the last local worker finished the phase
// (its final flush happened-before its done report): mark the end of
// this node's stream to every peer, report to the coordinator, and start
// draining at once.
func (n *node) reportPhaseDone() {
	epoch := n.epoch.Load()
	sent := n.tracker.SentVector()
	n.phaseDone = true
	for _, p := range n.view.Load().up {
		if p != n.id {
			n.e.net.Send(n.id, p, transport.Replication, msgEpochMark{From: n.id, Epoch: epoch, Sent: sent[p]})
		}
	}
	n.e.net.Send(n.id, n.e.cfg.coordID(), transport.Control, msgPhaseDone{
		Node:      n.id,
		Epoch:     epoch,
		Committed: n.phaseCommitted,
		GenSingle: n.genSingle,
		GenCross:  n.genCross,
		Queued:    int64(n.masterQ.Len()),
	})
	n.tryFinishFence()
}

// isPeer reports whether node p takes part in this node's fences: a
// member that answers, other than itself. Both sides of a link evaluate
// it in the view the same phase command installed, so every marker a
// node waits for is one its peer sends.
func (n *node) isPeer(v *View, p int) bool { return p != n.id && v.Up(p) }

// noteMark records a peer's end-of-epoch marker. Markers of a committed
// epoch (a duplicate, or a frame that outlived its fence) are ignored.
func (n *node) noteMark(m msgEpochMark) {
	if m.Epoch < n.epoch.Load() || m.Epoch < n.marks[m.From].epoch {
		return
	}
	n.marks[m.From] = epochMark{epoch: m.Epoch, sent: m.Sent}
	n.tryFinishFence()
}

// tryFinishFence acks the coordinator once this node's phase is over,
// every peer's marker for the epoch is in, and everything the markers
// count has been applied locally. It runs on the router after each event
// that can complete the fence; when only the appliers are outstanding it
// registers the expected vector with the tracker and returns — the
// applier that gets there sends the fenceWake that re-runs it.
func (n *node) tryFinishFence() {
	if !n.phaseDone || n.acked {
		return
	}
	epoch := n.epoch.Load()
	view := n.view.Load()
	for p := range n.marks {
		if n.isPeer(view, p) && n.marks[p].epoch != epoch {
			return
		}
	}
	expected := make([]int64, len(n.marks))
	for p := range n.marks {
		if n.isPeer(view, p) {
			expected[p] = n.marks[p].sent
		}
	}
	if !n.drainBegun {
		// Observability: the drain proper starts here, where the whole
		// expected vector is known (the last peer's phase, or this
		// node's own, just ended) — the backlog the appliers still have
		// to absorb, and the wall time until they have.
		n.drainBegun = true
		n.drainStart = n.e.cfg.RT.Now()
		var lag int64
		for src, exp := range expected {
			if d := exp - n.tracker.Applied(src); d > 0 {
				lag += d
			}
		}
		if n.replLag != nil {
			n.replLag.Set(lag)
		}
	}
	if !n.tracker.AwaitDrained(expected, n.wakeRouter) {
		return
	}
	n.acked = true
	n.e.drainHist.Observe(n.e.cfg.RT.Now() - n.drainStart)
	if n.routerLog != nil {
		// Fence flush: logs are durable at every epoch boundary (§4.5.1).
		n.chargeLog(64)
	}
	n.e.net.Send(n.id, n.e.cfg.coordID(), transport.Control, msgFenceAck{Node: n.id, Epoch: epoch})
}

// wakeRouter runs on the applier that completed the awaited drain. A
// full inbox may refuse the nudge: the router is then busy with queued
// messages, and the ones that matter here re-run tryFinishFence anyway.
func (n *node) wakeRouter() { n.inbox().TrySend(fenceWake{}) }

// applyBatch shards a replication envelope across the node's applier
// processes by partition (value entries commute under the Thomas write
// rule; operation entries need per-partition FIFO, which sharding by
// partition preserves — batching keeps each worker's commit order
// within the envelope, and envelopes per link are FIFO).
//
// Entries apply under the SENDER's epoch stamp (b.Epoch): a peer's
// start-phase command can overtake this node's own on a different link,
// so the receiver's epoch view may lag by one — applying under the
// stamp keeps each record's revert snapshot (which doubles as the
// snapshot-read fence version) attributed to the epoch the write really
// belongs to. Streams never mix epochs in one envelope (SetEpoch
// flushes at the boundary), and every envelope is stamped (the entry
// check refuses epoch 0).
func (n *node) applyBatch(b *msgReplBatch) {
	epoch := b.Epoch
	shards := len(n.appliers)
	if shards == 1 {
		// One applier: the envelope's own slice goes through as is.
		n.appliers[0].Send(applierBatch{from: b.From, epoch: epoch, entries: b.Entries})
		return
	}
	// Count first, so each shard's share is one exactly-sized slice
	// carved from a single allocation instead of an append-grown one.
	counts := make([]int, shards)
	for i := range b.Entries {
		counts[int(b.Entries[i].Part)%shards]++
	}
	block := make([]replication.Entry, len(b.Entries))
	per := make([][]replication.Entry, shards)
	off := 0
	for sh, c := range counts {
		per[sh] = block[off : off : off+c]
		off += c
	}
	for i := range b.Entries {
		sh := int(b.Entries[i].Part) % shards
		per[sh] = append(per[sh], b.Entries[i])
	}
	for sh, ents := range per {
		if len(ents) > 0 {
			n.appliers[sh].Send(applierBatch{from: b.From, epoch: epoch, entries: ents})
		}
	}
}

// superseded reports an envelope of an epoch this node's state already
// accounts for (see caughtUp).
func (n *node) superseded(b *msgReplBatch) bool { return b.Epoch <= n.caughtUp }

// applier is one replay thread's state: its recovery log (nil without
// LogDir) and the scratch an operation entry's post-image is copied into.
type applier struct {
	lg  *wal.Logger
	row []byte
}

// applierLoop is one parallel replay thread.
func (n *node) applierLoop(idx int, ch rt.Chan) {
	var a applier
	if idx >= 0 && idx < len(n.applierLogs) {
		a.lg = n.applierLogs[idx]
	}
	for {
		ab := ch.Recv().(applierBatch)
		n.applyEntries(&a, ab.from, ab.epoch, ab.entries)
	}
}

// applyEntries replays entries from one source under their epoch. On a
// node that logs, every write is logged as a whole record — §5: an operation
// entry is transformed into the row it produced, under the latch that
// applied it, so the log replays in any order though its stream did not.
// An operation entry the Thomas rule refused logs nothing: the newer image
// that refused it already holds its delta and was logged when it landed.
func (n *node) applyEntries(a *applier, from int, epoch uint64, entries []replication.Entry) {
	for i := range entries {
		en := &entries[i]
		row, landed, err := replication.ApplyInto(n.db, epoch, en, a.row, a.lg != nil)
		if err != nil { // past the entry check: field ops finding no row, divergence
			panic("core: replication apply: " + err.Error())
		}
		if !landed && en.IsOp() {
			n.e.replRefused.Inc()
			continue
		}
		if row != nil {
			a.row = row
		} else {
			row = en.Row
		}
		if a.lg != nil {
			n.chargeLog(len(row) + 32)
			a.lg.AppendWrite(en.Table, en.Part, en.Key, en.TID, en.Absent, row)
		}
	}
	if a.lg != nil {
		a.lg.Flush(false)
	}
	n.e.cfg.RT.Compute(time.Duration(len(entries)) * CostApplyEntry)
	n.tracker.AddApplied(from, int64(len(entries)))
}

// chargeLog accounts log bytes and models their virtual IO/CPU cost.
func (n *node) chargeLog(bytes int) {
	n.e.logBytes.Add(int64(bytes))
	n.e.cfg.RT.Compute(time.Duration(float64(bytes) / 1024 * float64(CostLogPerKB)))
}

// revert rolls the in-flight epoch back after a failure (paper Fig 6),
// in storage and in the logs (its retry reuses the number), and moves to
// the post-failure view, whose mastership is derived. The wildcard
// revert of a member being readmitted discards every epoch storage holds
// open — the one in flight and the next, whose entries may have landed —
// so it marks both: the next phase start marks the epoch in flight
// durable, which would bring its entries back. (The catch-up that
// follows is not logged.)
func (n *node) revert(m msgRevert) {
	first, last := m.Epoch, m.Epoch
	if m.Epoch == 0 {
		cur := n.epoch.Load()
		n.caughtUp = max(n.caughtUp, cur)
		first, last = max(cur, 1), cur+1 // 0 is the wildcard, not an epoch
	}
	for e := first; n.dir != nil && e <= last; e++ {
		_ = n.dir.Revert(e) // like its marks: a log that fails is lost to recovery
	}
	n.db.RevertEpoch(m.Epoch)
	for _, w := range n.workers {
		w.pendingLat = w.pendingLat[:0] // uncommitted: results never released
		// Reverted ticketed commits rolled back with the epoch; their
		// clients time out and retry rather than receive a token for a
		// fence that never completed.
		w.pendingClient = w.pendingClient[:0]
	}
	n.setFailed(m.Failed)
	// Re-mastered partitions may need local materialisation on a full
	// replica that already holds them (no-op) or a partial that was the
	// secondary (also already holds them); nothing to copy (§4.5.3:
	// re-mastering transfers no data).
	//
	// The reverted epoch's fence is void: abort the drain and forget
	// every marker, including those of nodes that just failed. The retry
	// sends fresh ones behind the retried phase's envelopes.
	n.tracker.CancelAwait()
	n.phaseDone, n.acked = false, false
	for i := range n.marks {
		n.marks[i] = epochMark{}
	}
}

// ownedPartitions returns the partitions this node currently masters,
// for the given worker index (striped across workers).
func (n *node) ownedPartitions(workerIdx int) []int {
	var out []int
	for p, m := range n.view.Load().masters {
		if int(m) == n.id && p%len(n.workers) == workerIdx {
			out = append(out, p)
		}
	}
	return out
}

// serveSnapshot sends a recovering node one partition it holds, in one
// message.
func (n *node) serveSnapshot(m msgSnapshotReq) {
	if n.db.Holds(m.Part) {
		n.e.net.Send(n.id, m.From, transport.Data, snapshotOf(n.db, m.Part, n.id, n.epoch.Load()))
	}
}

// snapshotOf copies partition part of db — every present record of every
// partitioned table — into a catch-up message from node from, taken in
// epoch.
func snapshotOf(db *storage.DB, part, from int, epoch uint64) *msgSnapshot {
	rows := &replication.Batch{From: from, Epoch: epoch}
	for ti := 0; ti < db.NumTables(); ti++ {
		tbl := db.Table(storage.TableID(ti))
		if tbl.Replicated() {
			continue
		}
		tbl.Partition(part).Range(func(key storage.Key, tid uint64, val []byte) bool {
			rows.Entries = append(rows.Entries, replication.Entry{Table: tbl.ID(), Part: int32(part), Key: key, TID: tid,
				Row: append([]byte(nil), val...)})
			return true
		})
	}
	return &msgSnapshot{Part: part, Rows: rows}
}

func (n *node) applySnapshot(m *msgSnapshot) {
	if !n.db.Holds(m.Part) {
		return
	}
	n.caughtUp = max(n.caughtUp, m.Rows.Epoch)
	epoch := n.epoch.Load()
	// Catch-up rows land like replicated ones — registered for revert, so
	// an abandoned catch-up (a lost snapshot frame, a re-crash) is undone
	// whole by the next attempt's wildcard revert, and indexed, so the
	// entries that revert tombstoned come back with their rows.
	for i := range m.Rows.Entries {
		e := &m.Rows.Entries[i]
		_, _ = n.db.Table(e.Table).LandThomas(m.Part, e.Key, epoch, e.TID, e.Write(), nil) // only field ops can be refused
	}
	// The rows themselves applied idempotently above (Thomas write rule);
	// only the first copy of a partition's snapshot advances the catch-up
	// accounting.
	if !n.snapPending[m.Part] {
		return
	}
	// Removal sweep: a row the cluster deleted (and reclaimed) while this
	// node was down is simply missing from the donor's snapshot, so
	// additive catch-up alone would leave it alive here forever. Any
	// present local row the snapshot does not mention is deleted under its
	// own TID — a genuinely newer write still beats the tombstone by the
	// Thomas rule. Guarded by the pending check above: a duplicate
	// (re-delivered, stale) snapshot must not delete rows inserted since
	// the first copy applied.
	type row struct {
		table storage.TableID
		key   storage.Key
	}
	seen := make(map[row]struct{}, len(m.Rows.Entries))
	for i := range m.Rows.Entries {
		seen[row{m.Rows.Entries[i].Table, m.Rows.Entries[i].Key}] = struct{}{}
	}
	for ti := 0; ti < n.db.NumTables(); ti++ {
		tbl := n.db.Table(storage.TableID(ti))
		if tbl.Replicated() {
			continue
		}
		var stale []storage.Key
		var staleTIDs []uint64
		tbl.Partition(m.Part).Range(func(key storage.Key, tid uint64, val []byte) bool {
			if _, ok := seen[row{tbl.ID(), key}]; !ok {
				stale = append(stale, key)
				staleTIDs = append(staleTIDs, tid)
			}
			return true
		})
		for i, key := range stale {
			tbl.Delete(m.Part, key, epoch, staleTIDs[i])
		}
	}
	delete(n.snapPending, m.Part)
	if len(n.snapPending) == 0 {
		n.e.net.Send(n.id, n.e.cfg.coordID(), transport.Control, msgRecoveryDone{Node: n.id})
	}
}
