package core

import (
	"iter"
	"math/rand"
	"time"

	"star/internal/occ"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wal"
	"star/internal/wire/prim"
	"star/internal/workload"
)

// worker is one execution thread. In the partitioned phase it serially
// runs single-partition transactions on the partitions it masters; in
// the single-master phase (on the designated master only) it runs
// cross-partition transactions under OCC.
//
// The worker owns every scratch structure the per-transaction path
// needs — the read/write set, the execution context and its read arena,
// a routing Request, and the replication stream with its arenas — so a
// steady-state committed transaction performs no heap allocation and
// takes no shared mutex: phase monitors and group-commit latency stamps
// accumulate in worker-local shards that the router drains at the phase
// fence.
type worker struct {
	n    *node
	idx  int
	gen  workload.Gen
	rng  *rand.Rand
	tid  occ.TIDGen
	strm *replication.Stream
	ctl  rt.Chan // phase commands from the router
	resp rt.Chan // replication acks (SYNC STAR)
	set  txn.RWSet
	seq  uint64 // sync-batch sequence
	// logger is the worker's real recovery log (LogDir mode).
	logger *wal.Logger

	// lctx is the reusable execution context, live or at the fence (its
	// arena backs the row copies handed to procedures, reset per
	// transaction).
	lctx txn.Local
	// req is the reusable routing scratch for generated transactions;
	// only deferred cross-partition requests are cloned to the heap.
	req txn.Request

	// Phase-monitor shards, reported to the router in workerDoneMsg at
	// the end of each phase (no node mutex on the commit path).
	committed int64
	genSingle int64
	genCross  int64
	repl      replStats
	// pendingLat holds GenAt stamps of transactions committed this
	// epoch; the router (sole reader while workers idle at the fence)
	// releases them as group-commit latencies at the next phase start.
	pendingLat []int64
	// pendingClient holds ticketed client commits awaiting their fence:
	// the router releases their responses (with the commit epoch as the
	// session freshness token) alongside pendingLat.
	pendingClient []clientDone
}

// clientDone is one ticketed commit awaiting group-commit release.
type clientDone struct {
	origin int
	ticket uint64
	epoch  uint64
}

func newWorker(n *node, idx int) *worker {
	e := n.e
	w := &worker{
		n:    n,
		idx:  idx,
		gen:  e.cfg.Workload.NewGen(workload.WorkerSeed(e.cfg.Seed, n.id, idx)),
		rng:  workload.WorkerRNG(e.cfg.Seed, n.id, idx),
		strm: replication.NewStream(e.net, n.tracker, n.id, streamLimits()),
		ctl:  e.cfg.RT.NewChan(4),
		resp: e.cfg.RT.NewChan(16),
	}
	w.lctx.DB, w.lctx.Set = n.db, &w.set
	return w
}

func (w *worker) loop() {
	for {
		cmd := w.ctl.Recv().(msgStartPhase)
		w.strm.SetEpoch(cmd.Epoch)
		w.committed, w.genSingle, w.genCross, w.repl = 0, 0, 0, replStats{}
		// The view the router installed before it passed the command on.
		master := w.n.view.Load().master
		switch {
		case cmd.Phase == Partitioned:
			w.runPartitioned(cmd, master)
		case cmd.Phase == SingleMaster && w.n.id == master && cmd.ScriptTxns > 0:
			// Deterministic drain: worker 0 alone executes the deferred
			// requests serially; the other workers just report done.
			if w.idx == 0 {
				w.runMasterScripted(cmd)
			}
		case cmd.Phase == SingleMaster && w.n.id == master:
			w.runSingleMaster(cmd)
		default:
			// Standing by for replication (§4.3): the router and appliers
			// replay the master's stream; this worker has nothing to do
			// and reports at once, so only the master bounds τs. Sleeping
			// the slice out would put a sub-millisecond timer on every
			// single-master phase's critical path (see yieldEvery).
		}
		w.strm.Flush()
		if w.logger != nil {
			w.logger.Flush(false) // fence flush (§4.5.1)
		}
		w.n.inbox().Send(workerDoneMsg{
			Worker:    w.idx,
			Committed: w.committed,
			GenSingle: w.genSingle,
			GenCross:  w.genCross,
			Repl:      w.repl,
		})
	}
}

// yieldEvery is how long a worker loop runs before offering its
// processor to whatever queued up behind it. Go preempts a running
// goroutine only after ~10ms — a whole iteration — and looks at the
// network only when a processor has nothing runnable, so with as many
// workers as processors a loop that never yields leaves the router, the
// appliers, the link readers and writers and the coordinator waiting
// for that preemption: envelopes a flush queued stay unwritten, the
// peer's stay unread until the fence, a phase command sits in a socket.
// The same scheduler serves a sub-millisecond timer no sooner than ~1ms
// on an idle processor and no sooner than the forced preemption on busy
// ones, which is why nothing on the phase switch's path sleeps or polls.
// A yield costs ~4µs (rt.BenchmarkRealYield).
const yieldEvery = 100 * time.Microsecond

// steps is the one phase loop: it yields the step index until the
// phase's deadline passes, the engine freezes or, with limit > 0, limit
// steps have run. Between steps it offers the processor every
// yieldEvery and, in the last two one-way latencies before the deadline,
// ships the buffered entries at most once per latency (the fence-tail
// flush): the replicas apply them while the phase still runs, and the
// fence drain waits only for the final transactions' writes instead of
// a full threshold-sized envelope's wire and apply time.
func (w *worker) steps(cmd msgStartPhase, limit int) iter.Seq[int] {
	return func(body func(int) bool) {
		r := w.n.e.cfg.RT
		defer r.Busy()()
		tailAt, flushed := cmd.Deadline-2*cmd.Lat, time.Duration(0)
		yieldAt := r.Now() + yieldEvery
		for i := 0; limit <= 0 || i < limit; i++ {
			now := r.Now()
			if now >= cmd.Deadline || w.n.e.frozen.Load() {
				return
			}
			if now >= yieldAt {
				r.Yield()
				yieldAt = now + yieldEvery
			}
			if now >= tailAt && now-flushed >= cmd.Lat {
				w.strm.Flush()
				flushed = now
			}
			if !body(i) {
				return
			}
		}
	}
}

// ---- partitioned phase ----

// runPartitioned runs generator steps round-robin over the partitions
// the worker masters: until the deadline, or in a scripted phase exactly
// ScriptTxns per partition, stamped with scriptStamp.
func (w *worker) runPartitioned(cmd msgStartPhase, master int) {
	parts := w.n.ownedPartitions(w.idx)
	if len(parts) == 0 {
		return // nothing mastered here: the workers that have work bound τp
	}
	r := w.n.e.cfg.RT
	for i := range w.steps(cmd, cmd.ScriptTxns*len(parts)) {
		at := int64(r.Now())
		if cmd.ScriptTxns > 0 {
			at = scriptStamp(int64(i)+1, w.n.id, w.idx)
		}
		w.step(parts[i%len(parts)], at, cmd.Epoch, master)
	}
}

// step is one generator step of the partitioned phase: generate home's
// next transaction stamped at, and run it where the phase allows —
// serially here, from the local fence snapshot, or deferred to the
// master.
func (w *worker) step(home int, at int64, epoch uint64, master int) {
	w.req.ResetFor(w.gen.Mixed(home), at)
	if !w.req.Cross && !txn.IsDeferred(w.req.Proc) {
		w.genSingle++
		w.execSerial(&w.req, epoch)
		return
	}
	if w.snapshotServe(&w.req, epoch) {
		// Served from the local fence snapshot: no master routing, and
		// no single-master phase needed for it.
		w.genSingle++
		return
	}
	// Defer to the master node's queue (§4.1), one request per message.
	// Deliberately NOT batched: interleaved arrival from many source
	// workers is what keeps adjacent queue entries conflict-independent —
	// shipping runs of requests from one generator makes the master's OCC
	// workers execute same-partition transactions back to back and the
	// abort rate explodes (measured: 4x aborts, -36% throughput on
	// paper-scale TPC-C at P=10). The request escapes this worker, so it
	// gets its own heap copy.
	w.genCross++
	w.n.e.net.Send(w.n.id, master, transport.Data, msgDefer{Req: w.req.Clone()})
	w.n.e.cfg.RT.Compute(CostTxnOverhead / 2)
}

// execSerial runs a single-partition transaction with no concurrency
// control (§4.1) and replicates its writes. The steady-state commit path
// (no insert) is allocation-free: the context, read/write set, request
// and replication buffers are all worker-owned scratch.
func (w *worker) execSerial(req *txn.Request, epoch uint64) {
	e := w.n.e
	r := e.cfg.RT
	w.set.Reset()
	w.lctx.Reset()
	err := req.Proc.Run(&w.lctx)
	r.Compute(ExecCost(w.lctx.Reads, w.lctx.Writes))
	if err != nil {
		// Single-partition transactions only abort for application
		// reasons (no concurrent access to the partition).
		e.userAborts.Inc()
		return
	}
	// Updates replicate as ops; whole rows are collected only for the log.
	tidv, ok := occ.CommitSerial(w.n.db, &w.set, epoch, &w.tid, w.logger != nil)
	if !ok {
		e.aborted.Inc()
		return
	}
	w.emitEntries(tidv, true)
	w.chargeTxnLog(tidv)
	w.finishCommit(req, epoch)
}

// emitEntries streams the committed write set, in key order, to each
// written partition's replica targets by §5's hybrid rule. An update ships
// as its field ops from the partitioned phase (one writer, FIFO links) and,
// in the single-master phase, whose workers' envelopes may cross, when it
// is its record's first write of the epoch: computed on the fence version
// every replica holds, it is contained in any later row that overtakes it.
// Later updates ship rows; inserts and deletes have no delta form. Entries
// are built on the stack, copied into the stream's arenas (no allocation)
// and sent to the view's alive holders, this node aside.
func (w *worker) emitEntries(tidv uint64, partitioned bool) {
	holders := w.n.view.Load().holders
	for _, i := range w.set.KeyOrder() {
		wr := &w.set.Writes[i]
		ent := replication.Entry{Table: wr.Table, Part: int32(wr.Part), Key: wr.Key, TID: tidv}
		if (partitioned || wr.FirstOfEpoch) && !wr.Insert && !wr.Delete {
			if ent.Ops = wr.Ops; ent.Ops == nil {
				ent.Ops = []storage.FieldOp{} // IsOp is Ops != nil: the replica still bumps the TID
			}
		} else {
			ent.Row, ent.Absent = wr.Row, wr.Delete
		}
		rowSize := w.n.db.Table(wr.Table).Schema().RowSize()
		for _, dst := range holders[wr.Part] {
			if dst == w.n.id {
				continue
			}
			header, payload, raw := w.strm.Append(dst, ent)
			w.repl.note(&ent, rowSize, header, payload, raw)
		}
	}
}

// replStats is one worker's replication shard for a phase, folded into
// the registry by the router at the fence: entries shipped by kind, the
// bytes their envelopes encode them in (each entry is coded against the
// one before it, so that is not a sum of standalone sizes), and what they
// would have cost as whole records (rows are fixed-size per schema, so
// that is a sum, not a second run).
type replStats struct {
	OpEntries, ValueEntries int64
	Bytes, ValueEquivBytes  int64
}

// note counts e at what its envelope encodes it in (EntryCoder.Next);
// rowSize, its table's row size, is what an operation entry would have
// carried as a value behind the same header — a whole row, as a value
// entry's own is priced however few bytes it packed into.
func (s *replStats) note(e *replication.Entry, rowSize, header, payload, raw int) {
	if e.IsOp() {
		raw = prim.UvarintLen(uint64(rowSize)) + rowSize
		s.OpEntries++
	} else {
		s.ValueEntries++
	}
	s.Bytes += int64(header + payload)
	s.ValueEquivBytes += int64(header + raw)
}

// ---- single-master phase ----

func (w *worker) runSingleMaster(cmd msgStartPhase) {
	r := w.n.e.cfg.RT
	nparts := w.n.e.cfg.NumPartitions()
	for range w.steps(cmd, 0) {
		var req *txn.Request
		if v, ok := w.n.masterQ.TryRecv(); ok {
			req = v.(*txn.Request)
		} else {
			// Queue drained: generate fresh cross-partition work (§7.1:
			// workers generate and run transactions back to back).
			home := w.rng.Intn(nparts)
			req = txn.NewRequest(w.gen.Cross(home), int64(r.Now()))
			w.genCross++
		}
		if w.snapshotServe(req, cmd.Epoch) {
			continue // read-only: served from the fence snapshot, no OCC
		}
		w.execOCC(req, cmd)
	}
}

// execOCC runs one transaction to commit (retrying concurrency aborts)
// under the Silo-variant protocol of §4.2. The worker's context, set and
// stream scratch are reused across attempts.
func (w *worker) execOCC(req *txn.Request, cmd msgStartPhase) {
	e := w.n.e
	r := e.cfg.RT
	for {
		w.set.Reset()
		w.lctx.Reset()
		err := req.Proc.Run(&w.lctx)
		// Yield for the modelled execution time BEFORE commit: the OCC
		// validation window is exposed to concurrent workers.
		r.Compute(ExecCost(w.lctx.Reads, w.lctx.Writes))
		if err == txn.ErrUserAbort {
			e.userAborts.Inc()
			// Nothing committed: a ticketed client request answers
			// immediately — there is no fence to wait for.
			w.n.respondClient(req, ClientResp{Status: StatusAborted})
			return
		}
		if err == nil && !w.lctx.Failed {
			if e.cfg.SyncRepl {
				if w.commitSync(req, cmd.Epoch) {
					return
				}
			} else {
				commit := occ.Commit
				if e.cfg.ReadCommitted {
					commit = occ.CommitReadCommitted
				}
				tidv, ok := commit(w.n.db, &w.set, cmd.Epoch, &w.tid, true)
				if ok {
					w.emitEntries(tidv, false)
					w.chargeTxnLog(tidv)
					w.finishCommit(req, cmd.Epoch)
					return
				}
			}
		}
		e.aborted.Inc()
		req.Retries++
		if r.Now() >= cmd.Deadline {
			// Phase over: requeue so the transaction is not lost.
			w.n.admitDeferred(req)
			return
		}
	}
}

// ---- read-only snapshot path (Config.SnapshotReads) ----

// snapshotServe serves a routable request (cross-partition footprint or
// deferred-execution class) from the local fence snapshot (readAtFence,
// for no session: token 0). Returns true when the request was consumed
// locally; false means the caller must route it to the master as usual.
func (w *worker) snapshotServe(req *txn.Request, epoch uint64) bool {
	resp, ok := w.n.readAtFence(&w.lctx, epoch, 0, req)
	if !ok {
		return false
	}
	e := w.n.e
	r := e.cfg.RT
	r.Compute(ExecCost(w.lctx.Reads, 0))
	if resp.Status == StatusOK {
		e.partCommits[req.Home].Inc()
		w.committed++
		e.latency.Observe(time.Duration(int64(r.Now()) - req.GenAt))
	}
	w.n.respondClient(req, resp)
	return true
}

// readAtFence runs a read-only transaction for a session holding token
// against the node's last epoch fence, epoch being the one in flight:
// every read resolves to the pre-epoch version of records written in the
// in-flight epoch, which is the consistent cluster-wide snapshot the
// previous replication fence installed on every replica. No locks, no
// validation, no replication, no master routing — and no group-commit
// wait: the result releases immediately because it only exposes state
// that already group-committed at the fence, and the token it carries is
// the fence it observed. ok=false means the request must go to the master
// instead: the snapshot path is off, the procedure writes, the token's
// fence has not completed here (see ClientGate), or this node does not
// hold every partition the footprint touches. The caller owns the ticket.
func (n *node) readAtFence(c *txn.Local, epoch, token uint64, req *txn.Request) (ClientResp, bool) {
	e := n.e
	if !e.cfg.SnapshotReads || !txn.IsReadOnly(req.Proc) {
		return ClientResp{}, false
	}
	here := token < epoch
	for _, p := range req.Parts {
		here = here && n.db.Holds(p)
	}
	if !here {
		e.snapFallback.Inc()
		return ClientResp{}, false
	}
	c.Reset()
	c.Fence = epoch
	err := req.Proc.Run(c)
	if c.Writes > 0 {
		panic("core: read-only transaction wrote on the snapshot path")
	}
	if err != nil {
		e.userAborts.Inc()
		return ClientResp{Status: StatusAborted}, true
	}
	e.snapReads.Inc()
	e.committed.Inc()
	return ClientResp{Status: StatusOK, Token: epoch - 1, Reads: int64(c.Reads)}, true
}

// commitSync implements SYNC STAR: locks are held while every replica
// acknowledges the writes (§6.1 & Fig 15a).
func (w *worker) commitSync(req *txn.Request, epoch uint64) bool {
	if !occ.LockAndValidate(w.n.db, &w.set, epoch) {
		return false
	}
	tidv := w.tid.Next(epoch, w.set.MaxReadTID())
	occ.ApplyWrites(w.n.db, &w.set, epoch, tidv, true)

	entries := replication.ValueEntries(&w.set, tidv)
	view := w.n.view.Load()
	perDst := make([][]replication.Entry, len(view.Member)) // by node id: sent in id order
	for i := range entries {
		for _, dst := range view.holders[entries[i].Part] {
			perDst[dst] = append(perDst[dst], entries[i])
		}
	}
	w.seq++
	want := 0
	for dst, ents := range perDst {
		if dst == w.n.id || len(ents) == 0 {
			continue
		}
		w.n.tracker.AddSent(dst, int64(len(ents)))
		var sz replication.EntryCoder
		sz.Reset(epoch)
		for i := range ents {
			header, payload, raw := sz.Next(&ents[i])
			w.repl.note(&ents[i], 0, header, payload, raw)
		}
		w.n.e.net.Send(w.n.id, dst, transport.Replication, syncBatch{
			Batch:   &msgReplBatch{From: w.n.id, Epoch: epoch, Entries: ents},
			Worker:  w.idx,
			Seq:     w.seq,
			ReplyTo: w.n.id,
		})
		want++
	}
	for got := 0; got < want; {
		v, ok := w.resp.RecvTimeout(50 * time.Millisecond)
		if !ok {
			break // replica lost; the fence will sort it out
		}
		if a := v.(msgReplAck); a.Seq == w.seq {
			got++
		}
	}
	occ.ReleaseLocks(&w.set)
	w.chargeTxnLog(tidv)
	w.finishCommit(req, epoch)
	return true
}

func (w *worker) finishCommit(req *txn.Request, epoch uint64) {
	e := w.n.e
	e.committed.Inc()
	e.partCommits[req.Home].Inc()
	w.committed++
	w.pendingLat = append(w.pendingLat, req.GenAt)
	if req.Ticket != 0 {
		// The response waits for the fence like the latency stamp does:
		// the router releases it at the next phase start, carrying the
		// commit epoch as the session's freshness token.
		w.pendingClient = append(w.pendingClient, clientDone{
			origin: req.Origin, ticket: req.Ticket, epoch: epoch,
		})
	}
}

// chargeTxnLog logs the write set committed under tid locally as whole
// rows (§4.5.1), on a node that logs, and charges the log's modelled
// cost. The locks are gone: a record may already hold a newer TID.
func (w *worker) chargeTxnLog(tid uint64) {
	if w.logger == nil {
		return
	}
	bytes := 0
	for i := range w.set.Writes {
		bytes += 32 + len(w.set.Writes[i].Row)
	}
	w.n.chargeLog(bytes)
	for i := range w.set.Writes {
		wr := &w.set.Writes[i]
		w.logger.AppendWrite(wr.Table, int32(wr.Part), wr.Key, tid, wr.Delete, wr.Row)
	}
}
