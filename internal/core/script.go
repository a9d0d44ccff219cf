package core

import (
	"fmt"
	"sort"
	"time"

	"star/internal/rt"
	"star/internal/transport"
	"star/internal/txn"
)

// Script describes a deterministic bounded run: instead of time-driven
// phase switching, the cluster executes exactly one partitioned phase
// (every owned partition runs TxnsPerPartition generator steps, single-
// partition transactions serially, cross-partition ones deferred) and
// one single-master phase (worker 0 of the master drains exactly the
// deferred requests in a deterministic order), each closed by a
// replication fence. The result — committed count and per-partition
// checksums — is a pure function of the configuration and seed,
// independent of runtime (simulated or wall-clock) and transport
// (simnet or tcpnet): that is the equivalence the loopback TCP
// integration tests pin.
type Script struct {
	// TxnsPerPartition is the generator-step count per owned partition
	// in the partitioned phase. The deferred cross-partition subset must
	// stay below the master queue's capacity (65536).
	TxnsPerPartition int
}

// NodeChecksums is one node's post-fence partition checksums, aligned
// with Parts (ascending).
type NodeChecksums struct {
	Node  int      `json:"node"`
	Parts []int32  `json:"parts"`
	Sums  []uint64 `json:"sums"`
}

// ScriptResult is a scripted run's outcome.
type ScriptResult struct {
	// Committed counts transactions committed cluster-wide across both
	// phases.
	Committed int64 `json:"committed"`
	// Checksums holds every node's partition checksums, sorted by node.
	Checksums []NodeChecksums `json:"checksums"`
	// Err reports a failed run ("" on success).
	Err string `json:"err,omitempty"`
}

// ScriptRun is a scripted run in progress.
type ScriptRun struct {
	// E is the underlying engine (local nodes only on multi-process
	// clusters).
	E    *Engine
	done chan ScriptResult
}

// Done yields the result exactly once. On the coordinator process it is
// the cluster result; node-only processes yield a zero result when the
// coordinator's halt arrives (their part of the run is complete).
func (r *ScriptRun) Done() <-chan ScriptResult { return r.done }

// scriptDeadline is far enough in the future that scripted workers and
// the OCC retry loop never observe a phase end.
const scriptDeadline = time.Duration(1) << 60

// StartScripted builds the cluster (honouring Transport/LocalNodes) and
// starts the scripted run. On the simulated runtime the caller drives
// rt.Sim.Run until Done yields; on the real runtime Done can simply be
// received from.
func StartScripted(cfg Config, sc Script) *ScriptRun {
	if sc.TxnsPerPartition <= 0 {
		// ScriptTxns > 0 is the workers' "scripted" marker; zero would
		// silently fall back to deadline-driven phases with a ~36-year
		// deadline.
		panic("core: Script.TxnsPerPartition must be positive")
	}
	e := build(cfg)
	e.scripted = true
	e.start()
	run := &ScriptRun{E: e, done: make(chan ScriptResult, 1)}
	if e.coord != nil {
		cfg.RT.Go("star-script-coordinator", func() {
			run.done <- e.scriptLoop(sc)
		})
		return run
	}
	// Node-only process: wait for the coordinator's halt.
	cfg.RT.Go("star-script-wait", func() {
		e.haltCh.Recv()
		run.done <- ScriptResult{}
	})
	return run
}

// scriptGather pumps the coordinator inbox until pred is satisfied or
// the timeout expires.
func scriptGather(r rt.Runtime, in rt.Chan, timeout time.Duration, take func(any) bool) bool {
	deadline := r.Now() + timeout
	for {
		if take(nil) {
			return true
		}
		d := deadline - r.Now()
		if d <= 0 {
			return false
		}
		m, ok := in.RecvTimeout(d)
		if !ok {
			return take(nil)
		}
		if take(m) {
			return true
		}
	}
}

// scriptTimeout bounds each cluster-wide step of a scripted run. Real
// multi-process runs include dial warm-up and real execution; virtual
// runs burn it only on actual failure.
const scriptTimeout = 5 * time.Minute

// scriptLoop drives the scripted run from the coordinator endpoint.
func (e *Engine) scriptLoop(sc Script) ScriptResult {
	r := e.cfg.RT
	coord := e.cfg.coordID()
	in := e.net.Inbox(coord)
	nodes := e.cfg.Nodes
	fail := func(format string, args ...any) ScriptResult {
		res := ScriptResult{Err: fmt.Sprintf(format, args...)}
		e.broadcastScript(msgHalt{})
		return res
	}

	// runPhase runs one phase and its replication fence (§4.3): every
	// node reports its phase end, drains what its peers' end-of-epoch
	// markers count, and acks. A fast node's ack can overtake a slow
	// node's report, so one gather collects both.
	runPhase := func(cmd msgStartPhase) (map[int]msgPhaseDone, bool) {
		e.broadcastScript(cmd)
		done := map[int]msgPhaseDone{}
		acks := map[int]bool{}
		ok := scriptGather(r, in, scriptTimeout, func(m any) bool {
			switch v := m.(type) {
			case msgPhaseDone:
				if v.Epoch == cmd.Epoch {
					done[v.Node] = v
				}
			case msgFenceAck:
				if v.Epoch == cmd.Epoch {
					acks[v.Node] = true
				}
			}
			return len(done) == nodes && len(acks) == nodes
		})
		return done, ok
	}

	// Phase 1: partitioned, bounded by generator steps.
	done1, ok := runPhase(msgStartPhase{
		Phase: Partitioned, Epoch: 2, Deadline: scriptDeadline, Master: 0,
		ScriptTxns: sc.TxnsPerPartition,
	})
	if !ok {
		return fail("scripted partitioned phase incomplete: %d/%d nodes", len(done1), nodes)
	}
	var committed, deferred int64
	for _, pd := range done1 {
		committed += pd.Committed
		deferred += pd.GenCross
	}

	// Phase 2: single-master, draining exactly the deferred requests.
	done2, ok := runPhase(msgStartPhase{
		Phase: SingleMaster, Epoch: 3, Deadline: scriptDeadline, Master: 0,
		ScriptTxns: sc.TxnsPerPartition, ScriptDeferred: deferred,
	})
	if !ok {
		return fail("scripted single-master phase incomplete: %d/%d nodes", len(done2), nodes)
	}
	for _, pd := range done2 {
		committed += pd.Committed
	}

	// Post-fence checksums: the replicas are quiesced and must agree.
	// Served through the unified admin envelope (Node -1 = yourself).
	e.broadcastScript(AdminReq{V: AdminProtoVersion, Op: AdminChecksums, From: coord, Node: -1})
	sums := map[int]AdminResp{}
	ok = scriptGather(r, in, scriptTimeout, func(m any) bool {
		if cs, isCS := m.(AdminResp); isCS && cs.Op == AdminChecksums {
			sums[cs.Node] = cs
		}
		return len(sums) == nodes
	})
	if !ok {
		return fail("checksum gather incomplete: %d/%d nodes", len(sums), nodes)
	}
	e.broadcastScript(msgHalt{})

	res := ScriptResult{Committed: committed}
	for i := 0; i < nodes; i++ {
		cs := sums[i]
		res.Checksums = append(res.Checksums, NodeChecksums{Node: i, Parts: cs.Parts, Sums: cs.Sums})
	}
	return res
}

func (e *Engine) broadcastScript(m transport.Message) {
	coord := e.cfg.coordID()
	for i := 0; i < e.cfg.Nodes; i++ {
		e.net.Send(coord, i, transport.Control, m)
	}
}

// faultInjector is implemented by fault-injecting transport decorators
// (internal/faultnet.Network): serveAdmin's AdminFaultStats surfaces
// its counters over the admin protocol without core importing the
// injector package.
type faultInjector interface{ Injected() map[string]int64 }

// ---- worker side ----

// scriptStamp derives the deterministic total-order stamp scripted
// requests carry in GenAt: unique across (step, node, worker) and
// identical across runtimes, so the master can sort its deferred queue
// into a reproducible execution order.
func scriptStamp(seq int64, node, worker int) int64 {
	return seq<<20 | int64(node)<<10 | int64(worker)
}

// runPartitionedScripted is the deterministic variant of
// runPartitioned: exactly ScriptTxns generator steps per owned
// partition, no deadline, no freeze checks, no tail flushing.
func (w *worker) runPartitionedScripted(cmd msgStartPhase) {
	r := w.n.e.cfg.RT
	parts := w.n.ownedPartitions(w.idx)
	if len(parts) == 0 {
		return
	}
	seq := int64(0)
	for step := 0; step < cmd.ScriptTxns; step++ {
		for _, home := range parts {
			seq++
			w.req.ResetFor(w.gen.Mixed(home), scriptStamp(seq, w.n.id, w.idx))
			if w.req.Cross || txn.IsDeferred(w.req.Proc) {
				if w.snapshotServe(&w.req, cmd.Epoch) {
					w.genSingle++ // served locally; not part of the master drain
					continue
				}
				w.genCross++
				w.n.e.net.Send(w.n.id, cmd.Master, transport.Data, msgDefer{Req: w.req.Clone()})
				r.Compute(w.n.e.cfg.Cost.TxnOverhead / 2)
				continue
			}
			w.genSingle++
			w.execSerial(&w.req, cmd.Epoch)
		}
	}
}

// runMasterScripted drains exactly the deferred requests (blocking on
// the queue until the routed messages arrive) and executes them
// serially in stamp order — with one worker and no concurrency the
// outcome is deterministic.
func (w *worker) runMasterScripted(cmd msgStartPhase) {
	reqs := make([]*txn.Request, 0, cmd.ScriptDeferred)
	for int64(len(reqs)) < cmd.ScriptDeferred {
		reqs = append(reqs, w.n.masterQ.Recv().(*txn.Request))
	}
	sort.Slice(reqs, func(i, j int) bool { return reqs[i].GenAt < reqs[j].GenAt })
	for _, req := range reqs {
		// Read-only requests deferred by a node that did not hold their
		// footprint are served from the master's fence snapshot — the
		// master holds everything, so this never falls through.
		if w.snapshotServe(req, cmd.Epoch) {
			continue
		}
		w.execOCC(req, cmd)
	}
}
