package core

import (
	"fmt"
	"sort"
	"time"

	"star/internal/txn"
)

// Script describes a deterministic bounded run. It is not a second
// coordinator: it is a count-bounded policy on coordinator.runPhase (see
// runScript). Instead of time-driven phase switching, the cluster
// executes exactly one partitioned phase (every owned partition runs
// TxnsPerPartition generator steps, single-partition transactions
// serially, cross-partition ones deferred) and one single-master phase
// (worker 0 of the master drains exactly the deferred requests in a
// deterministic order), each closed by the ordinary replication fence.
// The result — committed count and per-partition checksums — is a pure
// function of the configuration and seed, independent of runtime
// (simulated or wall-clock) and transport (simnet or tcpnet): that is the
// equivalence the loopback TCP integration tests pin, which is why the
// scripted run exists.
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
	txns int // Script.TxnsPerPartition
}

// Done yields the result exactly once. On the coordinator process it is
// the cluster result; node-only processes yield a zero result when the
// coordinator's halt arrives (their part of the run is complete).
func (r *ScriptRun) Done() <-chan ScriptResult { return r.done }

// scriptDeadline is a phase budget long enough that scripted workers and
// the OCC retry loop never observe a phase end.
const scriptDeadline = time.Duration(1) << 60

// scriptTimeout bounds each cluster-wide step of a scripted run. Real
// multi-process runs include dial warm-up and real execution; virtual
// runs burn it only on actual failure.
const scriptTimeout = 5 * time.Minute

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
	run := &ScriptRun{E: e, done: make(chan ScriptResult, 1), txns: sc.TxnsPerPartition}
	if e.coord != nil {
		e.coord.script = run // before start: coordinator.loop reads it
	}
	e.start()
	if e.coord == nil {
		// Node-only process: wait for the coordinator's halt.
		cfg.RT.Go("star-script-wait", func() {
			e.haltCh.Recv()
			run.done <- ScriptResult{}
		})
	}
	return run
}

// runScript is the scripted run, a count-bounded policy on the
// coordinator's one phase loop: the same runPhase, fence and gather as
// the time-driven steady state, but two phases only, each ended by a
// generator-step count instead of a duration (see runPhase), then the
// post-fence checksums and a cluster-wide halt. It waits on the alive
// members, so dark slots cost nothing.
func (c *coordinator) runScript() {
	for _, ph := range []Phase{Partitioned, SingleMaster} {
		if c.e.halted.Load() {
			break
		}
		c.phase = ph
		c.runPhase(0) // no slice: the bound is the count
	}
	// Post-fence checksums: the replicas are quiesced and must agree.
	// Served through the unified admin envelope (Node -1 = yourself).
	sums := map[int]AdminResp{}
	view := c.view.Load()
	if !c.e.halted.Load() {
		c.broadcast(AdminReq{V: AdminProtoVersion, Op: AdminChecksums, From: c.id(), Node: -1})
		if !c.gather(scriptTimeout, func(m any) bool {
			// Node came off the wire: only an alive member's answer counts.
			if cs, isCS := m.(AdminResp); isCS && cs.Op == AdminChecksums && view.Up(cs.Node) {
				sums[cs.Node] = cs
			}
			return len(sums) == len(view.up)
		}) {
			c.halt(fmt.Sprintf("scripted checksum gather incomplete: no answer from nodes %v", missing(sums, view.up)))
		}
	}
	c.broadcast(msgHalt{})
	res := ScriptResult{Committed: c.iterCommitP + c.iterCommitS}
	if halted, reason := c.e.Halted(); halted {
		res, sums = ScriptResult{Err: reason}, nil
	}
	for _, i := range view.up {
		if cs, ok := sums[i]; ok {
			res.Checksums = append(res.Checksums, NodeChecksums{Node: i, Parts: cs.Parts, Sums: cs.Sums})
		}
	}
	c.script.done <- res
}

// abortScript halts a count-bounded run whose gather came up short and
// reports whether there was one to halt. A scripted epoch cannot be
// reverted and retried like a timed one — the generators have moved on,
// and the result is a pure function of the seed only if every step runs
// once — so the reason becomes ScriptResult.Err instead.
func (c *coordinator) abortScript(what string, missing []int) bool {
	if c.script == nil {
		return false
	}
	c.halt(fmt.Sprintf("scripted %s phase incomplete: no %s from nodes %v", c.phase, what, missing))
	return true
}

// ---- worker side ----

// scriptStamp derives the deterministic total-order stamp scripted
// requests carry in GenAt: unique across (step, node, worker) and
// identical across runtimes, so the master can sort its deferred queue
// into a reproducible execution order.
func scriptStamp(seq int64, node, worker int) int64 {
	return seq<<20 | int64(node)<<10 | int64(worker)
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
