package core

import (
	"slices"
	"time"

	"star/internal/replication"
	"star/internal/txn"
)

// msgReplBatch is the per-destination replication envelope: one worker's
// coalesced value/operation deltas for a single destination, flushed on
// a size boundary (DefaultFlushBytes / DefaultFlushEntries) or at the
// epoch fence, so a partitioned-phase epoch ships O(destinations) messages
// instead of O(writes). The fence accounting stays per entry: the
// sender's Tracker.AddSent counts len(Entries) when the envelope ships,
// and the receiver's AddApplied counts entries as they are applied, so
// the peers' msgEpochMark counts reconcile exactly however the entries
// were packed.
type msgReplBatch = replication.Batch

// Phase enumerates STAR's two execution phases.
type Phase uint8

const (
	// Partitioned: every node runs single-partition transactions on the
	// partitions it masters.
	Partitioned Phase = iota
	// SingleMaster: one full replica masters every record and runs the
	// deferred cross-partition transactions.
	SingleMaster
)

func (p Phase) String() string {
	if p == Partitioned {
		return "partitioned"
	}
	return "single-master"
}

// msgStartPhase begins a phase on every node (coordinator → nodes).
// Receiving it also commits the previous epoch: revert information is
// discarded and the group-committed transactions' results are released.
type msgStartPhase struct {
	Phase Phase
	Epoch uint64
	// Deadline is the phase budget, relative to the command's receipt
	// (the receiving node's router localises it against its own clock in
	// startPhase — processes do not share a clock origin, so an absolute
	// time would not survive the wire). A scripted phase's is too long
	// to reach: its count ends it.
	Deadline time.Duration
	// Failed is the view's failed set (empty normally), re-asserted by
	// every phase command: a node that lost a revert learns it here. A
	// node only adds what it names; a member leaves the failed set at an
	// install (msgTopology). Who masters what under it, the designated
	// master included, each node derives for itself (View).
	Failed []int
	// Lat is the coordinator's one-way latency estimate (see
	// coordinator.lat); workers size the fence-tail flush window from it.
	Lat time.Duration

	// Scripted-run fields (StartScripted, coordinator.runScript; zero otherwise).
	// ScriptTxns bounds the partitioned phase by generator steps per
	// owned partition instead of by Deadline; ScriptDeferred is the
	// exact number of deferred requests the master must drain in the
	// single-master phase.
	ScriptTxns     int
	ScriptDeferred int64
}

// InjectionEpoch lets a fault-injecting transport decorator key fault
// windows to cluster epochs (faultnet.EpochCarrier): the coordinator's
// phase commands announce the epoch on every process that sends them.
func (m msgStartPhase) InjectionEpoch() uint64 { return m.Epoch }

// msgPhaseDone reports a node's workers finished the phase, with the
// phase monitors feeding the τp/τs equations. What the fence waits for
// travels between the nodes themselves (msgEpochMark).
type msgPhaseDone struct {
	Node  int
	Epoch uint64
	// Monitors for equations (1)-(2): commits this phase, and the
	// single-/cross-partition generation counts estimating P.
	Committed int64
	GenSingle int64
	GenCross  int64
	// Queued is the node's master-queue backlog (deferred + forwarded
	// client requests) at the phase end. Client sessions submit out of
	// band of the generators, so they are invisible to the P estimate;
	// the coordinator uses the backlog to schedule a single-master drain
	// slice even when the generated workload alone tunes τs to zero.
	Queued int64
}

// InjectionEpoch mirrors msgStartPhase's: phase reports carry the epoch
// on node-hosting processes, which never send phase commands.
func (m msgPhaseDone) InjectionEpoch() uint64 { return m.Epoch }

// msgEpochMark is a node's end-of-epoch marker (node → every peer, on the
// replication class): Sent is the sender's cumulative entry count to
// the receiver at the moment its phase ended. It travels behind the
// sender's last envelope of the epoch on the replication link itself,
// so the receiver learns what to wait for — and starts draining — the
// moment each peer's phase ends, without a round through the
// coordinator. The router sends it after every local worker's final
// flush, which is what orders it behind their envelopes.
type msgEpochMark struct {
	From  int
	Epoch uint64
	Sent  int64
}

// msgFenceAck reports a completed fence drain (node → coordinator): the
// node's own phase ended, every peer's marker arrived, and everything
// the markers count has been applied.
type msgFenceAck struct {
	Node  int
	Epoch uint64
}

// msgDefer routes a cross-partition request to the master node's queue
// (§4.3: "the system would re-route the request to the master node").
// One request per message, deliberately: see the defer path in
// worker.runPartitioned for why batching these is harmful.
type msgDefer struct {
	Req *txn.Request
}

// msgReplAck acknowledges application of a synchronously replicated
// batch (SYNC STAR only).
type msgReplAck struct {
	Worker int
	Seq    uint64
}

// msgRevert orders a node to revert the in-flight epoch after a failure
// (coordinator → nodes) and adds the failures it names to the node's
// view; the re-mastering of §4.5.3 cases 1 and 3 is what each node's View
// derives from it.
type msgRevert struct {
	Epoch uint64
	// Failed lists all currently failed nodes.
	Failed []int
}

// msgSnapshotReq asks a healthy holder for a partition's records
// (recovering-node catch-up, §4.5.3 case 1).
type msgSnapshotReq struct {
	From int
	Part int
}

// msgSnapshot carries a partition back to a recovering node: every
// present record of every partitioned table, as value entries of one
// replication envelope — the form the log and the stream carry them in
// (recovering-node catch-up, §4.5.3 case 1).
type msgSnapshot struct {
	Part int
	Rows *replication.Batch
}

// msgHalt tells a node process the scripted run is over and it may exit
// (coordinator → nodes; multi-process clusters only).
type msgHalt struct{}

// ClientStatus is the outcome of a client-submitted request.
type ClientStatus uint8

const (
	// StatusOK: the request committed (writes: after its fence completed
	// cluster-wide) or the read was served.
	StatusOK ClientStatus = iota + 1
	// StatusBusy: shed by admission control (the session window, the
	// master's deferred queue, or the front door) — retry later.
	StatusBusy
	// StatusAborted: the procedure aborted for application reasons;
	// engines do not retry user aborts.
	StatusAborted
)

func (s ClientStatus) String() string {
	switch s {
	case StatusOK:
		return "ok"
	case StatusBusy:
		return "busy"
	case StatusAborted:
		return "aborted"
	}
	return "unknown"
}

// ClientReq is a client-submitted transaction request — the star-client
// front door's unit of work. The socket handler decodes it off a client
// connection; the session gate serves read-only requests from the local
// epoch-fence snapshot when the freshness token allows, and forwards
// everything else (re-encoded, with the gate's Origin/Ticket stamped
// into Req) to the current master's deferred queue.
type ClientReq struct {
	// Token is the client session's freshness token: the fence epoch its
	// last acknowledged write committed in (0 = no freshness demand). A
	// replica may serve the read from its snapshot only when its own
	// in-flight epoch has advanced PAST the token — i.e. the token's
	// fence has completed locally (SCAR-style session guarantee:
	// read-your-own-writes with bounded staleness).
	Token uint64
	Req   *txn.Request
}

// ClientResp answers one ClientReq (master → origin gate → client).
type ClientResp struct {
	// Ticket echoes the request's correlation id.
	Ticket uint64
	Status ClientStatus
	// Token is the freshness token the operation established: the commit
	// epoch for writes (released only after that fence completed
	// cluster-wide), the observed fence epoch for snapshot-served reads.
	// Sessions keep the running maximum.
	Token uint64
	// Reads counts the record reads the procedure performed — a cheap
	// execution fingerprint for clients and tests. Zero for writes.
	Reads int64
}

// accepts is the one check a cluster frame passes, where it enters: a
// node's router (to is the node) or the coordinator's intake (to is its
// endpoint). A frame naming a node, partition, table, worker or column
// the cluster lacks, an entry its schema does not fit, an envelope for a
// partition to does not hold, or a type to does not serve is dropped
// whole and counted in frames_refused. State is the handler's to judge.
func (e *Engine) accepts(to int, m any) bool {
	cfg, coord := &e.cfg, to == e.cfg.coordID()
	isNode := func(id int) bool { return id >= 0 && id < cfg.Nodes }
	isPart := func(p int) bool { return p >= 0 && p < cfg.NumPartitions() }
	fit := func(ents []replication.Entry, held bool) bool {
		return !slices.ContainsFunc(ents, func(en replication.Entry) bool { return !en.Fits(e.nodes[to].db, held) })
	}
	ok := false
	switch m := m.(type) {
	case msgPhaseDone:
		ok = coord && isNode(m.Node)
	case msgFenceAck:
		ok = coord && isNode(m.Node)
	case msgRecoveryDone:
		ok = coord && isNode(m.Node)
	case AdminReq:
		ok = isNode(m.From) || m.From == cfg.coordID()
	case AdminResp: // a scripted run's checksums come back to the coordinator
		ok = true
	case *msgReplBatch: // every sender stamps its epoch; 0 is only the wildcard revert's
		ok = !coord && isNode(m.From) && m.Epoch != 0 && fit(m.Entries, true)
	case syncBatch:
		ok = !coord && isNode(m.Batch.From) && m.Batch.Epoch != 0 && isNode(m.ReplyTo) && fit(m.Batch.Entries, true)
	case *msgSnapshot: // applySnapshot skips a partition it does not hold
		ok = !coord && isPart(m.Part) && fit(m.Rows.Entries, false)
	case msgSnapshotReq:
		ok = !coord && isNode(m.From) && isPart(m.Part)
	case msgStartRecovery: // one donor per partition
		ok = !coord && len(m.From) == len(m.Parts)
		for i := 0; ok && i < len(m.Parts); i++ {
			ok = isPart(int(m.Parts[i])) && isNode(int(m.From[i]))
		}
	case msgTopology: // slots the cluster has, a member set with a layout, a full replica up
		if ok = !coord && !slices.ContainsFunc(m.Members, func(id int32) bool { return !isNode(int(id)) }); ok {
			t := topologyFromMsg(m, *cfg)
			ok = t.Validate() == nil && newView(t, m.Failed).master >= 0
		}
	case msgEpochMark:
		ok = !coord && isNode(m.From)
	case msgReplAck:
		ok = !coord && m.Worker >= 0 && m.Worker < cfg.WorkersPerNode
	case msgDefer:
		ok = !coord && !slices.ContainsFunc(m.Req.Parts, func(p int) bool { return !isPart(p) })
	case ClientReq:
		ok = !coord && isNode(m.Req.Origin) && !slices.ContainsFunc(m.Req.Parts, func(p int) bool { return !isPart(p) })
	case msgStartPhase, msgRevert, ClientResp, msgHalt, fenceWake, workerDoneMsg:
		ok = !coord
	}
	if !ok {
		e.refused.Inc()
	}
	return ok
}
