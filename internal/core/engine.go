package core

import (
	"fmt"
	"maps"
	"slices"
	"sync/atomic"

	"star/internal/metrics"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/wal"
	"star/internal/workload"
)

// Engine is one STAR cluster: f full replicas, k partial replicas, a
// phase-switch coordinator, and the network between them.
type Engine struct {
	cfg   Config
	net   transport.Transport
	nodes []*node
	coord *coordinator

	committed    metrics.Counter
	aborted      metrics.Counter // concurrency-conflict retries
	userAborts   metrics.Counter
	deferred     metrics.Counter
	rejected     metrics.Counter // deferred requests dropped by admission control
	snapReads    metrics.Counter // read-only txns served from the local fence snapshot
	snapFallback metrics.Counter // read-only txns deferred anyway (partitions not held)
	latency      *metrics.Hist
	logBytes     atomic.Int64

	// reg is the live observability plane: every counter above plus the
	// metrics below register into it by name, AdminStats serves its
	// snapshot from any node, and star-node -http renders it at /metrics.
	// Hot paths keep their direct pointers/fields; the registry is only
	// walked at snapshot time.
	reg *metrics.Registry
	// partCommits counts committed transactions per partition (indexed by
	// partition id, incremented by the local workers' commit paths) — the
	// live skew signal the rebalance roadmap item consumes.
	partCommits []metrics.Gauge
	shedClient  metrics.Counter // front-door admission sheds (StatusBusy)
	refused     metrics.Counter // cluster frames the entry check dropped (accepts)
	checkpoints metrics.Counter // fuzzy checkpoints written
	// Replication by entry kind, folded from the workers' shards at each
	// fence (see replStats), and operation entries replicas refused.
	replOps, replValues, replRefused metrics.Counter
	replEntryBytes, replEquivBytes   metrics.Counter
	// Coordinator-fed metrics (zero on processes not hosting it).
	epochsC      metrics.Counter // committed epochs
	phasePart    metrics.Counter // partitioned phases run
	phaseSingle  metrics.Counter // single-master phases run
	commitPart   metrics.Counter // txns committed in partitioned phases
	commitSingle metrics.Counter // txns committed in single-master phases
	overrunHist  *metrics.Hist   // phase wall time past its slice, per committed epoch
	fenceHist    *metrics.Hist   // fence duration per committed epoch
	drainHist    *metrics.Hist   // router wall time spent in fence drains

	halted     atomic.Bool
	haltReason atomic.Value // string
	frozen     atomic.Bool

	// drainedCh reports node ids this process hosts that left the
	// member set (AdminDrain): star-node -serve exits cleanly on it.
	drainedCh chan int

	// haltCh delivers a scripted run's cluster-wide halt to node-only
	// processes.
	haltCh rt.Chan
}

// New builds a STAR cluster: databases are created and loaded, processes
// are spawned, and the phase coordinator starts immediately.
func New(cfg Config) *Engine {
	e := build(cfg)
	e.start()
	return e
}

// build constructs the cluster without spawning any process; New starts
// it, and the hot-path benchmarks drive workers synchronously instead.
func build(cfg Config) *Engine {
	cfg = cfg.withDefaults()
	if cfg.Nodes < 2 {
		panic("core: need at least 2 nodes (one full replica, one partial)")
	}
	e := &Engine{cfg: cfg, latency: &metrics.Hist{}}
	e.buildRegistry()
	e.haltCh = cfg.RT.NewChan(1)
	e.drainedCh = make(chan int, cfg.Nodes)
	storage.InstallSpinWait(cfg.RT)
	if e.net = cfg.Transport; e.net == nil {
		e.net = simnet.New(cfg.RT, simnet.DefaultConfig(cfg.Nodes+1, cfg.Seed)) // +1: the coordinator's endpoint
	}

	hostsAll := cfg.LocalNodes == nil
	// The boot view, shared until the first change: a View is immutable,
	// and from then on each holder installs what reaches it by message.
	topo := cfg.Topology()
	if err := topo.Validate(); err != nil {
		panic("core: " + err.Error())
	}
	view := newView(topo, nil)
	// Residency comes from the boot topology: full members hold
	// everything, partial members their master/secondary stripes, and
	// dark slots (capacity provisioned for a later join) nothing. A remote
	// node (another process's, reached through the transport) gets none.
	holds := make([][]bool, cfg.Nodes)
	for i := range holds {
		if hostsAll || slices.Contains(cfg.LocalNodes, i) {
			holds[i] = view.HoldsMask(i)
		}
	}
	for i, db := range workload.BuildDBs(cfg.Workload, cfg.NumPartitions(), holds) {
		if db == nil {
			e.nodes = append(e.nodes, nil)
			continue
		}
		n := &node{
			e:       e,
			id:      i,
			db:      db,
			tracker: replication.NewTracker(cfg.Nodes),
			marks:   make([]epochMark, cfg.Nodes),
		}
		n.view.Store(view)
		n.replLag = e.reg.Gauge(fmt.Sprintf(`repl_lag{node="%d"}`, i))
		n.masterQ = cfg.RT.NewChan(1 << 16)
		n.workers = make([]*worker, cfg.WorkersPerNode)
		for wi := range n.workers {
			n.workers[wi] = newWorker(n, wi)
		}
		n.gate = newClientGate(n)
		e.nodes = append(e.nodes, n)
	}
	if hostsAll || cfg.LocalCoordinator {
		e.coord = newCoordinator(e, view)
	}
	if cfg.LogDir != "" {
		e.openLogs()
	}
	return e
}

// buildRegistry publishes the engine's metric fields into the named
// registry. Hot paths keep incrementing their direct fields — the
// registry is only walked at snapshot time (AdminStats, /metrics), so
// registration costs the steady state nothing.
func (e *Engine) buildRegistry() {
	r := metrics.NewRegistry()
	e.reg = r
	r.RegisterCounter("committed", &e.committed)
	r.RegisterCounter("aborted", &e.aborted)
	r.RegisterCounter("user_aborts", &e.userAborts)
	r.RegisterCounter("deferred", &e.deferred)
	r.RegisterCounter("rejected", &e.rejected)
	r.RegisterCounter("snapshot_reads", &e.snapReads)
	r.RegisterCounter("snapshot_fallbacks", &e.snapFallback)
	r.RegisterCounter("shed_frontdoor", &e.shedClient)
	r.RegisterCounter("frames_refused", &e.refused)
	r.RegisterCounter("checkpoints", &e.checkpoints)
	r.RegisterCounter("repl_op_entries", &e.replOps)
	r.RegisterCounter("repl_value_entries", &e.replValues)
	r.RegisterCounter("repl_ops_refused", &e.replRefused)
	r.RegisterCounter("repl_entry_bytes", &e.replEntryBytes)
	r.RegisterCounter("repl_value_equiv_bytes", &e.replEquivBytes)
	r.RegisterCounter("epochs", &e.epochsC)
	r.RegisterCounter("phases_partitioned", &e.phasePart)
	r.RegisterCounter("phases_single_master", &e.phaseSingle)
	r.RegisterCounter("committed_partitioned", &e.commitPart)
	r.RegisterCounter("committed_single_master", &e.commitSingle)
	r.RegisterHist("latency", e.latency)
	e.overrunHist = r.Hist("phase_overrun")
	e.fenceHist = r.Hist("fence")
	e.drainHist = r.Hist("drain_stall")
	e.partCommits = make([]metrics.Gauge, e.cfg.NumPartitions())
	for p := range e.partCommits {
		r.RegisterGauge(fmt.Sprintf(`partition_commits{partition="%d"}`, p), &e.partCommits[p])
	}
}

// faultInjector is implemented by fault-injecting transport decorators
// (internal/faultnet.Network): StatsSnapshot, serveAdmin's
// AdminFaultStats and the trace's noteEpoch surface its counters without
// core importing the injector package.
type faultInjector interface{ Injected() map[string]int64 }

// linkCounter is implemented by transports that drop frames (tcpnet).
type linkCounter interface {
	DecodeErrors() int64
	ShedFrames() int64
}

// StatsSnapshot captures the live metric registry, folding in process
// quantities tracked outside it: log bytes, the transport's byte and
// message accounting, the frames it dropped when it counts them
// (net_decode_errors: did not decode, closing the link they came on, or
// were misrouted; net_shed_frames: shed by a dead link's byte cap), and
// — when the transport injects faults (star-node -faults, chaos soaks) —
// the cumulative injection counters under the names the injector gives
// them (fault_drops, ...). Log bytes come twice: log_bytes is what the
// cost model charged (chargeLog: len(row)+32 per logged write, on every
// runtime), wal_file_bytes what the recovery logs wrote: their envelope
// frames, to the byte (LogDir mode). This is what AdminStats serves and
// what the -http /metrics endpoint renders.
func (e *Engine) StatsSnapshot() metrics.Snapshot {
	e.reg.Gauge("log_bytes").Set(e.logBytes.Load())
	var written int64
	for _, n := range e.nodes {
		if n != nil && n.dir != nil {
			written += n.dir.Bytes()
		}
	}
	e.reg.Gauge("wal_file_bytes").Set(written)
	e.reg.Gauge("net_bytes").Set(e.net.TotalBytes())
	e.reg.Gauge("repl_bytes").Set(e.net.Bytes(transport.Replication))
	e.reg.Gauge("repl_msgs").Set(e.net.Messages(transport.Replication))
	if lc, ok := e.net.(linkCounter); ok {
		e.reg.Gauge("net_decode_errors").Set(lc.DecodeErrors())
		e.reg.Gauge("net_shed_frames").Set(lc.ShedFrames())
	}
	snap := e.reg.Snapshot()
	if fi, ok := e.net.(faultInjector); ok {
		maps.Copy(snap.Counters, fi.Injected()) // the registry always has counters
	}
	return snap
}

// openLogs creates the per-thread recovery logs (§4.5.1), one per
// role in the node's share of the log directory.
func (e *Engine) openLogs() {
	for _, n := range e.nodes {
		if n == nil {
			continue
		}
		n.dir = wal.NewDir(e.cfg.LogDir, n.id)
		mustCreate := func(role string) *wal.Logger {
			l, err := n.dir.Create(role)
			if err != nil {
				panic("core: open log: " + err.Error())
			}
			return l
		}
		n.routerLog = mustCreate("router")
		for a := 0; a < e.cfg.WorkersPerNode; a++ {
			n.applierLogs = append(n.applierLogs, mustCreate(fmt.Sprintf("applier%d", a)))
		}
		for _, w := range n.workers {
			w.logger = mustCreate(fmt.Sprintf("worker%d", w.idx))
		}
	}
}

// LogFiles returns node's live recovery-log segments in LogDir mode, as
// the directory lists them (wal.Dir.Live): segments a checkpoint covers
// are gone. A full replica's set covers the whole database.
func (e *Engine) LogFiles(node int) []string {
	if e.cfg.LogDir == "" {
		return nil
	}
	_, segs, _ := wal.NewDir(e.cfg.LogDir, node).Live()
	return segs
}

// CloseLogs flushes and closes the recovery logs (call after the runtime
// has stopped).
func (e *Engine) CloseLogs() error {
	var first error
	for _, n := range e.nodes {
		if n == nil || n.dir == nil {
			continue
		}
		if err := n.dir.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

func (e *Engine) start() {
	for _, n := range e.nodes {
		if n == nil {
			continue
		}
		n := n
		// Parallel replication replay, one applier per worker thread
		// (SiloR-style parallel value replay, §8 Recoverable Systems).
		// Their queues exist before the router runs: a peer that started
		// first may already have an envelope waiting for applyBatch.
		for a := 0; a < e.cfg.WorkersPerNode; a++ {
			n.appliers = append(n.appliers, e.cfg.RT.NewChan(1<<14))
		}
		e.cfg.RT.Go(fmt.Sprintf("star-node-%d", n.id), n.routerLoop)
		for a, ch := range n.appliers {
			e.cfg.RT.Go(fmt.Sprintf("star-applier-%d-%d", n.id, a), func() { n.applierLoop(a, ch) })
		}
		for _, w := range n.workers {
			w := w
			e.cfg.RT.Go(fmt.Sprintf("star-worker-%d-%d", n.id, w.idx), w.loop)
		}
	}
	if e.coord != nil {
		e.cfg.RT.Go("star-coordinator", e.coord.loop)
	}
	if e.cfg.Checkpoint && e.cfg.LogDir != "" {
		for _, n := range e.nodes {
			if n == nil {
				continue
			}
			n := n
			e.cfg.RT.Go(fmt.Sprintf("star-ckpt-%d", n.id), func() { e.checkpointLoop(n) })
		}
	}
}

// checkpointEvery is the checkpoint cadence, in iterations.
const checkpointEvery = 10

// checkpointLoop writes a fuzzy checkpoint of the node's database every
// checkpointEvery iterations (§4.5.1: "a checkpoint does not need to be
// a consistent snapshot ... on recovery, STAR uses the logs since the
// checkpoint to correct the inconsistent snapshot with the Thomas write
// rule"); each round also truncates the log behind it (wal.Dir).
func (e *Engine) checkpointLoop(n *node) {
	for round := 0; ; round++ {
		e.cfg.RT.Sleep(checkpointEvery * e.cfg.Iteration)
		if err := n.dir.Checkpoint(n.db, round, n.epoch.Load()); err != nil {
			panic("core: checkpoint: " + err.Error())
		}
		e.checkpoints.Inc()
	}
}

// Net exposes the cluster network (tests and benches read its byte
// accounting; failure tests flip link state through the engine methods).
func (e *Engine) Net() transport.Transport { return e.net }

// Node returns node i's database (tests check replica consistency).
func (e *Engine) Node(i int) *node { return e.nodes[i] }

// Gate returns node i's client-session gate (the star-client front
// door's in-process half); nil for nodes this process does not host.
func (e *Engine) Gate(i int) *ClientGate {
	if n := e.nodes[i]; n != nil {
		return n.gate
	}
	return nil
}

// DB returns node i's database copy (read-only inspection).
func (e *Engine) DB(i int) *storage.DB { return e.nodes[i].db }

// Halted reports whether the cluster stopped processing (case 4: no
// complete replica remains).
func (e *Engine) Halted() (bool, string) {
	r, _ := e.haltReason.Load().(string)
	return e.halted.Load(), r
}

// FailNode simulates a fail-stop crash of a node: its traffic is dropped
// and the coordinator will detect it at the next replication fence.
func (e *Engine) FailNode(id int) { e.net.SetDown(id, true) }

// FailedNodes returns the coordinator's current view of evicted nodes
// (nil when this process does not host the coordinator). Chaos/soak
// harnesses poll it after healing injected faults to schedule rejoins;
// read it between run slices on the simulated runtime.
func (e *Engine) FailedNodes() []int {
	if e.coord == nil {
		return nil
	}
	return e.coord.view.Load().failed
}

// Stats snapshots the run so far: the registry's view, with what the
// coordinator publishes there read as the run's figures — the fence's
// share of the run (the fence histogram's sum) and the tuned slices. In a
// process that does not host the coordinator they read zero.
func (e *Engine) Stats() metrics.Stats {
	now := e.cfg.RT.Now()
	snap := e.StatsSnapshot()
	st := snap.Stats(e.name(), now)
	if now > 0 {
		st.Extra["fence_share"] = float64(snap.Hists["fence"].Sum) / float64(now)
	}
	st.Extra["tau_p_ms"] = float64(snap.Gauges["tau_p_us"]) / 1000
	st.Extra["tau_s_ms"] = float64(snap.Gauges["tau_s_us"]) / 1000
	return st
}

func (e *Engine) name() string {
	if e.cfg.SyncRepl {
		return "SYNC STAR"
	}
	return "STAR"
}

// Freeze pauses workload generation (phase switching continues), letting
// in-flight replication settle; tests use it to compare replicas at a
// quiesced boundary. Unfreeze resumes.
func (e *Engine) Freeze() { e.frozen.Store(true) }

// Unfreeze resumes workload generation after Freeze.
func (e *Engine) Unfreeze() { e.frozen.Store(false) }

// Topology returns the installed cluster layout as this process knows
// it: the coordinator's where it is hosted, else a local node's.
func (e *Engine) Topology() *Topology {
	if e.coord != nil {
		return e.coord.view.Load().Topology
	}
	for _, n := range e.nodes {
		if n != nil {
			return n.view.Load().Topology
		}
	}
	return nil
}

// Drained delivers node ids hosted by this process that left the
// member set via AdminDrain; star-node -serve exits cleanly on it.
func (e *Engine) Drained() <-chan int { return e.drainedCh }

// noteDrained reports a locally hosted node's exit from the member set.
// Non-blocking: the channel is sized for every hostable node, and a
// repeat drain of the same id (rejoin then drain again) may be dropped
// if nobody consumed the first signal — the consumer exits on one.
func (e *Engine) noteDrained(id int) {
	select {
	case e.drainedCh <- id:
	default:
	}
}

// RequestJoin asks the coordinator to admit node id at the next
// committed fence: a dark or drained slot joins the layout, a failed
// member rejoins it (a crash rejoin is a join). Like every membership
// request it is an AdminReq in the coordinator's inbox, so any process of
// the cluster may ask; nobody waits for the answer (Topology shows it).
func (e *Engine) RequestJoin(id int) { e.requestAdmin(AdminJoin, id) }

// RequestDrain asks for node id's removal from the member set at the
// next fence (its partitions migrate to the remaining members first).
func (e *Engine) RequestDrain(id int) { e.requestAdmin(AdminDrain, id) }

// requestAdmin sends a fire-and-forget membership request (Ticket 0) to
// the coordinator from this process's own endpoint: the coordinator's
// where it is hosted here, else the first local node's.
func (e *Engine) requestAdmin(op AdminOp, node int) {
	from := e.cfg.coordID()
	if e.coord == nil {
		for _, n := range e.nodes {
			if n != nil {
				from = n.id
				break
			}
		}
	}
	e.net.Send(from, e.cfg.coordID(), transport.Control, AdminReq{V: AdminProtoVersion, Op: op, From: from, Node: node})
}

// CheckReplicaConsistency verifies that every live holder of every
// partition agrees on its checksum. Meaningful only after Freeze has
// settled (a couple of iterations). Failed nodes are skipped.
func (e *Engine) CheckReplicaConsistency() error {
	topo := e.Topology()
	for p := 0; p < e.cfg.NumPartitions(); p++ {
		base := uint64(0)
		baseNode := -1
		for _, h := range topo.HoldersOf(p) {
			if e.nodes[h] == nil || e.net.IsDown(h) {
				continue
			}
			sum := e.nodes[h].db.PartitionChecksum(p)
			if baseNode == -1 {
				base, baseNode = sum, h
				continue
			}
			if sum != base {
				return fmt.Errorf("partition %d: node %d checksum %x != node %d checksum %x",
					p, h, sum, baseNode, base)
			}
		}
	}
	return nil
}
