package baseline

import (
	"star/internal/core"
	"star/internal/lock"
	"star/internal/metrics"
	"star/internal/occ"
	"star/internal/replication"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/workload"
)

// Protocol selects the distributed concurrency control algorithm.
type Protocol uint8

const (
	// DistOCC: reads without locks, commit-time write locking and read
	// validation (NO_WAIT), as in §7.1.2.
	DistOCC Protocol = iota
	// DistS2PL: strict two-phase locking with NO_WAIT during execution.
	DistS2PL
)

func (p Protocol) String() string {
	if p == DistOCC {
		return "Dist. OCC"
	}
	return "Dist. S2PL"
}

// Dist is a partitioning-based distributed engine: every node masters a
// block of partitions and backs up another node's block; transactions
// coordinate across nodes with RPCs, committing via 2PC under
// synchronous replication or via epoch group commit under asynchronous
// replication (§6.2, §7.1.3).
type Dist struct {
	cfg    Config
	proto  Protocol
	net    transport.Transport
	nodes  []*bnode
	locks  []*lock.NoWait // per node (used by S2PL)
	ports  [][]*rpcPort
	ticker *epochTicker
	tids   []occ.TIDGen // per worker
	st     stats
}

// NewDist builds and starts a distributed cluster.
func NewDist(cfg Config, proto Protocol) *Dist {
	cfg = cfg.withDefaults()
	e := &Dist{cfg: cfg, proto: proto, st: stats{latency: &metrics.Hist{}}}
	storage.InstallSpinWait(cfg.RT)
	e.net = simnet.New(cfg.RT, cfg.Net)
	for i, db := range cfg.buildDBs(cfg.holds) {
		e.nodes = append(e.nodes, &bnode{id: i, db: db, tracker: replication.NewTracker(cfg.Nodes), net: e.net})
		e.locks = append(e.locks, lock.NewNoWait())
	}
	e.ticker = newEpochTicker(cfg, e.net, e.nodes, e.st.latency)
	e.tids = make([]occ.TIDGen, cfg.Nodes*cfg.WorkersPerNode)
	e.start()
	return e
}

// Stats snapshots the run.
func (e *Dist) Stats() metrics.Stats {
	name := e.proto.String()
	if e.cfg.SyncRepl {
		name += " (sync)"
	}
	return e.st.snapshot(name, e.cfg.RT, e.net)
}

// Freeze pauses workload generation so replication can settle (tests).
func (e *Dist) Freeze() { e.st.frozen.Store(true) }

// NodeDB exposes a node's database for consistency checks.
func (e *Dist) NodeDB(i int) *storage.DB { return e.nodes[i].db }

// Config returns the effective configuration.
func (e *Dist) Config() Config { return e.cfg }

// ---- wire payloads ----

type readPayload struct {
	Table storage.TableID
	Part  int
	Key   storage.Key
	Write bool // S2PL: lock mode
	Owner int  // S2PL: lock owner
}

type readReply struct {
	Row []byte
	TID uint64
	// Absent distinguishes "the row does not exist" (a successful read
	// the procedure can skip over — trimmed orders, delivered NEW-ORDER
	// rows) from a failed call (lock conflict / latched record), which
	// aborts the transaction.
	Absent bool
}

type lvPayload struct { // Dist. OCC lock+validate
	Reads  []txn.ReadEntry
	Writes []lock.Name
	Parts  []int32
}

type lvReply struct {
	MaxWriteTID uint64
}

type commitPayload struct {
	TID     uint64
	Entries []replication.Entry // ops or rows to install
	Owner   int                 // S2PL lock owner to release
	Release []lock.Name         // S2PL locks to release
	Sync    bool                // replicate to backup synchronously
}

type abortPayload struct {
	Writes  []lock.Name // OCC: record latches to drop
	Owner   int         // S2PL owner
	Release []lock.Name // S2PL locks
	Parts   []int32
}

// idxPayload asks a partition's master to resolve a secondary-index
// lookup; idxReply carries the matching primary keys, ascending.
type idxPayload struct {
	Table storage.TableID
	Part  int
	Index int
	Val   []byte
}

type idxReply struct {
	Keys []storage.Key
}

// pendingSync tracks a participant-side commit waiting for its backup's
// ack before releasing locks (2PC + synchronous replication).
type pendingSync struct {
	from   int
	worker int
	seq    uint64
	recs   []*storage.Record
	owner  int
	names  []lock.Name
}

func (e *Dist) start() {
	r := e.cfg.RT
	e.ports = make([][]*rpcPort, e.cfg.Nodes)
	for i := range e.ports {
		e.ports[i] = make([]*rpcPort, e.cfg.WorkersPerNode)
		for w := range e.ports[i] {
			e.ports[i][w] = newRPCPort(r)
		}
	}
	for i := 0; i < e.cfg.Nodes; i++ {
		i := i
		n := e.nodes[i]
		pending := map[uint64]*pendingSync{}
		var syncSeq uint64
		var handler func(m any)
		handler = func(m any) {
			switch msg := m.(type) {
			case *replication.Batch:
				r.Compute(core.CostMsgHandling)
				applyBatch(e.cfg, n, msg)
			case *rpcResp:
				if msg.Worker >= 0 {
					e.ports[i][msg.Worker].resp.Send(msg)
					return
				}
				// Backup ack for a pending synchronous commit.
				p := pending[msg.Seq]
				if p == nil {
					return
				}
				delete(pending, msg.Seq)
				for _, rec := range p.recs {
					rec.Unlock()
				}
				for _, nm := range p.names {
					e.locks[i].Unlock(nm, p.owner)
				}
				e.net.Send(i, p.from, transport.Data, &rpcResp{Worker: p.worker, Seq: p.seq, OK: true})
			case *rpcReq:
				r.Compute(core.CostMsgHandling)
				e.serve(i, msg, pending, &syncSeq)
			case msgTick:
				e.net.Send(i, e.cfg.tickerID(), transport.Control, msgTickDone{
					Node: i, Epoch: msg.Epoch, Sent: n.tracker.SentVector(),
				})
			case msgTickDrain:
				drainNode(e.cfg, n, e.net.Inbox(i), msg, e.st.latency)
			}
		}
		n.onDrainMsg = handler
		r.Go(procName("dist-router", i, 0), func() {
			in := e.net.Inbox(i)
			for {
				handler(in.Recv())
			}
		})
		for wi := 0; wi < e.cfg.WorkersPerNode; wi++ {
			wi := wi
			r.Go(procName("dist-worker", i, wi), func() { e.workerLoop(i, wi) })
		}
	}
	if !e.cfg.SyncRepl {
		r.Go("dist-ticker", e.ticker.loop)
	}
}

// serve handles one participant-side RPC on node i. The router must
// never block on another node, so synchronous commits park in `pending`
// until the backup's ack arrives.
func (e *Dist) serve(i int, m *rpcReq, pending map[uint64]*pendingSync, syncSeq *uint64) {
	n := e.nodes[i]
	reply := func(ok bool, payload []byte) {
		e.net.Send(i, m.From, transport.Data, &rpcResp{Worker: m.Worker, Seq: m.Seq, OK: ok, Payload: payload})
	}
	switch m.Kind {
	case rpcRead:
		rep, ok := e.doRead(i, mustDecode(wire.Unmarshal(m.Payload, readPayloadFields)))
		if !ok {
			reply(false, nil)
			return
		}
		reply(true, wire.Marshal(rep, readReplyFields))

	case rpcLockRead:
		rep, ok := e.doLockRead(i, mustDecode(wire.Unmarshal(m.Payload, readPayloadFields)))
		if !ok {
			reply(false, nil)
			return
		}
		reply(true, wire.Marshal(rep, readReplyFields))

	case rpcLockValidate:
		rep, ok := e.doLockValidate(i, mustDecode(wire.Unmarshal(m.Payload, lvPayloadFields)))
		if !ok {
			reply(false, nil)
			return
		}
		reply(true, wire.Marshal(rep, lvReplyFields))

	case rpcPrepare: // 2PC prepare (S2PL: locks already held → yes vote)
		reply(true, nil)

	case rpcCommitWrites:
		if m.Worker == -1 {
			// We are the BACKUP applying a synchronously replicated batch.
			p := mustDecode(wire.Unmarshal(m.Payload, commitPayloadFields))
			applyBatch(e.cfg, n, &replication.Batch{From: m.From, Entries: p.Entries})
			e.net.Send(i, m.From, transport.Data, &rpcResp{Worker: -1, Seq: m.Seq, OK: true})
			return
		}
		p := mustDecode(wire.Unmarshal(m.Payload, commitPayloadFields))
		if !p.Sync || len(p.Entries) == 0 {
			e.doCommitAsync(i, p)
			reply(true, nil)
			return
		}
		// Synchronous: apply, forward rows to the backup, and defer the
		// reply (and S2PL lock release) until the backup acks.
		backup := e.cfg.BackupOf(int(p.Entries[0].Part))
		ents := e.landAll(i, p)
		if backup == i {
			for _, nm := range p.Release {
				e.locks[i].Unlock(nm, p.Owner)
			}
			reply(true, nil)
			return
		}
		*syncSeq++
		token := *syncSeq
		pending[token] = &pendingSync{from: m.From, worker: m.Worker, seq: m.Seq, owner: p.Owner, names: p.Release}
		n.tracker.AddSent(backup, int64(len(ents)))
		e.net.Send(i, backup, transport.Replication, &rpcReq{
			Kind: rpcCommitWrites, From: i, Worker: -1, Seq: token,
			Payload: wire.Marshal(&commitPayload{TID: p.TID, Entries: ents}, commitPayloadFields),
		})

	case rpcAbort:
		e.doAbort(i, mustDecode(wire.Unmarshal(m.Payload, abortPayloadFields)))
		reply(true, nil)

	case rpcIndexLookup:
		p := mustDecode(wire.Unmarshal(m.Payload, idxPayloadFields))
		keys := n.db.Table(p.Table).IndexLookup(p.Part, p.Index, p.Val, storage.IndexAllEpochs, nil)
		reply(true, wire.Marshal(&idxReply{Keys: keys}, idxReplyFields))
	}
}

func recIn(list []*storage.Record, r *storage.Record) bool {
	for _, x := range list {
		if x == r {
			return true
		}
	}
	return false
}

func (e *Dist) workerLoop(node, wi int) {
	r := e.cfg.RT
	gen := e.cfg.Workload.NewGen(workload.WorkerSeed(e.cfg.Seed, node, wi))
	home := node*e.cfg.WorkersPerNode + wi
	for {
		if e.st.pause(r) {
			continue
		}
		req := txn.NewRequest(gen.Mixed(home), int64(r.Now()))
		if e.proto == DistOCC {
			e.runOCC(node, wi, req)
		} else {
			e.runS2PL(node, wi, req)
		}
	}
}
