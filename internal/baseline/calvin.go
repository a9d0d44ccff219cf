package baseline

import (
	"maps"
	"slices"
	"sync"
	"time"

	"star/internal/core"
	"star/internal/lock"
	"star/internal/metrics"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/workload"
)

// Calvin is the deterministic baseline (§7.3): a sequencer batches
// transaction inputs and replicates them to every node; per-node lock
// manager threads (Calvin-x uses x of them, leaving workers-x execution
// threads) grant locks in the global batch order; participants of a
// cross-partition transaction push their local reads to each other, so
// no commit protocol is needed.
type Calvin struct {
	cfg   Config
	net   transport.Transport
	nodes []*bnode
	st    stats

	batch int
}

// calvinTxn is one node's execution state for a batch transaction.
type calvinTxn struct {
	id     uint64
	req    *txn.Request
	det    *lock.DetTxn
	local  []txn.Access // accesses on partitions this node masters
	remote map[remoteKey][]byte
	// remoteIdx holds pushed secondary-index resolutions for partitions
	// other nodes master (the matched rows arrive in remote alongside).
	remoteIdx map[idxRef][]storage.Key
	// needed counts participant pushes still outstanding.
	needed  int
	pushed  bool
	counts  bool // this node reports commit/abort (lowest participant)
	genAt   int64
	batchNo uint64
	seq     uint64
}

type remoteKey struct {
	Table storage.TableID
	Part  int
	Key   storage.Key
}

// idxRef names one secondary-index lookup in a push.
type idxRef struct {
	Table storage.TableID
	Part  int
	Index int
	Val   string
}

// idxPush is one resolved lookup shipped with a participant's reads.
type idxPush struct {
	Ref  idxRef
	Keys []storage.Key
}

// ---- wire messages ----

type msgBatch struct {
	No   uint64
	Txns []*txn.Request
}

func (m msgBatch) Size() int {
	n := 24
	for _, r := range m.Txns {
		n += 48 + 16*len(r.Parts) // transaction input parameters
	}
	return n
}

type msgPush struct {
	TxnID uint64
	From  int
	Keys  []remoteKey
	Rows  [][]byte
	// Idx carries resolved secondary-index lookups for the pusher's
	// partitions (by-name accesses declared with Access.IndexVal); the
	// matched records' rows travel in Keys/Rows like ordinary reads.
	Idx []idxPush
}

func (m msgPush) Size() int {
	n := 24
	for _, r := range m.Rows {
		n += 28 + len(r)
	}
	for _, ip := range m.Idx {
		n += 24 + len(ip.Ref.Val) + 16*len(ip.Keys)
	}
	return n
}

type msgBatchDone struct {
	Node int
	No   uint64
}

func (msgBatchDone) Size() int { return 16 }

type lmAcquire struct {
	det   *lock.DetTxn
	names []lock.Name
	write []bool
}

type lmRelease struct {
	det   *lock.DetTxn
	names []lock.Name
}

// batchPerWorker sizes the sequencer's batch: each node contributes
// batchPerWorker transactions per worker to every batch.
const batchPerWorker = 300

// NewCalvin builds and starts the deterministic cluster. LockManagers 0
// runs Calvin-4 on nodes of more than four workers and Calvin-2 on
// smaller ones; any x is held to [1, WorkersPerNode-1], so one execution
// thread is always left.
func NewCalvin(cfg Config) *Calvin {
	cfg = cfg.withDefaults()
	if cfg.LockManagers == 0 {
		cfg.LockManagers = 2
		if cfg.WorkersPerNode > 4 {
			cfg.LockManagers = 4
		}
	}
	cfg.LockManagers = max(min(cfg.LockManagers, cfg.WorkersPerNode-1), 1)
	e := &Calvin{cfg: cfg, st: stats{latency: &metrics.Hist{}}}
	storage.InstallSpinWait(cfg.RT)
	e.net = simnet.New(cfg.RT, cfg.Net)
	// One replica group: each node holds only its mastered block.
	for i, db := range cfg.buildDBs(func(i, p int) bool { return cfg.MasterOf(p) == i }) {
		e.nodes = append(e.nodes, &bnode{id: i, db: db, tracker: replication.NewTracker(cfg.Nodes), net: e.net})
	}
	e.start()
	return e
}

// Stats snapshots the run.
func (e *Calvin) Stats() metrics.Stats {
	st := e.st.snapshot(e.Name(), e.cfg.RT, e.net)
	return st
}

// Freeze pauses batch generation after the current batch (tests).
func (e *Calvin) Freeze() { e.st.frozen.Store(true) }

// Name reports the Calvin-x configuration.
func (e *Calvin) Name() string {
	return "Calvin-" + string(rune('0'+e.cfg.LockManagers))
}

// NodeDB exposes a node's database.
func (e *Calvin) NodeDB(i int) *storage.DB { return e.nodes[i].db }

func (e *Calvin) start() {
	r := e.cfg.RT
	for i := 0; i < e.cfg.Nodes; i++ {
		e.startNode(i)
	}
	r.Go("calvin-sequencer", e.sequencerLoop)
}

// sequencerLoop emits input batches and replicates them to every node
// (§7.3: "it replicates inputs at the beginning of the batch"), sending
// the next batch when all nodes report completion (closed loop, matching
// the paper's run-to-saturation measurement).
func (e *Calvin) sequencerLoop() {
	r := e.cfg.RT
	in := e.net.Inbox(e.cfg.tickerID())
	gens := make([]workload.Gen, e.cfg.Nodes)
	for i := range gens {
		gens[i] = e.cfg.Workload.NewGen(workload.WorkerSeed(e.cfg.Seed, i, 99))
	}
	for {
		if e.st.pause(r) {
			continue
		}
		e.batch++
		no := uint64(e.batch) + 1 // epochs start at 2
		var txns []*txn.Request
		now := int64(r.Now())
		for node := 0; node < e.cfg.Nodes; node++ {
			for k := 0; k < batchPerWorker*e.cfg.WorkersPerNode; k++ {
				home := node*e.cfg.WorkersPerNode + k%e.cfg.WorkersPerNode
				req := txn.NewRequest(gens[node].Mixed(home), now)
				txns = append(txns, req)
			}
		}
		m := msgBatch{No: no, Txns: txns}
		for i := 0; i < e.cfg.Nodes; i++ {
			e.net.Send(e.cfg.tickerID(), i, transport.Replication, m)
		}
		done := 0
		for done < e.cfg.Nodes {
			v, ok := in.RecvTimeout(10 * time.Second)
			if !ok {
				break
			}
			if d, isDone := v.(msgBatchDone); isDone && d.No == no {
				done++
			}
		}
	}
}

type calvinNode struct {
	e      *Calvin
	id     int
	lms    []rt.Chan
	readyQ rt.Chan

	// mu guards the batch state below (router and workers touch it; on
	// the sim runtime it is uncontended).
	mu      sync.Mutex
	txns    map[uint64]*calvinTxn
	early   map[uint64][]msgPush // pushes that arrived before scheduling
	left    int
	batchNo uint64
}

func (e *Calvin) startNode(i int) {
	r := e.cfg.RT
	cn := &calvinNode{e: e, id: i, readyQ: r.NewChan(1 << 16),
		txns: map[uint64]*calvinTxn{}, early: map[uint64][]msgPush{}}
	for lm := 0; lm < e.cfg.LockManagers; lm++ {
		ch := r.NewChan(1 << 16)
		cn.lms = append(cn.lms, ch)
		shard := lock.NewDet()
		lm := lm
		r.Go(procName("calvin-lm", i, lm), func() {
			for {
				switch m := ch.Recv().(type) {
				case lmAcquire:
					r.Compute(time.Duration(len(m.names)) * 300 * time.Nanosecond)
					for k, nm := range m.names {
						shard.Acquire(nm, m.det, m.write[k])
					}
				case lmRelease:
					r.Compute(time.Duration(len(m.names)) * 150 * time.Nanosecond)
					for _, nm := range m.names {
						shard.Release(nm, m.det)
					}
				}
			}
		})
	}
	// Router: receives batches and pushes.
	r.Go(procName("calvin-router", i, 0), func() {
		in := e.net.Inbox(i)
		for {
			switch m := in.Recv().(type) {
			case msgBatch:
				r.Compute(core.CostMsgHandling)
				cn.schedule(m)
			case msgPush:
				r.Compute(core.CostMsgHandling)
				cn.deliverPush(m)
			}
		}
	})
	workers := e.cfg.WorkersPerNode - e.cfg.LockManagers
	if workers < 1 {
		workers = 1
	}
	for w := 0; w < workers; w++ {
		w := w
		r.Go(procName("calvin-worker", i, w), func() { cn.workerLoop(w) })
	}
}

// schedule assigns a batch's transactions to the lock-manager shards in
// deterministic order.
func (cn *calvinNode) schedule(m msgBatch) {
	e := cn.e
	// All writes of earlier batches are complete (the sequencer gates
	// each batch on every node's done report) and Calvin never reverts:
	// drop their revert bookkeeping so dirty/pending buckets stay at one
	// batch instead of accumulating for the whole run.
	e.nodes[cn.id].db.CommitEpochBefore(m.No)
	cn.mu.Lock()
	cn.batchNo = m.No
	cn.left = 0
	type pending struct {
		ct    *calvinTxn
		names [][]lock.Name
		write [][]bool
	}
	var toAcquire []pending
	for idx, req := range m.Txns {
		var local []txn.Access
		participants := map[int]bool{}
		minPart := -1
		for _, a := range req.Proc.Accesses() {
			owner := e.cfg.MasterOf(a.Part)
			participants[owner] = true
			if minPart == -1 || owner < minPart {
				minPart = owner
			}
			if owner == cn.id {
				local = append(local, a)
			}
		}
		if len(local) == 0 {
			continue
		}
		ct := &calvinTxn{
			id:        m.No<<20 | uint64(idx),
			req:       req,
			local:     local,
			remote:    map[remoteKey][]byte{},
			remoteIdx: map[idxRef][]storage.Key{},
			needed:    len(participants) - 1,
			counts:    minPart == cn.id,
			genAt:     req.GenAt,
			batchNo:   m.No,
			seq:       uint64(idx + 1),
		}
		cn.left++
		cn.txns[ct.id] = ct
		for _, pm := range cn.early[ct.id] {
			ct.absorb(pm)
			ct.needed--
		}
		delete(cn.early, ct.id)
		names := make([][]lock.Name, len(cn.lms))
		write := make([][]bool, len(cn.lms))
		for _, a := range local {
			nm := lock.Name{Table: a.Table, Key: a.Key}
			shard := int((a.Key.Lo*2654435761 + a.Key.Hi + uint64(a.Table)) % uint64(len(cn.lms)))
			names[shard] = append(names[shard], nm)
			write[shard] = append(write[shard], a.Write)
		}
		nlocks := 0
		for _, ns := range names {
			nlocks += len(ns)
		}
		ready := cn.readyQ
		ct.det = lock.NewDetTxn(ct.id, nlocks, func() { ready.Send(ct) })
		toAcquire = append(toAcquire, pending{ct: ct, names: names, write: write})
	}
	if cn.left == 0 {
		cn.mu.Unlock()
		e.net.Send(cn.id, e.cfg.tickerID(), transport.Control, msgBatchDone{Node: cn.id, No: m.No})
		return
	}
	cn.mu.Unlock()
	// Dispatch lock requests in batch order per shard.
	for _, p := range toAcquire {
		for shard := range cn.lms {
			if len(p.names[shard]) > 0 {
				cn.lms[shard].Send(lmAcquire{det: p.ct.det, names: p.names[shard], write: p.write[shard]})
			}
		}
	}
}

// absorb folds a participant's push into the transaction's remote state.
func (ct *calvinTxn) absorb(m msgPush) {
	for i, k := range m.Keys {
		ct.remote[k] = m.Rows[i]
	}
	for _, ip := range m.Idx {
		ct.remoteIdx[ip.Ref] = ip.Keys
	}
}

func (cn *calvinNode) deliverPush(m msgPush) {
	cn.mu.Lock()
	ct := cn.txns[m.TxnID]
	if ct == nil {
		// The push outran this node's copy of the batch: stash it.
		cn.early[m.TxnID] = append(cn.early[m.TxnID], m)
		cn.mu.Unlock()
		return
	}
	ct.absorb(m)
	ct.needed--
	resume := ct.needed <= 0 && ct.pushed
	cn.mu.Unlock()
	if resume {
		cn.readyQ.Send(ct) // resume: all remote inputs present
	}
}

// workerLoop executes lock-granted transactions. A transaction passes
// through the queue twice when it has remote participants: once to push
// local reads, then again when every remote push has arrived.
func (cn *calvinNode) workerLoop(_ int) {
	e := cn.e
	r := e.cfg.RT
	var set txn.RWSet
	for {
		ct := cn.readyQ.Recv().(*calvinTxn)
		if !ct.pushed {
			cn.pushReads(ct)
			cn.mu.Lock()
			ct.pushed = true
			wait := ct.needed > 0
			cn.mu.Unlock()
			if wait {
				continue // parked until deliverPush re-queues it
			}
		}
		set.Reset()
		ctx := &calvinCtx{cn: cn, ct: ct, Writer: txn.Writer{Set: &set}}
		err := ct.req.Proc.Run(ctx)
		r.Compute(core.ExecCost(ctx.counts()))
		tid := storage.MakeTID(ct.batchNo, ct.seq)
		if err == nil {
			for _, en := range replication.OpEntries(&set, tid) {
				if e.cfg.MasterOf(int(en.Part)) == cn.id {
					landEntry(e.nodes[cn.id].db, &en, ct.batchNo, tid, true)
				}
			}
		}
		cn.releaseLocks(ct)
		if ct.counts {
			if err == nil {
				e.st.committed.Inc()
				e.st.latency.Observe(time.Duration(int64(r.Now()) - ct.genAt))
			} else {
				e.st.userAborts.Inc()
			}
		}
		cn.mu.Lock()
		delete(cn.txns, ct.id)
		cn.left--
		finished := cn.left == 0
		no := cn.batchNo
		cn.mu.Unlock()
		if finished {
			e.net.Send(cn.id, e.cfg.tickerID(), transport.Control, msgBatchDone{Node: cn.id, No: no})
		}
	}
}

// pushReads broadcasts this node's read values to the other participants.
func (cn *calvinNode) pushReads(ct *calvinTxn) {
	e := cn.e
	participants := map[int]bool{}
	for _, a := range ct.req.Proc.Accesses() {
		participants[e.cfg.MasterOf(a.Part)] = true
	}
	if len(participants) <= 1 {
		return
	}
	var keys []remoteKey
	var rows [][]byte
	var idxPushes []idxPush
	pushRecord := func(t storage.TableID, part int, key storage.Key) {
		rec := cn.e.nodes[cn.id].db.Table(t).Get(part, key)
		if rec == nil {
			return
		}
		val, _, present := rec.ReadStable(nil)
		if !present {
			return
		}
		keys = append(keys, remoteKey{Table: t, Part: part, Key: key})
		rows = append(rows, append([]byte(nil), val...))
	}
	for _, a := range ct.local {
		if a.IndexVal != nil {
			// Index-prefetch access: resolve the lookup on this (owning)
			// node and ship the match list plus the matched rows, so
			// every participant runs the by-name resolution against the
			// same deterministic answer. An empty match list is pushed
			// too — remote participants must distinguish "no matches"
			// from "not resolved here".
			tbl := cn.e.nodes[cn.id].db.Table(a.Table)
			matches := tbl.IndexLookup(a.Part, a.Index, a.IndexVal, storage.IndexAllEpochs, nil)
			idxPushes = append(idxPushes, idxPush{
				Ref:  idxRef{Table: a.Table, Part: a.Part, Index: a.Index, Val: string(a.IndexVal)},
				Keys: matches,
			})
			for _, mk := range matches {
				pushRecord(a.Table, a.Part, mk)
			}
			continue
		}
		if a.LockOnly {
			continue
		}
		pushRecord(a.Table, a.Part, a.Key)
	}
	m := msgPush{TxnID: ct.id, From: cn.id, Keys: keys, Rows: rows, Idx: idxPushes}
	for _, p := range slices.Sorted(maps.Keys(participants)) { // in id order: see callAll
		if p != cn.id {
			e.net.Send(cn.id, p, transport.Data, m)
		}
	}
}

func (cn *calvinNode) releaseLocks(ct *calvinTxn) {
	names := make([][]lock.Name, len(cn.lms))
	for _, a := range ct.local {
		nm := lock.Name{Table: a.Table, Key: a.Key}
		shard := int((a.Key.Lo*2654435761 + a.Key.Hi + uint64(a.Table)) % uint64(len(cn.lms)))
		names[shard] = append(names[shard], nm)
	}
	for shard, ns := range names {
		if len(ns) > 0 {
			cn.lms[shard].Send(lmRelease{det: ct.det, names: ns})
		}
	}
}

// calvinCtx reads local partitions directly and remote partitions from
// the pushed values; writes buffer as usual but only local ones apply.
type calvinCtx struct {
	txn.Writer
	cn    *calvinNode
	ct    *calvinTxn
	reads int
}

func (c *calvinCtx) counts() (int, int) { return c.reads, c.Writes }

func (c *calvinCtx) Read(t storage.TableID, part int, key storage.Key) ([]byte, bool) {
	c.reads++
	e := c.cn.e
	tbl := e.nodes[c.cn.id].db.Table(t)
	if tbl.Replicated() || e.cfg.MasterOf(part) == c.cn.id {
		rec := tbl.Get(part, key)
		if rec == nil {
			return nil, false
		}
		val, _, present := rec.ReadStable(nil)
		return val, present
	}
	row, ok := c.ct.remote[remoteKey{Table: t, Part: part, Key: key}]
	return row, ok
}

// LookupIndex resolves locally for partitions this node masters and from
// the pushed match lists otherwise (an undeclared remote lookup finds
// nothing and the procedure skips, like an unpushed remote read).
func (c *calvinCtx) LookupIndex(t storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	c.reads++
	e := c.cn.e
	tbl := e.nodes[c.cn.id].db.Table(t)
	if tbl.Replicated() || e.cfg.MasterOf(part) == c.cn.id {
		return tbl.IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
	}
	return append(dst, c.ct.remoteIdx[idxRef{Table: t, Part: part, Index: idx, Val: string(val)}]...)
}
