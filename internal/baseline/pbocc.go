package baseline

import (
	"fmt"
	"time"

	"star/internal/core"
	"star/internal/metrics"
	"star/internal/occ"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
)

// PBOCC is the primary/backup non-partitioned baseline (§7.1.2): a
// variant of Silo's OCC where one primary node runs every transaction
// and replicates writes to one backup. Exactly two nodes are used, as in
// the paper. With SyncRepl the primary holds write locks for the
// replication round trip; otherwise replication is asynchronous with an
// epoch-based group commit.
type PBOCC struct {
	cfg     Config
	net     transport.Transport
	primary *bnode
	backup  *bnode
	ticker  *epochTicker
	st      stats
}

// NewPBOCC builds and starts the primary/backup cluster.
func NewPBOCC(cfg Config) *PBOCC {
	cfg.Nodes = 2 // fixed: primary + backup (§7.1.2)
	cfg = cfg.withDefaults()
	e := &PBOCC{cfg: cfg, st: stats{latency: &metrics.Hist{}}}
	storage.InstallSpinWait(cfg.RT)
	e.net = simnet.New(cfg.RT, cfg.Net)
	for i := 0; i < 2; i++ {
		db := cfg.Workload.BuildDB(cfg.NumPartitions(), nil) // both hold everything
		cfg.Workload.Load(db)
		db.CommitEpoch()
		n := &bnode{id: i, db: db, tracker: replication.NewTracker(2), net: e.net}
		if i == 0 {
			e.primary = n
		} else {
			e.backup = n
		}
	}
	e.ticker = newEpochTicker(cfg, e.net, []*bnode{e.primary, e.backup}, e.st.latency)
	e.start()
	return e
}

// Stats snapshots the run.
func (e *PBOCC) Stats() metrics.Stats {
	name := "PB. OCC"
	if e.cfg.SyncRepl {
		name = "PB. OCC (sync)"
	}
	return e.st.snapshot(name, e.cfg.RT, e.net)
}

// Freeze pauses workload generation so replication can settle (tests).
func (e *PBOCC) Freeze() { e.st.frozen.Store(true) }

// Backup exposes the backup database for consistency checks.
func (e *PBOCC) Backup() *storage.DB { return e.backup.db }

// Primary exposes the primary database.
func (e *PBOCC) Primary() *storage.DB { return e.primary.db }

func (e *PBOCC) start() {
	r := e.cfg.RT
	ports := make([]*rpcPort, e.cfg.WorkersPerNode)
	for i := range ports {
		ports[i] = newRPCPort(r)
	}
	// Primary router: fence participation + sync-replication acks.
	e.primary.onDrainMsg = func(m any) {
		if resp, ok := m.(*rpcResp); ok {
			ports[resp.Worker].resp.Send(resp)
		}
	}
	r.Go("pbocc-primary-router", func() {
		in := e.net.Inbox(0)
		for {
			switch m := in.Recv().(type) {
			case *rpcResp:
				ports[m.Worker].resp.Send(m)
			case msgTick:
				e.net.Send(0, e.cfg.tickerID(), transport.Control, msgTickDone{
					Node: 0, Epoch: m.Epoch, Sent: e.primary.tracker.SentVector(),
				})
			case msgTickDrain:
				drainNode(e.cfg, e.primary, in, m, e.st.latency)
			}
		}
	})
	// Parallel replay on the backup (SiloR-style): value entries commute
	// under the Thomas write rule, so batches fan out round-robin.
	applierChs := make([]rt.Chan, e.cfg.WorkersPerNode)
	for a := range applierChs {
		ch := r.NewChan(1 << 14)
		applierChs[a] = ch
		r.Go(fmt.Sprintf("pbocc-applier-%d", a), func() {
			for {
				applyBatch(e.cfg, e.backup, ch.Recv().(*replication.Batch))
			}
		})
	}
	nextApplier := 0
	// Backup router: apply replication, ack syncs, answer fences.
	r.Go("pbocc-backup-router", func() {
		in := e.net.Inbox(1)
		n := e.backup
		for {
			switch m := in.Recv().(type) {
			case *replication.Batch:
				r.Compute(core.CostMsgHandling)
				applierChs[nextApplier].Send(m)
				nextApplier = (nextApplier + 1) % len(applierChs)
			case *rpcReq: // sync replication batch
				r.Compute(core.CostMsgHandling)
				b := mustDecode(replication.DecodeBatch(m.Payload))
				applyBatch(e.cfg, n, b)
				e.net.Send(1, m.From, transport.Data, &rpcResp{Worker: m.Worker, Seq: m.Seq, OK: true})
			case msgTick:
				e.net.Send(1, e.cfg.tickerID(), transport.Control, msgTickDone{
					Node: 1, Epoch: m.Epoch, Sent: n.tracker.SentVector(),
				})
			case msgTickDrain:
				drainNode(e.cfg, n, in, m, e.st.latency)
			}
		}
	})
	for wi := 0; wi < e.cfg.WorkersPerNode; wi++ {
		wi := wi
		r.Go(fmt.Sprintf("pbocc-worker-%d", wi), func() { e.workerLoop(wi, ports[wi]) })
	}
	if !e.cfg.SyncRepl {
		r.Go("pbocc-ticker", e.ticker.loop)
	}
}

func (e *PBOCC) workerLoop(wi int, port *rpcPort) {
	r := e.cfg.RT
	gen := e.cfg.Workload.NewGen(workerSeed(e.cfg.Seed, 0, wi))
	rng := newRNG(e.cfg.Seed, 0, wi)
	var tid occ.TIDGen
	var set txn.RWSet
	nparts := e.cfg.NumPartitions()
	for {
		if e.st.pause(r) {
			continue
		}
		home := rng.Intn(nparts)
		req := txn.NewRequest(gen.Mixed(home), int64(r.Now()))
		for {
			set.Reset()
			ctx := &dbCtx{db: e.primary.db, set: &set}
			err := req.Proc.Run(ctx)
			r.Compute(core.ExecCost(ctx.counts()))
			if err == txn.ErrUserAbort {
				e.st.userAborts.Inc()
				break
			}
			if err != nil || ctx.failed {
				e.st.aborted.Inc()
				continue
			}
			epoch := e.ticker.Epoch()
			if e.cfg.SyncRepl {
				if !occ.LockAndValidate(e.primary.db, &set, epoch) {
					e.st.aborted.Inc()
					continue
				}
				t := tid.Next(epoch, set.MaxReadTID())
				occ.ApplyWrites(e.primary.db, &set, epoch, t, true)
				// Hold write locks across the replication round trip (§6.1).
				entries := replication.ValueEntries(&set, t)
				e.primary.tracker.AddSent(1, int64(len(entries)))
				resp := port.call(e.net, 0, 1, wi, rpcCommitWrites,
					encodeBatchPayload(&replication.Batch{From: 0, Entries: entries}))
				occ.ReleaseLocks(&set)
				if !resp.OK {
					e.st.aborted.Inc()
					continue
				}
				e.st.committed.Inc()
				e.st.latency.Observe(time.Duration(int64(r.Now()) - req.GenAt))
			} else {
				t, ok := occ.Commit(e.primary.db, &set, epoch, &tid, true)
				if !ok {
					e.st.aborted.Inc()
					continue
				}
				ents := replication.ValueEntries(&set, t)
				e.primary.tracker.AddSent(1, int64(len(ents)))
				e.net.Send(0, 1, transport.Replication, &replication.Batch{From: 0, Entries: ents})
				e.st.committed.Inc()
				e.primary.addPending(req.GenAt)
			}
			break
		}
	}
}

// ---- shared helpers used by all baselines ----

// dbCtx is the local-database transaction context (used where every
// record is local: PB. OCC's primary and parts of other engines).
type dbCtx struct {
	db     *storage.DB
	set    *txn.RWSet
	reads  int
	writes int
	failed bool
}

func (c *dbCtx) Read(t storage.TableID, part int, key storage.Key) ([]byte, bool) {
	c.reads++
	tbl := c.db.Table(t)
	rec := tbl.Get(part, key)
	if rec == nil {
		return nil, false // row missing: skippable, not an abort
	}
	val, tidv, present := rec.ReadStable(nil)
	if !present {
		return nil, false // tombstone: same as missing
	}
	if !tbl.Replicated() {
		c.set.AddRead(t, part, key, rec, tidv)
	}
	return val, true
}

func (c *dbCtx) Write(t storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	c.writes++
	c.set.AddWrite(t, part, key, ops...)
}

func (c *dbCtx) Insert(t storage.TableID, part int, key storage.Key, row []byte) {
	c.writes++
	c.set.AddInsert(t, part, key, row)
}

func (c *dbCtx) Delete(t storage.TableID, part int, key storage.Key) {
	c.writes++
	c.set.AddDelete(t, part, key)
}

// LookupIndex resolves a secondary-index lookup on the local database
// (PB. OCC's primary holds everything).
func (c *dbCtx) LookupIndex(t storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	c.reads++
	return c.db.Table(t).IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
}

// LookupIndexTail implements txn.IndexTailReader.
func (c *dbCtx) LookupIndexTail(t storage.TableID, part, idx int, val []byte, max int, dst []storage.Key) []storage.Key {
	c.reads++
	return c.db.Table(t).IndexLookupTail(part, idx, val, storage.IndexAllEpochs, max, dst)
}

func (c *dbCtx) counts() (int, int) { return c.reads, c.writes }

func applyBatch(cfg Config, n *bnode, b *replication.Batch) {
	for i := range b.Entries {
		if _, err := replication.Apply(n.db, storage.TIDEpoch(b.Entries[i].TID), &b.Entries[i], false); err != nil {
			panic("baseline: replication apply: " + err.Error())
		}
	}
	cfg.RT.Compute(time.Duration(len(b.Entries)) * core.CostApplyEntry)
	n.tracker.AddApplied(b.From, int64(len(b.Entries)))
}

// drainNode services a group-commit fence on a node: handle messages
// until the expected replication entries have been applied, then ack the
// ticker and release this epoch's group-committed results.
func drainNode(cfg Config, n *bnode, in rt.Chan, m msgTickDrain, lat *metrics.Hist) {
	for !n.tracker.Drained(m.Expected) {
		msg, ok := in.RecvTimeout(20 * time.Microsecond)
		if !ok {
			continue
		}
		if b, isBatch := msg.(*replication.Batch); isBatch {
			cfg.RT.Compute(core.CostMsgHandling)
			applyBatch(cfg, n, b)
			continue
		}
		if n.onDrainMsg != nil {
			n.onDrainMsg(msg)
		}
	}
	// The epoch group-committed: its revert bookkeeping (dirty buckets,
	// index pending sets) will never be needed — these engines have no
	// failure revert — so drop everything older than the fence. Without
	// this the buckets accumulate one epoch forever (the sync variants
	// never advance their epoch, so they stay at one bucket regardless).
	n.db.CommitEpochBefore(m.Epoch)
	n.net.Send(n.id, cfg.tickerID(), transport.Control, msgTickAck{Node: n.id, Epoch: m.Epoch})
	n.release(cfg.RT.Now(), lat)
}
