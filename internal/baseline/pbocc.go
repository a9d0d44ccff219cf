package baseline

import (
	"fmt"
	"time"

	"star/internal/core"
	"star/internal/metrics"
	"star/internal/occ"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/workload"
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
	net, nodes := cfg.buildNodes(func(int, int) bool { return true }) // both hold everything
	e.net, e.primary, e.backup = net, nodes[0], nodes[1]
	e.ticker = newEpochTicker(cfg, e.net, nodes, e.st.latency)
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
	e.primary.handle = func(m any) {
		if resp, ok := m.(*rpcResp); ok {
			ports[resp.Worker].resp.Send(resp)
		}
	}
	r.Go("pbocc-primary-router", func() { e.primary.routeInbox(e.cfg, e.st.latency) })
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
	e.backup.handle = func(m any) {
		switch m := m.(type) {
		case *replication.Batch:
			r.Compute(core.CostMsgHandling)
			applierChs[nextApplier].Send(m)
			nextApplier = (nextApplier + 1) % len(applierChs)
		case *rpcReq: // sync replication batch
			r.Compute(core.CostMsgHandling)
			applyBatch(e.cfg, e.backup, mustDecode(replication.DecodeBatch(m.Payload)))
			e.net.Send(1, m.From, transport.Data, &rpcResp{Worker: m.Worker, Seq: m.Seq, OK: true})
		}
	}
	r.Go("pbocc-backup-router", func() { e.backup.routeInbox(e.cfg, e.st.latency) })
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
	gen := e.cfg.Workload.NewGen(workload.WorkerSeed(e.cfg.Seed, 0, wi))
	rng := workload.WorkerRNG(e.cfg.Seed, 0, wi)
	var tid occ.TIDGen
	var set txn.RWSet
	ctx := txn.Local{DB: e.primary.db, Writer: txn.Writer{Set: &set}}
	nparts := e.cfg.NumPartitions()
	for {
		if e.st.pause(r) {
			continue
		}
		home := rng.Intn(nparts)
		req := txn.NewRequest(gen.Mixed(home), int64(r.Now()))
		for {
			set.Reset()
			ctx.Reset()
			err := req.Proc.Run(&ctx)
			r.Compute(core.ExecCost(ctx.Reads, ctx.Writes))
			if err == txn.ErrUserAbort {
				e.st.userAborts.Inc()
				break
			}
			if err != nil || ctx.Failed {
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

func applyBatch(cfg Config, n *bnode, b *replication.Batch) {
	for i := range b.Entries {
		if _, err := replication.Apply(n.db, storage.TIDEpoch(b.Entries[i].TID), &b.Entries[i], false); err != nil {
			panic("baseline: replication apply: " + err.Error())
		}
	}
	cfg.RT.Compute(time.Duration(len(b.Entries)) * core.CostApplyEntry)
	n.tracker.AddApplied(b.From, int64(len(b.Entries)))
}

// routeInbox is node n's router process: it routes every message that
// reaches n's inbox.
func (n *bnode) routeInbox(cfg Config, lat *metrics.Hist) {
	in := n.net.Inbox(n.id)
	for {
		n.route(cfg, lat, in.Recv())
	}
}

// route serves one message arriving at node n: the group-commit
// ticker's msgTick (answered with n's sent vector) and msgTickDrain (a
// drain), and every other message through n.handle.
func (n *bnode) route(cfg Config, lat *metrics.Hist, m any) {
	switch m := m.(type) {
	case msgTick:
		n.net.Send(n.id, cfg.tickerID(), transport.Control, msgTickDone{Node: n.id, Epoch: m.Epoch, Sent: n.tracker.SentVector()})
	case msgTickDrain:
		n.drain(cfg, lat, m)
	default:
		n.handle(m)
	}
}

// drain services a group-commit fence on node n: route messages until
// the expected replication entries have been applied, then ack the
// ticker and release this epoch's group-committed results.
func (n *bnode) drain(cfg Config, lat *metrics.Hist, m msgTickDrain) {
	in := n.net.Inbox(n.id)
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
		n.route(cfg, lat, msg)
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
