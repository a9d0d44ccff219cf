package baseline

import (
	"maps"
	"slices"
	"time"

	"star/internal/core"
	"star/internal/lock"
	"star/internal/occ"
	"star/internal/replication"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/workload"
)

// callAll issues one RPC per destination in parallel, in ascending
// destination order (the simulated network reserves a sender's egress in
// send order, so any other order makes the schedule differ run to run),
// and collects all responses. Local destinations must be handled by the
// caller directly.
func (p *rpcPort) callAll(net transport.Transport, src, worker int, reqs map[int]*rpcReq) map[int]*rpcResp {
	bySeq := map[uint64]int{}
	for _, dst := range slices.Sorted(maps.Keys(reqs)) {
		req := reqs[dst]
		p.seq++
		req.Seq = p.seq
		bySeq[p.seq] = dst
		net.Send(src, dst, transport.Data, req)
	}
	out := make(map[int]*rpcResp, len(reqs))
	for len(out) < len(reqs) {
		v, ok := p.resp.RecvTimeout(time.Second)
		if !ok {
			break
		}
		resp := v.(*rpcResp)
		if dst, want := bySeq[resp.Seq]; want {
			delete(bySeq, resp.Seq)
			out[dst] = resp
		}
	}
	return out
}

// ---- participant-side operations (called via RPC or directly) ----

func (e *Dist) doRead(node int, p *readPayload) (*readReply, bool) {
	rec := e.nodes[node].db.Table(p.Table).Get(p.Part, p.Key)
	if rec == nil {
		return &readReply{Absent: true}, true
	}
	// Bounded read: if the record is latched by an in-flight commit we
	// fail the read (conflict abort) rather than spin — the router
	// serving this read is also the process that must deliver the
	// latch-holder's commit, so unbounded spinning would deadlock.
	val, tidv, present, ok := rec.TryReadStable(nil, 16)
	if !ok {
		return nil, false
	}
	if !present {
		return &readReply{TID: tidv, Absent: true}, true
	}
	return &readReply{Row: val, TID: tidv}, true
}

func (e *Dist) doLockRead(node int, p *readPayload) (*readReply, bool) {
	nm := lock.Name{Table: p.Table, Key: p.Key}
	if !e.locks[node].TryLock(nm, p.Owner, p.Write) {
		return nil, false // NO_WAIT: abort on conflict
	}
	rec := e.nodes[node].db.Table(p.Table).Get(p.Part, p.Key)
	if rec == nil {
		e.locks[node].Unlock(nm, p.Owner)
		return &readReply{Absent: true}, true
	}
	val, tidv, present, ok := rec.TryReadStable(nil, 64)
	if !ok {
		e.locks[node].Unlock(nm, p.Owner)
		return nil, false
	}
	if !present {
		// A tombstone is a successful "row missing" read; the name lock
		// is released — readers of trimmed ranges serialise on the
		// district rows, not on the reclaimed rows themselves.
		e.locks[node].Unlock(nm, p.Owner)
		return &readReply{TID: tidv, Absent: true}, true
	}
	return &readReply{Row: val, TID: tidv}, true
}

func (e *Dist) doLockValidate(node int, p *lvPayload) (*lvReply, bool) {
	n := e.nodes[node]
	var locked []*storage.Record
	fail := func() bool {
		for _, rec := range locked {
			rec.Unlock()
		}
		return false
	}
	maxTID := uint64(0)
	for idx, nm := range p.Writes {
		part := int(p.Parts[idx])
		rec := n.db.Table(nm.Table).Partition(part).GetOrCreate(nm.Key, 0)
		if !rec.TryLock() { // NO_WAIT on write locks
			return nil, fail()
		}
		locked = append(locked, rec)
		if t := storage.TIDClean(rec.TID()); t > maxTID {
			maxTID = t
		}
	}
	for idx := range p.Reads {
		re := &p.Reads[idx]
		rec := n.db.Table(re.Table).Get(re.Part, re.Key)
		if rec == nil {
			return nil, fail()
		}
		cur := rec.TID()
		if storage.TIDClean(cur) != storage.TIDClean(re.TID) {
			return nil, fail()
		}
		if storage.TIDLocked(cur) && !recIn(locked, rec) {
			return nil, fail()
		}
	}
	return &lvReply{MaxWriteTID: maxTID}, true
}

// doCommitAsync applies the writes, releases locks, and streams value
// rows to the partition block's backup. Returns the backup entries sent.
func (e *Dist) doCommitAsync(node int, p *commitPayload) {
	n := e.nodes[node]
	if len(p.Entries) == 0 {
		// Release-only participant (read locks, no writes here).
		for _, nm := range p.Release {
			e.locks[node].Unlock(nm, p.Owner)
		}
		return
	}
	backup := e.cfg.BackupOf(int(p.Entries[0].Part))
	ents := e.landAll(node, p)
	for _, nm := range p.Release {
		e.locks[node].Unlock(nm, p.Owner)
	}
	if backup != node {
		n.tracker.AddSent(backup, int64(len(ents)))
		e.net.Send(node, backup, transport.Replication, &replication.Batch{From: node, Entries: ents})
	}
}

// landAll lands a commit's writes on the participant's primary copy and
// returns their post-images, the value entries its backup is sent. For
// OCC the record latches are already held (from doLockValidate); S2PL
// latches briefly (its isolation comes from the lock table).
func (e *Dist) landAll(node int, p *commitPayload) []replication.Entry {
	epoch := storage.TIDEpoch(p.TID)
	ents := make([]replication.Entry, 0, len(p.Entries))
	for idx := range p.Entries {
		en := &p.Entries[idx]
		rec := landEntry(e.nodes[node].db, en, epoch, p.TID, e.proto == DistS2PL)
		row, _, present := rec.ReadStable(nil)
		ents = append(ents, replication.Entry{Table: en.Table, Part: en.Part, Key: en.Key, TID: p.TID, Row: row, Absent: !present})
	}
	return ents
}

// landEntry lands one committed write on a primary copy and releases the
// record latch, which it takes first when lock is set and which the
// caller already holds otherwise.
func landEntry(db *storage.DB, en *replication.Entry, epoch, tid uint64, lock bool) *storage.Record {
	tbl := db.Table(en.Table)
	rec := tbl.Partition(int(en.Part)).GetOrCreate(en.Key, epoch)
	if lock {
		rec.Lock()
	}
	defer rec.Unlock()
	if _, err := tbl.Land(int(en.Part), en.Key, rec, epoch, tid, en.Write()); err != nil {
		panic("baseline: " + err.Error())
	}
	return rec
}

func (e *Dist) doAbort(node int, p *abortPayload) {
	n := e.nodes[node]
	for idx, nm := range p.Writes {
		rec := n.db.Table(nm.Table).Get(int(p.Parts[idx]), nm.Key)
		if rec != nil && storage.TIDLocked(rec.TID()) {
			rec.Unlock()
		}
	}
	for _, nm := range p.Release {
		e.locks[node].Unlock(nm, p.Owner)
	}
}

// ---- coordinator-side transaction execution ----

// distCtx serves procedure reads/writes for both distributed protocols.
type distCtx struct {
	txn.Writer
	e      *Dist
	node   int
	wi     int
	port   *rpcPort
	reads  int
	failed bool

	// S2PL state
	s2pl      bool
	owner     int
	writeMode map[lock.Name]bool
	held      map[int][]lock.Name // participant → lock names held
}

func (c *distCtx) counts() (int, int) { return c.reads, c.Writes }

func (c *distCtx) Read(t storage.TableID, part int, key storage.Key) ([]byte, bool) {
	c.reads++
	e := c.e
	tbl := e.nodes[c.node].db.Table(t)
	if tbl.Replicated() {
		rec := tbl.Get(part, key)
		if rec == nil {
			return nil, false
		}
		val, _, present := rec.ReadStable(nil)
		return val, present
	}
	owner := e.cfg.MasterOf(part)
	if c.s2pl {
		nm := lock.Name{Table: t, Key: key}
		payload := &readPayload{Table: t, Part: part, Key: key, Write: c.writeMode[nm], Owner: c.owner}
		var rep *readReply
		var ok bool
		if owner == c.node {
			rep, ok = e.doLockRead(owner, payload)
		} else {
			resp := c.port.call(e.net, c.node, owner, c.wi, rpcLockRead, wire.Marshal(payload, readPayloadFields))
			if resp.OK {
				rep, ok = mustDecode(wire.Unmarshal(resp.Payload, readReplyFields)), true
			}
		}
		if !ok {
			c.failed = true
			return nil, false
		}
		if rep.Absent {
			return nil, false // row missing: skippable, not an abort
		}
		c.held[owner] = append(c.held[owner], nm)
		c.Set.AddRead(t, part, key, nil, rep.TID)
		return rep.Row, true
	}
	// OCC: plain read; remote reads are an RPC round trip (§7.2.2).
	payload := &readPayload{Table: t, Part: part, Key: key}
	var rep *readReply
	var ok bool
	if owner == c.node {
		rep, ok = e.doRead(owner, payload)
	} else {
		resp := c.port.call(e.net, c.node, owner, c.wi, rpcRead, wire.Marshal(payload, readPayloadFields))
		if resp.OK {
			rep, ok = mustDecode(wire.Unmarshal(resp.Payload, readReplyFields)), true
		}
	}
	if !ok {
		c.failed = true
		return nil, false
	}
	if rep.Absent {
		return nil, false // row missing: skippable, not an abort
	}
	c.Set.AddRead(t, part, key, nil, rep.TID)
	return rep.Row, true
}

// LookupIndex resolves a secondary-index lookup: locally when this node
// masters the partition (or the table is replicated), otherwise as one
// RPC round trip to the partition's master — the same shape as a remote
// read (§7.2.2). Lookups take no locks on either protocol; the record
// reads and commutative writes that follow carry the isolation, the
// same tolerance Delivery's cursor-dependent accesses rely on.
func (c *distCtx) LookupIndex(t storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	c.reads++
	e := c.e
	tbl := e.nodes[c.node].db.Table(t)
	if tbl.Replicated() || e.cfg.MasterOf(part) == c.node {
		return tbl.IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
	}
	payload := &idxPayload{Table: t, Part: part, Index: idx, Val: val}
	resp := c.port.call(e.net, c.node, e.cfg.MasterOf(part), c.wi, rpcIndexLookup, wire.Marshal(payload, idxPayloadFields))
	if !resp.OK {
		c.failed = true
		return dst
	}
	return append(dst, mustDecode(wire.Unmarshal(resp.Payload, idxReplyFields)).Keys...)
}

// participantEntries groups the write set per mastering node.
func (e *Dist) participantEntries(set *txn.RWSet, tid uint64) map[int][]replication.Entry {
	out := map[int][]replication.Entry{}
	for _, en := range replication.OpEntries(set, tid) {
		owner := e.cfg.MasterOf(int(en.Part))
		out[owner] = append(out[owner], en)
	}
	return out
}

func (e *Dist) runOCC(node, wi int, req *txn.Request) {
	r := e.cfg.RT
	port := e.ports[node][wi]
	rng := workload.WorkerRNG(e.cfg.Seed^0x0cc, node, wi)
	var set txn.RWSet
	for {
		set.Reset()
		ctx := &distCtx{e: e, node: node, wi: wi, port: port, Writer: txn.Writer{Set: &set}}
		err := req.Proc.Run(ctx)
		r.Compute(core.ExecCost(ctx.counts()))
		if err == txn.ErrUserAbort {
			e.st.userAborts.Inc()
			return
		}
		if err == nil && !ctx.failed && e.commitOCC(node, wi, port, &set, req) {
			return
		}
		e.st.aborted.Inc()
		// Randomised backoff avoids livelock between mutual aborters.
		r.Sleep(time.Duration(5+rng.Intn(40)) * time.Microsecond)
	}
}

// commitOCC runs the two commit rounds: lock+validate, then apply (2PC
// when synchronous replication is on, §7.1.3).
func (e *Dist) commitOCC(node, wi int, port *rpcPort, set *txn.RWSet, req *txn.Request) bool {
	// Group the footprint by participant, each one's writes in lock order.
	lvs := map[int]*lvPayload{}
	at := func(owner int) *lvPayload {
		p := lvs[owner]
		if p == nil {
			p = &lvPayload{}
			lvs[owner] = p
		}
		return p
	}
	for _, i := range set.KeyOrder() {
		w := &set.Writes[i]
		p := at(e.cfg.MasterOf(w.Part))
		p.Writes = append(p.Writes, lock.Name{Table: w.Table, Key: w.Key})
		p.Parts = append(p.Parts, int32(w.Part))
	}
	for i := range set.Reads {
		rd := &set.Reads[i]
		p := at(e.cfg.MasterOf(rd.Part))
		p.Reads = append(p.Reads, *rd)
	}

	// Round 1: lock + validate everywhere (NO_WAIT).
	reqs := map[int]*rpcReq{}
	okLocal := true
	maxTID := set.MaxReadTID()
	var localReply *lvReply
	for owner, payload := range lvs {
		if owner == node {
			localReply, okLocal = e.doLockValidate(node, payload)
			continue
		}
		reqs[owner] = &rpcReq{Kind: rpcLockValidate, From: node, Worker: wi,
			Payload: wire.Marshal(payload, lvPayloadFields)}
	}
	resps := port.callAll(e.net, node, wi, reqs)
	allOK := okLocal && len(resps) == len(reqs)
	for _, resp := range resps {
		if !resp.OK {
			allOK = false
			continue
		}
		if rep := mustDecode(wire.Unmarshal(resp.Payload, lvReplyFields)); rep.MaxWriteTID > maxTID {
			maxTID = rep.MaxWriteTID
		}
	}
	if localReply != nil && localReply.MaxWriteTID > maxTID {
		maxTID = localReply.MaxWriteTID
	}
	if !allOK {
		// Round 2 (abort): unlock whoever voted yes.
		abrt := map[int]*rpcReq{}
		for owner, payload := range lvs {
			ap := &abortPayload{Writes: payload.Writes, Parts: payload.Parts}
			if owner == node {
				if okLocal {
					e.doAbort(node, ap)
				}
				continue
			}
			if resp, ok := resps[owner]; ok && resp.OK {
				abrt[owner] = &rpcReq{Kind: rpcAbort, From: node, Worker: wi, Payload: wire.Marshal(ap, abortPayloadFields)}
			}
		}
		port.callAll(e.net, node, wi, abrt)
		return false
	}

	// Round 2 (commit): apply + replicate.
	tid := e.tidGen(node, wi).Next(e.ticker.Epoch(), maxTID)
	byOwner := e.participantEntries(set, tid)
	creqs := map[int]*rpcReq{}
	for owner, ents := range byOwner {
		payload := &commitPayload{TID: tid, Entries: ents, Sync: e.cfg.SyncRepl}
		if owner == node {
			e.commitLocal(node, wi, port, payload)
			continue
		}
		creqs[owner] = &rpcReq{Kind: rpcCommitWrites, From: node, Worker: wi, Payload: wire.Marshal(payload, commitPayloadFields)}
	}
	port.callAll(e.net, node, wi, creqs)
	e.finish(node, req)
	return true
}

// commitLocal is the coordinator applying its own portion; under
// synchronous replication it waits for its backup's ack while holding
// the locks (the worker may block; routers may not).
func (e *Dist) commitLocal(node, wi int, port *rpcPort, p *commitPayload) {
	if !p.Sync || len(p.Entries) == 0 {
		e.doCommitAsync(node, p)
		return
	}
	n := e.nodes[node]
	backup := e.cfg.BackupOf(int(p.Entries[0].Part))
	ents := e.landAll(node, p)
	if backup != node {
		n.tracker.AddSent(backup, int64(len(ents)))
		port.call(e.net, node, backup, wi, rpcCommitWrites,
			wire.Marshal(&commitPayload{TID: p.TID, Entries: ents}, commitPayloadFields))
	}
	for _, nm := range p.Release {
		e.locks[node].Unlock(nm, p.Owner)
	}
}

func (e *Dist) runS2PL(node, wi int, req *txn.Request) {
	r := e.cfg.RT
	port := e.ports[node][wi]
	owner := node*e.cfg.WorkersPerNode + wi + 1
	rng := workload.WorkerRNG(e.cfg.Seed^0x52b, node, wi)
	var set txn.RWSet
	for {
		set.Reset()
		ctx := &distCtx{
			e: e, node: node, wi: wi, port: port, Writer: txn.Writer{Set: &set},
			s2pl: true, owner: owner,
			writeMode: make(map[lock.Name]bool, 8),
			held:      make(map[int][]lock.Name, 4),
		}
		for _, a := range req.Proc.Accesses() {
			if a.Write {
				ctx.writeMode[lock.Name{Table: a.Table, Key: a.Key}] = true
			}
		}
		err := req.Proc.Run(ctx)
		r.Compute(core.ExecCost(ctx.counts()))
		if err == nil && !ctx.failed && e.commitS2PL(node, wi, port, ctx, &set, req) {
			return
		}
		// Release everything we hold, then retry or stop.
		e.abortS2PL(node, wi, port, ctx)
		if err == txn.ErrUserAbort {
			e.st.userAborts.Inc()
			return
		}
		e.st.aborted.Inc()
		r.Sleep(time.Duration(5+rng.Intn(40)) * time.Microsecond)
	}
}

func (e *Dist) abortS2PL(node, wi int, port *rpcPort, ctx *distCtx) {
	reqs := map[int]*rpcReq{}
	for owner, names := range ctx.held {
		ap := &abortPayload{Owner: ctx.owner, Release: names}
		if owner == node {
			e.doAbort(node, ap)
			continue
		}
		reqs[owner] = &rpcReq{Kind: rpcAbort, From: node, Worker: wi, Payload: wire.Marshal(ap, abortPayloadFields)}
	}
	port.callAll(e.net, node, wi, reqs)
}

func (e *Dist) commitS2PL(node, wi int, port *rpcPort, ctx *distCtx, set *txn.RWSet, req *txn.Request) bool {
	// 2PC prepare round under synchronous replication (§7.1.3: "must use
	// two-phase commit when synchronous replication is used").
	participants := map[int]bool{node: true}
	for owner := range ctx.held {
		participants[owner] = true
	}
	for i := range set.Writes {
		participants[e.cfg.MasterOf(set.Writes[i].Part)] = true
	}
	if e.cfg.SyncRepl {
		preps := map[int]*rpcReq{}
		for owner := range participants {
			if owner == node {
				continue
			}
			preps[owner] = &rpcReq{Kind: rpcPrepare, From: node, Worker: wi}
		}
		port.callAll(e.net, node, wi, preps)
	}
	tid := e.tidGen(node, wi).Next(e.ticker.Epoch(), set.MaxReadTID())
	byOwner := e.participantEntries(set, tid)
	creqs := map[int]*rpcReq{}
	for owner := range participants {
		payload := &commitPayload{
			TID: tid, Entries: byOwner[owner],
			Owner: ctx.owner, Release: ctx.held[owner], Sync: e.cfg.SyncRepl,
		}
		if len(payload.Entries) == 0 && len(payload.Release) == 0 {
			continue
		}
		if owner == node {
			if len(payload.Entries) == 0 {
				// Locks only: release directly.
				for _, nm := range payload.Release {
					e.locks[node].Unlock(nm, ctx.owner)
				}
				continue
			}
			e.commitLocal(node, wi, port, payload)
			continue
		}
		creqs[owner] = &rpcReq{Kind: rpcCommitWrites, From: node, Worker: wi,
			Payload: wire.Marshal(payload, commitPayloadFields)}
	}
	port.callAll(e.net, node, wi, creqs)
	e.finish(node, req)
	return true
}

func (e *Dist) finish(node int, req *txn.Request) {
	e.st.committed.Inc()
	if e.cfg.SyncRepl {
		e.st.latency.Observe(time.Duration(int64(e.cfg.RT.Now()) - req.GenAt))
		return
	}
	e.nodes[node].addPending(req.GenAt)
}

// tidGen returns the per-worker TID generator.
func (e *Dist) tidGen(node, wi int) *occ.TIDGen {
	return &e.tids[node*e.cfg.WorkersPerNode+wi]
}
