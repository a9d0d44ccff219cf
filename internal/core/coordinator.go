package core

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/transport"
)

// coordinator drives the phase-switching algorithm (§4.3, Fig 5): start
// a phase, wait it out, run the replication fence, commit the epoch,
// recompute τp/τs from the monitored throughputs, repeat. It also serves
// as the view service for failure detection (§4.5.2): every membership
// event — a failure, a rejoin, a join, a drain — is a new View computed
// from the current one, stored here and (install) sent to the nodes.
type coordinator struct {
	e *Engine
	// view is written by the coordinator alone; Engine.Topology and
	// FailedNodes read it from other goroutines.
	view  atomic.Pointer[View]
	epoch uint64
	phase Phase

	// Monitored quantities (EWMA).
	tp, ts, pEst float64

	// minGrace floors the failure-detection grace per gather: tight on
	// the simulated runtime (virtual time is deterministic), generous on
	// the real one (an OS process can lose tens of milliseconds to GC or
	// scheduling without being dead). graceBoost is a one-shot extension
	// consumed by the phase right after a rejoin: the rejoined process
	// has just applied a full snapshot catch-up and may need a moment.
	minGrace   time.Duration
	graceBoost time.Duration

	// recoveryGrace bounds the wait for a rejoining node's snapshot
	// catch-up. Like minGrace it is runtime-dependent: generous on the
	// real runtime (bandwidth-paced transfer of a real database), tight
	// on the simulated one — virtual seconds are cheap to model but cost
	// real event-loop work, and a rejoin wedged by an injected fault
	// should release the coordinator quickly so the rejoin can be
	// re-requested.
	recoveryGrace time.Duration

	// lat is the one-way message latency the phase budget's propagation
	// allowance, the post-revert settle time and the workers' fence-tail
	// flush window are sized from. A transport that knows its latency
	// (latencyReporter: the simulated network) is asked once; on any
	// other it is estimated from the control rounds the coordinator
	// itself measures every phase (see noteRound).
	lat time.Duration

	// ackRetried marks that the current epoch's fence already failed
	// once and was reverted for retry (see the ack-gather failure path).
	ackRetried bool

	// pendingAdmin is the one intake of membership changes: every
	// AdminReq reaches the coordinator as a message in its inbox — from a
	// front door, or Engine.RequestJoin and friends in any process — and
	// gather parks it here for the next committed fence.
	pendingAdmin []AdminReq

	// script, when set (StartScripted), bounds the run's phases by
	// generator-step counts instead of durations: see runScript.
	script *ScriptRun

	// Per-iteration accumulators.
	iterCommitP, iterCommitS int64
	iterGenSingle, iterGenX  int64

	// tauP and tauS are the tuned phase slices; setTaus publishes them to
	// the registry, where Engine.Stats and star-admin top read them.
	tauP, tauS time.Duration
	// backlog is the cluster's master-queue depth at the last phase
	// report. Client sessions submit out of band of the workload
	// generators, so a purely single-partition generated load tunes τs
	// to zero while forwarded client writes pile up at the master; a
	// non-zero backlog forces a drain slice regardless of the tuning.
	backlog int64
}

// latencyReporter is a transport whose one-way latency is configured,
// not observed (simnet.Network).
type latencyReporter interface{ Latency() time.Duration }

func newCoordinator(e *Engine, v *View) *coordinator {
	c := &coordinator{
		e:     e,
		epoch: 2, // epoch 1 is the initial load
		phase: Partitioned,
		lat:   simnet.DefaultLatency,
	}
	c.view.Store(v)
	c.setTaus(e.cfg.Iteration/2, e.cfg.Iteration/2)
	if lr, ok := e.net.(latencyReporter); ok {
		c.lat = lr.Latency()
	}
	c.minGrace = 20 * time.Millisecond
	c.recoveryGrace = 2 * time.Second
	if _, isSim := e.cfg.RT.(*rt.Sim); !isSim {
		c.minGrace = 250 * time.Millisecond
		c.recoveryGrace = 30 * time.Second
	}
	return c
}

func (c *coordinator) id() int { return c.e.cfg.coordID() }

func (c *coordinator) broadcast(m transport.Message) {
	for _, i := range c.view.Load().up {
		c.e.net.Send(c.id(), i, transport.Control, m)
	}
}

func (c *coordinator) curTau(phase Phase) time.Duration {
	if phase == SingleMaster {
		if c.tauS <= 0 && c.backlog > 0 {
			// Backlog-forced drain slice: τs is tuned to zero (no
			// cross-partition work in the generated load), but forwarded
			// client requests are waiting at the master.
			return c.e.cfg.Iteration / 50
		}
		return c.tauS
	}
	return c.tauP
}

// setTaus installs the tuned slices and publishes them as the registry's
// tau_p_us and tau_s_us gauges, split so that the two sum to the
// iteration in µs.
func (c *coordinator) setTaus(tauP, tauS time.Duration) {
	c.tauP, c.tauS = tauP, tauS
	s := tauS.Microseconds()
	c.e.reg.Gauge("tau_s_us").Set(s)
	c.e.reg.Gauge("tau_p_us").Set((tauP + tauS).Microseconds() - s)
}

func (c *coordinator) loop() {
	r := c.e.cfg.RT
	if c.script != nil {
		c.runScript()
		return
	}
	for {
		if c.e.halted.Load() {
			r.Sleep(10 * time.Millisecond)
			continue
		}
		tau := c.curTau(c.phase)
		if tau <= 0 {
			c.advancePhase()
			continue
		}
		c.runPhase(tau)
	}
}

// runPhase executes one phase plus its replication fence.
func (c *coordinator) runPhase(tau time.Duration) {
	r := c.e.cfg.RT
	view := c.view.Load()
	budget := 2*c.lat + tau // command propagation allowance + the slice
	start := r.Now()
	// The phase end crosses process boundaries as a BUDGET relative to
	// the command's receipt, not an absolute timestamp: each process's
	// runtime has its own clock origin (a restarted node's clock starts
	// near zero), so an absolute coordinator-clock deadline would make a
	// rejoined process sleep out the clock skew and miss every phase.
	// Each node's ROUTER localises it on receipt (node.startPhase).
	cmd := msgStartPhase{
		Phase:    c.phase,
		Epoch:    c.epoch,
		Deadline: budget,
		Failed:   view.failed,
		Lat:      c.lat,
	}
	grace := 10*tau + c.minGrace + c.graceBoost
	c.graceBoost = 0
	if c.script != nil {
		// Count-bounded: the workers stop at a generator-step count (the
		// master at exactly what the partitioned phase deferred), never at
		// the deadline, and a gather waits as long as real execution takes.
		cmd.Deadline, cmd.ScriptTxns, cmd.ScriptDeferred = scriptDeadline, c.script.txns, c.iterGenX
		grace = scriptTimeout
	}
	c.broadcast(cmd)

	// Every node reports twice per epoch: its phase end (sent vector and
	// monitors) and its completed fence drain. The nodes drain on their
	// own — each peer's end-of-epoch marker tells them what to wait for —
	// so a fast node's ack can overtake a slow node's phase report; both
	// gathers collect both kinds.
	done := map[int]msgPhaseDone{}
	acks := map[int]bool{}
	collect := func(m any) {
		switch v := m.(type) {
		case msgPhaseDone:
			if v.Epoch == c.epoch && view.Up(v.Node) {
				done[v.Node] = v
			}
		case msgFenceAck:
			if v.Epoch == c.epoch && view.Up(v.Node) {
				acks[v.Node] = true
			}
		}
	}
	if !c.gather(budget+grace, func(m any) bool {
		collect(m)
		return len(done) == len(view.up)
	}) {
		if c.abortScript("phase report", missing(done, view.up)) {
			return
		}
		// A failure detected at the phase gather is properly attributed:
		// renew the fence's one-shot retry budget (a prior fence stall
		// may have consumed it to funnel detection here).
		c.ackRetried = false
		c.onFailure(missing(done, view.up))
		return
	}
	fenceStart := r.Now()
	if c.script != nil {
		tau = fenceStart - start // a count-bounded phase's slice is what it took
	} else {
		c.noteRound(fenceStart - start - budget)
	}

	// Replication fence (§4.3): wait until every node has drained what
	// the others sent.
	if !c.gather(grace, func(m any) bool {
		collect(m)
		return len(acks) == len(view.up)
	}) {
		if c.abortScript("fence ack", missing(acks, view.up)) {
			return
		}
		if !c.ackRetried {
			// A fence that cannot drain usually means a peer died AFTER
			// its phase report: its counted-but-in-flight entries are
			// gone, and every survivor waiting for them misses the ack
			// too — failing the non-ackers here would blame the stuck
			// (alive) nodes and can even halt the cluster as "no full
			// replica left". Revert and retry the epoch once instead:
			// the revert aborts the survivors' drains, and a genuinely
			// dead node then misses the next PHASE gather, which
			// attributes the failure to the right node.
			c.ackRetried = true
			c.revertAndRetryEpoch()
			return
		}
		c.ackRetried = false
		c.onFailure(missing(acks, view.up))
		return
	}
	c.ackRetried = false
	// Epoch committed. Account monitors, change membership, next phase.
	fenceDur := r.Now() - fenceStart
	c.backlog = 0
	for _, pd := range done {
		c.backlog += pd.Queued
	}
	c.accountPhase(done, tau)
	c.noteEpoch(done, tau, fenceStart-start-tau, fenceDur)
	c.processAdmin(done)
	c.epoch++
	c.advancePhase()
}

// noteRound folds one measured control round — phase command out to
// last phase report in, minus the budget the nodes were told to run —
// into the latency estimate. Only a transport that reports no latency
// of its own is measured: the simulated network's is configured, and its
// runs are pinned bit for bit. The rounds are propagation plus whatever
// scheduling and collector noise the hops met, and the noise is
// one-sided with a tail several times the median, so the average is
// asymmetric: a shorter round pulls the estimate down at once, a longer
// one (clipped at twice the estimate) raises it slowly. It settles near
// the floor of the distribution, which is the propagation.
func (c *coordinator) noteRound(round time.Duration) {
	if _, told := c.e.net.(latencyReporter); told {
		return
	}
	sample := round / 2
	if sample < c.lat {
		c.lat += (sample - c.lat) / 2
	} else {
		if sample > 2*c.lat {
			sample = 2 * c.lat
		}
		c.lat += (sample - c.lat) / 64
	}
	if lo := 10 * time.Microsecond; c.lat < lo {
		c.lat = lo
	}
}

// gather pumps the coordinator inbox until pred is satisfied or the
// timeout expires. Membership envelopes that arrive mid-gather are
// parked for the next committed fence; everything else non-matching is
// discarded.
func (c *coordinator) gather(timeout time.Duration, take func(any) bool) bool {
	r := c.e.cfg.RT
	in := c.e.net.Inbox(c.id())
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
		if req, isAdmin := m.(AdminReq); isAdmin {
			c.pendingAdmin = append(c.pendingAdmin, req)
			continue
		}
		if take(m) {
			return true
		}
	}
}

// missing lists the alive nodes with no entry in got (a phase report, or
// a fence ack — acks are only ever recorded as true).
func missing[V any](got map[int]V, up []int) []int {
	var out []int
	for _, i := range up {
		if _, ok := got[i]; !ok {
			out = append(out, i)
		}
	}
	return out
}

// accountPhase folds the nodes' monitors into the EWMA throughput
// estimates and, after a full iteration, recomputes τp and τs from
// equations (1) and (2).
func (c *coordinator) accountPhase(done map[int]msgPhaseDone, tau time.Duration) {
	var committed, genS, genX int64
	for _, pd := range done {
		committed += pd.Committed
		genS += pd.GenSingle
		genX += pd.GenCross
	}
	rate := float64(committed) / tau.Seconds()
	const alpha = 0.5
	if c.phase == Partitioned {
		c.iterCommitP = committed
		c.iterGenSingle = genS
		c.iterGenX = genX
		if c.tp == 0 {
			c.tp = rate
		} else {
			c.tp = alpha*rate + (1-alpha)*c.tp
		}
		return
	}
	c.iterCommitS = committed
	if c.ts == 0 {
		c.ts = rate
	} else {
		c.ts = alpha*rate + (1-alpha)*c.ts
	}
	c.retune()
}

// retune solves equations (1)–(2) of §4.3:
//
//	τp + τs = e
//	τs·ts / (τp·tp + τs·ts) = P
//
// giving τs = e·P·tp / ((1−P)·ts + P·tp).
func (c *coordinator) retune() {
	gen := float64(c.iterGenSingle + c.iterGenX)
	if gen > 0 {
		p := float64(c.iterGenX) / gen
		c.pEst = 0.7*p + 0.3*c.pEst
	}
	e := c.e.cfg.Iteration
	minSlice := e / 50 // probe slice so P keeps being measured
	p := c.pEst
	tp, ts := c.tp, c.ts
	if ts == 0 {
		ts = tp
	}
	switch {
	case c.iterGenX == 0:
		// No cross-partition work observed: τp = e, τs = 0 (§4.3).
		c.setTaus(e, 0)
	case c.iterGenSingle == 0:
		// Pure cross-partition workload: behave like a non-partitioned
		// system, keeping a small partitioned probe slice.
		c.setTaus(minSlice, e-minSlice)
	default:
		tauS := time.Duration(float64(e) * p * tp / ((1-p)*ts + p*tp))
		if tauS < minSlice {
			tauS = minSlice
		}
		if tauS > e-minSlice {
			tauS = e - minSlice
		}
		c.setTaus(e-tauS, tauS)
	}
}

func (c *coordinator) advancePhase() {
	if c.phase == Partitioned {
		if (c.tauS > 0 || c.backlog > 0) && c.view.Load().master >= 0 {
			c.phase = SingleMaster
		}
		return // else a degenerate tuning (P=0): the partitioned phase repeats
	}
	c.phase = Partitioned
	if c.tauP == 0 {
		c.phase = SingleMaster // P=1: the single-master phase repeats
	}
}

// revertAndRetryEpoch aborts the in-flight epoch under the view as it
// stands: every (believed-)alive node reverts — which also aborts any
// fence drain stuck waiting on a dead peer's vanished entries — and the
// epoch restarts from the partitioned phase.
func (c *coordinator) revertAndRetryEpoch() {
	c.broadcast(msgRevert{Epoch: c.epoch, Failed: c.view.Load().failed})
	// Give the revert time to land before restarting the epoch.
	c.e.cfg.RT.Sleep(4 * c.lat)
	c.phase = Partitioned
}

// halt stops the phase-switching loop for good; Engine.Halted reports why.
func (c *coordinator) halt(reason string) {
	c.e.haltReason.Store(reason)
	c.e.halted.Store(true)
}

// onFailure is the §4.5 path: the view with the silent nodes failed
// re-masters their partitions by construction; revert the in-flight
// epoch everywhere under it and carry on (or halt if no complete replica
// remains — case 4).
func (c *coordinator) onFailure(missing []int) {
	if len(missing) == 0 {
		return
	}
	v := c.view.Load().Fail(missing...)
	c.view.Store(v)
	lost := 0
	for _, m := range v.masters {
		if m < 0 {
			lost++
		}
	}
	if lost > 0 {
		c.halt(fmt.Sprintf("case 4: %d partitions lost every replica; recover from checkpoints + logs", lost))
		return
	}
	if v.master < 0 {
		// Case 2: no full replicas remain. The paper falls back to a
		// distributed concurrency-control mode; this engine halts the
		// phase-switching loop and reports the condition (the Dist. OCC
		// engine provides that execution mode).
		c.halt("case 2: no full replica alive; distributed CC fallback required")
		return
	}
	c.revertAndRetryEpoch()
}

// admit is the one admission routine (§4.5.3): at a quiesced fence it
// brings slot id up to the cluster's state under next — a failed member
// answering again under the installed layout (next = old.Alive(id)), or
// a dark or drained slot joining the layout that admits it. Links up,
// whatever the slot held is discarded, it copies every partition next
// assigns it from healthy holders, and the replication counters are
// aligned both ways. Quiesced is what makes the copy safe under operation
// replication: every delta is applied and no phase runs until this
// returns, so none races the snapshot it would have to apply onto. On
// timeout the links go down again and the caller's tail (install next) is
// skipped, so the request can simply be repeated.
func (c *coordinator) admit(id int, old, next *View, done map[int]msgPhaseDone) error {
	c.e.net.SetDown(id, false)
	// Epoch 0 is the wildcard revert: a crashed member may have kept
	// committing an epoch the cluster reverted and re-executed, and a slot
	// that was a member before may carry the same — uncommitted writes
	// whose TIDs the Thomas write rule would protect against the snapshot
	// catch-up forever. Discarding them restores the slot to its last
	// group-committed state, which the snapshot then tops up.
	c.e.net.Send(c.id(), id, transport.Control, msgRevert{Epoch: 0, Failed: old.failed})
	sent, err := c.migrate(old, next, []int{id})
	if err != nil {
		c.e.net.SetDown(id, true)
		return err
	}
	// The slot's applied counters jump to the cluster's cumulative sent
	// counts as of this fence (its snapshot subsumes them).
	applied := make([]int64, c.e.cfg.Nodes)
	for src, pd := range done {
		applied[src] = pd.Sent[id]
	}
	c.e.net.Send(c.id(), id, transport.Control, msgResetCounters{Applied: applied})
	// Reverse alignment: entries the slot counted as sent but the network
	// dropped at the crash (or a restart zeroed) can never be applied, so
	// every survivor adopts the slot's own cumulative count as its
	// applied-from-id baseline — otherwise the first fence after admission
	// waits on phantom entries forever.
	for _, s := range old.up {
		if s != id && s < len(sent[id]) {
			c.e.net.Send(c.id(), s, transport.Control, msgAlignCounters{Src: id, Applied: sent[id][s]})
		}
	}
	return nil
}

// ---- elastic membership (admin envelope) ----

// processAdmin runs the parked membership changes at a committed,
// quiesced fence: replication has fully drained, so partition state can
// move between members with no counter deltas in flight. One change is
// processed at a time; each installs its view before the next starts.
func (c *coordinator) processAdmin(done map[int]msgPhaseDone) {
	reqs := c.pendingAdmin
	c.pendingAdmin = nil
	for _, req := range reqs {
		c.processOneAdmin(req, done)
	}
}

// processOneAdmin computes the view a membership change asks for, moves
// the state it needs — a join admits the slot, a failed member under the
// installed layout or a dark (or previously drained) one under the next,
// which also streams every other gaining member its share; a drain or
// rebalance migrates gained partitions only — and installs it. The
// drained node's own msgTopology install signals Engine.Drained so its
// process can exit cleanly.
func (c *coordinator) processOneAdmin(req AdminReq, done map[int]msgPhaseDone) {
	fail := func(why string) { c.replyAdmin(req, AdminResp{Err: why}) }
	v := c.view.Load()
	id := req.Node
	switch {
	case req.V > AdminProtoVersion:
		fail("admin protocol version unsupported")
		return
	case c.e.halted.Load():
		fail("cluster halted")
		return
	case len(v.failed) > 0 && !(req.Op == AdminJoin && v.IsMember(id)):
		// A change of layout and failure recovery do not compose: a
		// failed member cannot ack the new version or donate state. Only
		// the recovery itself — the join of a member — goes ahead; the
		// rest is refused and the submitter retries after the cluster heals.
		fail(req.Op.String() + ": cluster has failed members; retry after recovery")
		return
	}
	var next *View
	var err error
	switch req.Op {
	case AdminJoin:
		switch {
		case id < 0 || id >= c.e.cfg.Nodes:
			err = errors.New("slot out of range")
		case v.Up(id):
			c.replyAdmin(req, c.e.topologyResp(v.Topology)) // idempotent
			return
		case v.IsMember(id):
			next = v.Alive(id) // a crash rejoin: the same layout, one failure fewer
			err = c.admit(id, v, next, done)
		default:
			next = newView(v.Joined(id), nil)
			err = c.admit(id, v, next, done)
		}
	case AdminDrain:
		if !v.IsMember(id) {
			err = errors.New("not a member")
			break
		}
		t := v.Drained(id)
		if err = t.Validate(); err == nil {
			next = newView(t, nil)
			_, err = c.migrate(v, next, nil)
		}
	case AdminRebalance:
		next = newView(v.Rebalanced(), nil)
		_, err = c.migrate(v, next, nil)
	default:
		fail("op not served by the coordinator")
		return
	}
	if err != nil {
		fail(req.Op.String() + ": " + err.Error())
		return
	}
	c.install(v, next)
	c.replyAdmin(req, c.e.topologyResp(next.Topology))
}

// migrate moves partition state so every member of next holds what the
// new layout assigns it: each gaining member streams its gained
// partitions from a holder under the OLD layout (the standard snapshot
// catch-up path, Thomas write rule plus removal sweep). A forced id's
// current state is untrusted — it crashed, or was a member once — so it
// streams EVERY partition next assigns it, and reports recovery-done
// even when that is nothing (its Sent vector is needed for counter
// alignment). On timeout the topology is NOT installed; provisionally
// materialised partitions on gaining members are invisible (checksum
// serving and replication targets follow the installed topology) and a
// later retry converges them idempotently.
func (c *coordinator) migrate(old, next *View, force []int) (map[int][]int64, error) {
	want := map[int]bool{} // members that must report recovery-done
	for _, id := range force {
		want[id] = true
	}
	for i := 0; i < next.Capacity; i++ {
		var x msgStartRecovery
		for p := 0; p < next.Partitions; p++ {
			if !next.Holds(i, p) || (old.Holds(i, p) && !want[i]) {
				continue
			}
			if h := old.Donor(p); h != -1 && h != i {
				x.Parts = append(x.Parts, int32(p))
				x.From = append(x.From, int32(h))
			}
		}
		if want[i] || len(x.Parts) > 0 {
			want[i] = true
			c.e.net.Send(c.id(), i, transport.Control, x)
		}
	}
	sent := map[int][]int64{}
	// Snapshot transfer is bandwidth-paced; recoveryGrace allows for it.
	ok := c.gather(c.recoveryGrace, func(m any) bool {
		if rd, isRD := m.(msgRecoveryDone); isRD && want[rd.Node] {
			sent[rd.Node] = rd.Sent
		}
		return len(sent) == len(want)
	})
	if !ok {
		return sent, fmt.Errorf("partition migration incomplete: %d/%d members caught up", len(sent), len(want))
	}
	return sent, nil
}

// install is the one way the view changes outside a failure: the
// coordinator goes by next from here on, and every old-or-new member is
// sent its layout to install (residency, and the view the node derives
// from it). The failed set does not travel here — the next phase command
// carries it, as every phase command does.
func (c *coordinator) install(old, next *View) {
	c.view.Store(next)
	m := msgTopology{
		Version:   next.Version,
		Masters:   append([]int32(nil), next.Masters...),
		Secondary: append([]int32(nil), next.Secondary...),
	}
	for _, id := range next.Members() {
		m.Members = append(m.Members, int32(id))
	}
	// A just-drained node installs too: that is what flips it out of the
	// member set locally and signals Engine.Drained.
	for i := 0; i < next.Capacity; i++ {
		if old.IsMember(i) || next.IsMember(i) {
			c.e.net.Send(c.id(), i, transport.Control, m)
		}
	}
	c.graceBoost = time.Second // lenient first phase under the new view
}

// replyAdmin answers a membership envelope's submitter. A request with
// no ticket (Engine.RequestJoin and friends) has nobody waiting.
func (c *coordinator) replyAdmin(req AdminReq, resp AdminResp) {
	if req.Ticket == 0 {
		return
	}
	resp.V, resp.Op, resp.Ticket, resp.Node = AdminProtoVersion, req.Op, req.Ticket, req.Node
	to := req.From
	if to < 0 || to > c.e.cfg.Nodes {
		return // corrupt origin: nowhere safe to answer
	}
	c.e.net.Send(c.id(), to, transport.Control, resp)
}
