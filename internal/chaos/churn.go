// Membership-churn soak: the elastic-membership variant of the chaos
// harness. The cluster boots with one dark spare slot, the fault
// schedule fires on the boot members, and a join request for the spare
// arrives while those faults are still live — so the snapshot
// migration itself runs through drops, duplicates, reorders, a
// partition and a crash window, and the coordinator's refuse-while-
// failed rule actually gets exercised (the submitter just keeps
// retrying, exactly like the star-node -join loop). After heal the
// join must land, the enlarged cluster must keep committing, and a
// drain must hand the spare's partitions back with every surviving
// replica byte-identical.
package chaos

import (
	"fmt"
	"time"

	"star/internal/core"
	"star/internal/faultnet"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/workload/tpcc"
)

// RunChurnSoak drives one membership-churn soak from the seed. Slot
// o.Nodes is provisioned dark (capacity o.Nodes+1, boot members
// 0..o.Nodes-1); it is joined under fire, verified, drained back out,
// and verified again. Two runs of the same seed return identical
// Committed, Digest and Injected values.
func RunChurnSoak(seed int64, o Options) (Result, error) {
	o = o.withDefaults()
	// The plan draws its victims from the BOOT members (GeneratePlan
	// never touches ids >= o.Nodes), but the per-frame Data rules match
	// AnyNode — the joiner's snapshot transfer rides through them too.
	plan := GeneratePlan(seed, o)
	s := rt.NewSim()
	defer s.Stop()

	capacity := o.Nodes + 1
	joiner := o.Nodes
	nparts := capacity * o.Workers
	tc := tpcc.Config{
		Warehouses:           nparts,
		Districts:            2,
		CustomersPerDistrict: 64,
		Items:                256,
		CrossPctStockLevel:   10,
		CrossPctOrderStatus:  10,
	}
	tc.SetFullMix()
	tc.TrimPct = 4
	tc.TrimRetain = 8
	wl := tpcc.New(tc)

	inner := simnet.New(s, simnet.DefaultConfig(capacity+1, seed)) // + coordinator endpoint
	fn := faultnet.Wrap(s, inner, plan)
	members := make([]int, o.Nodes)
	for i := range members {
		members[i] = i
	}
	cfg := core.Config{
		RT:             s,
		Nodes:          capacity,
		FullReplicas:   1,
		WorkersPerNode: o.Workers,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		Seed:           seed,
		SnapshotReads:  true,
		Transport:      fn,
		Members:        members,
	}
	e := core.New(cfg)

	// Fault phase: same operator loop as RunSoak (rejoin each crashed
	// node as its window closes), plus the join pressure — from a quarter
	// of the way in, keep re-submitting the join until the topology
	// carries it. Most submissions are refused (members are failed, or a
	// fault window ate the snapshot transfer and the migration timed
	// out); refusal-and-retry is the protocol under test.
	const slice = 5 * time.Millisecond
	crashSeen := map[int]bool{}
	joinAsked := false
	for i := 0; s.Now() < o.Duration; i++ {
		s.Run(s.Now() + slice)
		if halted, reason := e.Halted(); halted {
			return Result{}, fmt.Errorf("seed %d: cluster halted mid-soak: %s", seed, reason)
		}
		for _, c := range plan.Crashes {
			if fn.CrashActive(c.Node) {
				crashSeen[c.Node] = true
			} else if crashSeen[c.Node] {
				crashSeen[c.Node] = false
				o.Logf("churn: seed %d: crash window on node %d closed at epoch %d, rejoining", seed, c.Node, fn.Epoch())
				e.RecoverNode(c.Node)
			}
		}
		if s.Now() >= o.Duration/4 && i%8 == 0 && !e.Topology().IsMember(joiner) {
			if !joinAsked {
				joinAsked = true
				o.Logf("churn: seed %d: submitting join of slot %d at epoch %d (faults live)", seed, joiner, fn.Epoch())
			}
			e.RequestJoin(joiner)
		}
	}
	if c := e.Stats().Committed; c == 0 {
		return Result{}, fmt.Errorf("seed %d: nothing committed under faults", seed)
	}

	// Heal and converge, with the join as an extra goalpost: every boot
	// member back, the joiner a member mastering its stripe, and all
	// replica checksums byte-identical. Virtual-time budget as in
	// RunSoak — a migration parked in a recovery gather must be outwaited.
	fn.Heal()
	o.Logf("churn: seed %d: healed at epoch %d, injected %v", seed, fn.Epoch(), fn.Injected())
	var lastErr error
	converged := false
	budget := s.Now() + 12*time.Second
	for attempt := 0; s.Now() < budget && !converged; attempt++ {
		failed := e.FailedNodes()
		for _, id := range failed {
			e.RecoverNode(id)
		}
		if !e.Topology().IsMember(joiner) {
			e.RequestJoin(joiner)
		}
		if attempt%20 == 19 {
			o.Logf("churn: seed %d: converging at epoch %d, failed=%v, member(%d)=%v, last: %v",
				seed, fn.Epoch(), failed, joiner, e.Topology().IsMember(joiner), lastErr)
		}
		s.Run(s.Now() + 30*time.Millisecond)
		if halted, reason := e.Halted(); halted {
			return Result{}, fmt.Errorf("seed %d: cluster halted post-heal: %s", seed, reason)
		}
		e.Freeze()
		s.Run(s.Now() + 30*time.Millisecond)
		lastErr = e.CheckReplicaConsistency()
		if lastErr == nil && len(e.FailedNodes()) == 0 && e.Topology().IsMember(joiner) {
			converged = true
			break
		}
		e.Unfreeze()
	}
	if !converged {
		if lastErr == nil {
			lastErr = fmt.Errorf("failed=%v, joiner member=%v", e.FailedNodes(), e.Topology().IsMember(joiner))
		}
		return Result{}, fmt.Errorf("seed %d: no convergence after heal: %w", seed, lastErr)
	}
	topo := e.Topology()
	if got := topo.MasterOf(joiner * o.Workers); got != joiner {
		return Result{}, fmt.Errorf("seed %d: joined topology v%d does not master partition %d on slot %d (got %d)",
			seed, topo.Version, joiner*o.Workers, joiner, got)
	}
	o.Logf("churn: seed %d: slot %d joined, topology v%d", seed, joiner, topo.Version)

	// The enlarged cluster must do real work: commits have to keep
	// flowing across the new topology version before we shrink it again.
	preDrain := e.Stats().Committed
	e.Unfreeze()
	s.Run(s.Now() + 50*time.Millisecond)
	if c := e.Stats().Committed; c <= preDrain {
		return Result{}, fmt.Errorf("seed %d: no commits on the joined topology (stuck at %d)", seed, preDrain)
	}

	// Drain the joiner back out: its partitions migrate to the survivors
	// at a fence, the topology drops it, and the engine's drain signal
	// (what a star-node process exits on) must fire for exactly that slot.
	e.RequestDrain(joiner)
	budget = s.Now() + 12*time.Second
	for s.Now() < budget && e.Topology().IsMember(joiner) {
		s.Run(s.Now() + 30*time.Millisecond)
		if halted, reason := e.Halted(); halted {
			return Result{}, fmt.Errorf("seed %d: cluster halted during drain: %s", seed, reason)
		}
	}
	if e.Topology().IsMember(joiner) {
		return Result{}, fmt.Errorf("seed %d: drain of slot %d never installed", seed, joiner)
	}
	gotDrain := -1
	for s.Now() < budget && gotDrain < 0 {
		select {
		case id := <-e.Drained():
			gotDrain = id
		default:
			s.Run(s.Now() + 5*time.Millisecond)
		}
	}
	if gotDrain != joiner {
		return Result{}, fmt.Errorf("seed %d: drain installed but Drained() signalled %d, want %d", seed, gotDrain, joiner)
	}

	// Final verification on the shrunk cluster.
	converged = false
	budget = s.Now() + 12*time.Second
	for s.Now() < budget && !converged {
		s.Run(s.Now() + 30*time.Millisecond)
		e.Freeze()
		s.Run(s.Now() + 30*time.Millisecond)
		lastErr = e.CheckReplicaConsistency()
		if lastErr == nil && len(e.FailedNodes()) == 0 {
			converged = true
			break
		}
		e.Unfreeze()
	}
	if !converged {
		return Result{}, fmt.Errorf("seed %d: no convergence after drain: %w", seed, lastErr)
	}
	o.Logf("churn: seed %d: slot %d drained, topology v%d", seed, joiner, e.Topology().Version)

	digest := uint64(1469598103934665603)
	for p := 0; p < cfg.NumPartitions(); p++ {
		digest ^= dbChecksum(e, p)
		digest *= 1099511628211
	}
	st := e.Stats()
	return Result{
		Committed: st.Committed,
		Digest:    digest,
		Epoch:     fn.Epoch(),
		Injected:  fn.Injected(),
	}, nil
}
