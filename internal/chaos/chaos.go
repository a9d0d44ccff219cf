// Package chaos is the seeded fault-schedule soak harness: it generates
// randomized-but-deterministic faultnet plans, drives a full-mix TPC-C
// cluster through them on the simulated runtime, and asserts the
// invariants the codebase already knows how to check — the cluster
// never halts on survivable faults, commits keep flowing, a
// read-your-own-writes session probe is never served a snapshot older
// than its token, and after the faults heal every replica converges to
// byte-identical partition+index checksums.
//
// Everything is a pure function of the seed: the workload, the fault
// plan, and the simulated runtime are all seeded, so a failing seed
// replays bit-identically (see TestChaosSoakDeterministicReplay, which
// pins that two runs of the same seed produce the same committed count
// and the same database digest). Reproduce a CI failure with:
//
//	go test ./internal/chaos -run TestChaosSoak -v -args -chaos.seed=<seed>
//
// The multi-process variant of the same idea drives `star-node -faults
// plan.json` over real TCP; see cmd/star-node's chaos test.
package chaos

import (
	"fmt"
	"io"
	"math/rand"
	"time"

	"star/internal/core"
	"star/internal/faultnet"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/workload/tpcc"
)

// Options scales a soak. The zero value selects the defaults.
type Options struct {
	Nodes    int           // cluster size f+k (default 4; FullReplicas is 1)
	Workers  int           // workers (= owned partitions) per node (default 2)
	Duration time.Duration // virtual time under faults before Heal (default 400ms)

	// Fault families to include in the generated plan. NoX naming keeps
	// the zero Options meaning "everything on" — the interesting soak.
	NoDrops, NoDups, NoReorders, NoPartition, NoCrash bool

	// Trace, when set, receives the coordinator's per-epoch timeline
	// (JSONL, core.TraceEvent) — the soak's flight recorder: which epochs
	// ran which phase, what committed where, and which fault counters
	// were climbing when a seed went sideways.
	Trace io.Writer

	// Logf, when set, receives progress lines (tests pass t.Logf).
	Logf func(format string, args ...any)
}

func (o Options) withDefaults() Options {
	if o.Nodes == 0 {
		o.Nodes = 4
	}
	if o.Workers == 0 {
		o.Workers = 2
	}
	if o.Duration == 0 {
		o.Duration = 400 * time.Millisecond
	}
	if o.Logf == nil {
		o.Logf = func(string, ...any) {}
	}
	return o
}

// GeneratePlan derives one fault schedule from the seed: per-frame
// drop/dup/reorder rules on the Data class (request forwards and
// snapshot transfer — the plane designed to tolerate lossy, at-least-
// once delivery), one asymmetric partition between two partial
// replicas, and one crash/heal window on a partial replica — all keyed
// to bounded epoch windows, so the plan is self-terminating even
// without an explicit Heal.
//
// Per-frame probability faults are deliberately NOT generated for the
// Control and Replication classes: those streams ride per-link
// reliable FIFO order (a TCP stream delivers in order or the whole
// link dies — it never silently drops an interior frame), and the
// replication fence counts cumulative entries against that guarantee.
// Whole-link failures are the real-world failure mode for them, and
// the partition and crash windows sever Control and Replication
// wholesale — that is the failure-detection/eviction/rejoin path under
// test. Node 0 (the sole full replica) is never crashed or partitioned
// away: losing the last full copy is a designed halt (§4.5 case 2),
// not a survivable fault.
func GeneratePlan(seed int64, o Options) faultnet.Plan {
	o = o.withDefaults()
	rng := rand.New(rand.NewSource(seed))
	p := faultnet.Plan{Seed: seed}
	// Epochs start at 2; Iteration is ~2ms virtual, so windows in the
	// [4, 40) range land well inside the default 400ms soak.
	ruleWin := faultnet.Window{FromEpoch: 4, UntilEpoch: 4 + 16 + uint64(rng.Intn(16))}
	// One combined rule: faultnet resolves the first matching rule with a
	// single uniform draw across drop/dup/reorder, so the three families
	// must share a Rule (three stacked rules would let the first shadow
	// the rest).
	ru := faultnet.Rule{
		Src: faultnet.AnyNode, Dst: faultnet.AnyNode, Class: int(transport.Data),
		Window: ruleWin,
	}
	if !o.NoDrops {
		ru.Drop = 0.01 + 0.03*rng.Float64()
	}
	if !o.NoDups {
		ru.Dup = 0.02 + 0.04*rng.Float64()
	}
	if !o.NoReorders {
		ru.Reorder = 0.03 + 0.05*rng.Float64()
		ru.ReorderSpan = 2 + rng.Intn(4)
	}
	if ru.Drop+ru.Dup+ru.Reorder > 0 {
		p.Rules = append(p.Rules, ru)
	}
	partials := o.Nodes - 1 // nodes 1..Nodes-1 (node 0 is the full replica)
	var partDst int
	if !o.NoPartition && partials >= 2 {
		// Asymmetric inbound partition: everyone can hear dst, dst hears
		// no one. A single partial→partial link carries too little Data
		// traffic in-process to guarantee drops; deafening one node hits
		// control frames every epoch, forces the failure detector to
		// evict it mid-soak, and exercises the rejoin path after heal.
		partDst = 1 + rng.Intn(partials)
		from := 6 + uint64(rng.Intn(4))
		p.Partitions = append(p.Partitions, faultnet.PartitionSpec{
			Src: faultnet.AnyNode, Dst: partDst,
			Window: faultnet.Window{FromEpoch: from, UntilEpoch: from + 4 + uint64(rng.Intn(4))},
		})
	}
	if !o.NoCrash && partials >= 1 {
		victim := 1 + rng.Intn(partials)
		if victim == partDst && partials >= 2 {
			// Keep the crash victim distinct from the partitioned node so
			// both fault families draw real traffic (a node already
			// evicted by the partition attracts none to blackhole).
			victim = 1 + victim%partials
		}
		from := 10 + uint64(rng.Intn(6))
		p.Crashes = append(p.Crashes, faultnet.CrashSpec{
			Node:   victim,
			Window: faultnet.Window{FromEpoch: from, UntilEpoch: from + 4 + uint64(rng.Intn(4))},
		})
	}
	return p
}

// Result is what one soak run produced. Two runs of the same seed must
// return identical Committed, Digest and Injected values.
type Result struct {
	Committed int64            // cluster-wide committed transactions
	Digest    uint64           // folded partition+index checksums, post-convergence
	Epoch     uint64           // last cluster epoch observed on the wire
	Injected  map[string]int64 // per-fault-type injection counters

	// Read-your-own-writes probe accounting: reads served from fence
	// snapshots vs refused for freshness (the refusals prove replica lag
	// actually exercised the token check during the soak).
	ProbeServed    int64
	ProbeFallbacks int64
}

// probeRead is the session probe's transaction: one warehouse-row read,
// scoped to a partition its target node masters (so a refusal is always
// the freshness check, never partition residency).
type probeRead struct {
	part int
	accs []txn.Access
}

func newProbeRead(part int) *probeRead {
	p := &probeRead{part: part}
	p.accs = []txn.Access{{Table: tpcc.TWarehouse, Part: part, Key: tpcc.WKey(part)}}
	return p
}

func (p *probeRead) Name() string           { return "chaos.probe-read" }
func (p *probeRead) Accesses() []txn.Access { return p.accs }
func (p *probeRead) ReadOnly() bool         { return true }
func (p *probeRead) Run(ctx txn.Ctx) error {
	if _, ok := ctx.Read(tpcc.TWarehouse, p.part, tpcc.WKey(p.part)); !ok {
		return txn.ErrConflict
	}
	return nil
}

// RunSoak drives one full-mix TPC-C chaos soak from the seed: generate
// the plan, run Duration of virtual time under faults (rejoining
// crashed nodes as their windows close), heal, converge, verify. The
// returned error is the verdict — nil means every invariant held.
func RunSoak(seed int64, o Options) (Result, error) { return runSoak(seed, o, false) }

// RunChurnSoak is the elastic-membership variant: the cluster boots with
// one dark spare slot (capacity o.Nodes+1, boot members 0..o.Nodes-1),
// the fault schedule fires on the boot members, and a join request for
// the spare arrives while those faults are still live — so the snapshot
// migration itself runs through drops, duplicates, reorders, a partition
// and a crash window, and the coordinator's refuse-while-failed rule
// actually gets exercised (the submitter keeps retrying, exactly like the
// star-node -join loop). After heal the join must land, the enlarged
// cluster must keep committing, and a drain must hand the spare's
// partitions back with every surviving replica byte-identical. Two runs
// of the same seed return identical Committed, Digest and Injected
// values.
func RunChurnSoak(seed int64, o Options) (Result, error) { return runSoak(seed, o, true) }

// runSoak is both soaks' one operator loop; spare adds the dark slot, its
// join stage in the fault and heal loops, and the drain after
// convergence.
func runSoak(seed int64, o Options, spare bool) (Result, error) {
	o = o.withDefaults()
	// The plan draws its victims from the BOOT members (GeneratePlan
	// never touches ids >= o.Nodes), but the per-frame Data rules match
	// AnyNode — a joiner's snapshot transfer rides through them too.
	plan := GeneratePlan(seed, o)
	s := rt.NewSim()
	defer s.Stop()

	name, capacity, joiner := "chaos", o.Nodes, o.Nodes
	if spare {
		name, capacity = "churn", o.Nodes+1
	}
	tc := tpcc.Config{
		Warehouses:           capacity * o.Workers,
		Districts:            2,
		CustomersPerDistrict: 64,
		Items:                256,
		CrossPctStockLevel:   10,
		CrossPctOrderStatus:  10,
	}
	tc.SetFullMix()
	// Deletes under fire: Delivery reclaims NEW-ORDER rows and trimmer
	// batches ride in the mix, so every fault plan also has to carry
	// tombstones and trim cursors byte-identically through heal+converge.
	tc.TrimPct = 4
	tc.TrimRetain = 8

	inner := simnet.New(s, simnet.DefaultConfig(capacity+1, seed)) // + coordinator endpoint
	fn := faultnet.Wrap(s, inner, plan)
	cfg := core.Config{
		RT:             s,
		Nodes:          capacity,
		FullReplicas:   1,
		WorkersPerNode: o.Workers,
		Workload:       tpcc.New(tc),
		Iteration:      2 * time.Millisecond,
		Seed:           seed,
		SnapshotReads:  true,
		Transport:      fn,
		Trace:          o.Trace,
	}
	if spare {
		for i := 0; i < o.Nodes; i++ {
			cfg.Members = append(cfg.Members, i)
		}
	}
	e := core.New(cfg)
	joined := func() bool { return spare && e.Topology().IsMember(joiner) }

	// The read-your-own-writes probe (off with the spare slot): a
	// synthetic session whose token is the last group-committed epoch
	// seen on the wire. Safety invariant: a gate may refuse (fall back)
	// under lag, but a SERVED read's fence must cover the token — a served
	// snapshot older than the session's last commit would be a
	// read-your-own-writes violation.
	var served, fallbacks int64
	var violation string
	if !spare {
		s.Go("chaos-ryw-probe", func() {
			for i := 0; ; i++ {
				s.Sleep(700 * time.Microsecond)
				e2 := fn.Epoch()
				if e2 < 3 {
					continue
				}
				token := e2 - 1 // last epoch a commit could have returned
				node := i % o.Nodes
				resp, ok := e.Gate(node).TryRead(token, txn.NewRequest(newProbeRead(node*o.Workers), 0))
				if !ok {
					fallbacks++
					continue
				}
				served++
				if resp.Token < token && violation == "" {
					violation = fmt.Sprintf("node %d served token-%d session from fence %d", node, token, resp.Token)
				}
			}
		})
	}

	// Fault phase: run in slices, rejoining each crashed node once its
	// blackhole window closes (detection and eviction are the protocol's
	// own job — the harness only plays the operator restarting a box).
	// With the spare slot, from a quarter of the way in, keep
	// re-submitting its join until the topology carries it. Most
	// submissions are refused (members are failed, or a fault window ate
	// the snapshot transfer and the migration timed out); refusal-and-retry
	// is the protocol under test.
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
				o.Logf("%s: seed %d: crash window on node %d closed at epoch %d, rejoining", name, seed, c.Node, fn.Epoch())
				e.RequestJoin(c.Node)
			}
		}
		if spare && s.Now() >= o.Duration/4 && i%8 == 0 && !joined() {
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

	// converge runs the cluster until every member is up (and the spare
	// joined, when join is set) and all replica checksums agree,
	// re-issuing the joins still owed each round. The budget is virtual
	// TIME, not attempts: a rejoin whose snapshot transfer lost a frame to
	// a still-armed fault window parks the coordinator in a long (virtual)
	// recovery gather, and the harness must outwait it (virtual seconds are
	// cheap) before the re-issued join can succeed. It returns with the
	// cluster frozen.
	converge := func(stage string, join bool) error {
		var lastErr error
		budget := s.Now() + 12*time.Second
		for attempt := 0; s.Now() < budget; attempt++ {
			failed := e.FailedNodes()
			for _, id := range failed {
				e.RequestJoin(id)
			}
			if join && !joined() {
				e.RequestJoin(joiner)
			}
			if attempt%20 == 19 {
				o.Logf("%s: seed %d: converging %s at epoch %d, failed=%v, last: %v", name, seed, stage, fn.Epoch(), failed, lastErr)
			}
			s.Run(s.Now() + 30*time.Millisecond)
			if halted, reason := e.Halted(); halted {
				return fmt.Errorf("seed %d: cluster halted %s: %s", seed, stage, reason)
			}
			e.Freeze()
			s.Run(s.Now() + 30*time.Millisecond)
			lastErr = e.CheckReplicaConsistency()
			if lastErr == nil && len(e.FailedNodes()) == 0 && joined() == join {
				return nil
			}
			e.Unfreeze()
		}
		if lastErr == nil {
			lastErr = fmt.Errorf("failed=%v, slot %d member=%v", e.FailedNodes(), joiner, joined())
		}
		return fmt.Errorf("seed %d: no convergence %s: %w", seed, stage, lastErr)
	}

	// Heal and converge: no new faults, parked messages released.
	fn.Heal()
	o.Logf("%s: seed %d: healed at epoch %d, injected %v", name, seed, fn.Epoch(), fn.Injected())
	if err := converge("after heal", spare); err != nil {
		return Result{}, err
	}
	if violation != "" {
		return Result{}, fmt.Errorf("seed %d: read-your-own-writes violated: %s", seed, violation)
	}
	if spare {
		if err := joinAndDrain(s, e, seed, joiner, o); err != nil {
			return Result{}, err
		}
		if err := converge("after drain", false); err != nil {
			return Result{}, err
		}
		o.Logf("churn: seed %d: slot %d drained, topology v%d", seed, joiner, e.Topology().Version)
	}

	// Fold every partition's checksum (which already covers the ordered
	// secondary indexes) into one digest; CheckReplicaConsistency proved
	// all holders agree, so any holder's copy represents the partition.
	digest := uint64(1469598103934665603)
	for p := 0; p < cfg.NumPartitions(); p++ {
		digest ^= dbChecksum(e, p)
		digest *= 1099511628211
	}
	st := e.Stats()
	return Result{
		Committed:      st.Committed,
		Digest:         digest,
		Epoch:          fn.Epoch(),
		Injected:       fn.Injected(),
		ProbeServed:    served,
		ProbeFallbacks: fallbacks,
	}, nil
}

// joinAndDrain checks the churn soak's joined cluster — the spare masters
// its stripe, and commits keep flowing across the new topology version —
// then drains the spare back out: its partitions migrate to the survivors
// at a fence, the topology drops it, and the engine's drain signal (what a
// star-node process exits on) must fire for exactly that slot.
func joinAndDrain(s *rt.Sim, e *core.Engine, seed int64, joiner int, o Options) error {
	topo := e.Topology()
	if got := topo.MasterOf(joiner * o.Workers); got != joiner {
		return fmt.Errorf("seed %d: joined topology v%d does not master partition %d on slot %d (got %d)",
			seed, topo.Version, joiner*o.Workers, joiner, got)
	}
	o.Logf("churn: seed %d: slot %d joined, topology v%d", seed, joiner, topo.Version)
	preDrain := e.Stats().Committed
	e.Unfreeze()
	s.Run(s.Now() + 50*time.Millisecond)
	if c := e.Stats().Committed; c <= preDrain {
		return fmt.Errorf("seed %d: no commits on the joined topology (stuck at %d)", seed, preDrain)
	}

	e.RequestDrain(joiner)
	budget := s.Now() + 12*time.Second
	for s.Now() < budget && e.Topology().IsMember(joiner) {
		s.Run(s.Now() + 30*time.Millisecond)
		if halted, reason := e.Halted(); halted {
			return fmt.Errorf("seed %d: cluster halted during drain: %s", seed, reason)
		}
	}
	if e.Topology().IsMember(joiner) {
		return fmt.Errorf("seed %d: drain of slot %d never installed", seed, joiner)
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
		return fmt.Errorf("seed %d: drain installed but Drained() signalled %d, want %d", seed, gotDrain, joiner)
	}
	return nil
}

func dbChecksum(e *core.Engine, p int) uint64 {
	// Holders come from the INSTALLED topology, not the static config:
	// elastic membership may have moved the partition since boot.
	var db *storage.DB
	for _, h := range e.Topology().HoldersOf(p) {
		if d := e.DB(h); d != nil {
			db = d
			break
		}
	}
	return db.PartitionChecksum(p)
}
