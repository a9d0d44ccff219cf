package core

import (
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/transport"
)

// randomView draws a cluster (capacity, workers per slot, full count,
// member set with at least two members and one full among them) and a
// failed set that may name members, dark slots and ids off the end.
func randomView(rng *rand.Rand) (Config, []int) {
	cfg := Config{Nodes: 2 + rng.Intn(7), WorkersPerNode: 1 + rng.Intn(3)}
	cfg.FullReplicas = 1 + rng.Intn(cfg.Nodes-1)
	cfg.Members = []int{rng.Intn(cfg.FullReplicas)}
	for i := 0; i < cfg.Nodes; i++ {
		if i != cfg.Members[0] && (len(cfg.Members) == 1 && i == cfg.Nodes-1 || rng.Intn(3) > 0) {
			cfg.Members = append(cfg.Members, i)
		}
	}
	var failed []int
	for i := -1; i <= cfg.Nodes; i++ {
		if rng.Intn(3) == 0 {
			failed = append(failed, i)
		}
	}
	rng.Shuffle(len(failed), func(i, j int) { failed[i], failed[j] = failed[j], failed[i] })
	return cfg, failed
}

// The view is a pure function of (layout, failed set), and what it
// derives is what the engine used to store and ship: over random
// layouts and failed sets, every partition with a copy left is mastered
// by an alive member that holds it, and by its planned master whenever
// that answers; the designated master is the lowest alive full member;
// slots that are failed or dark master and receive nothing; failing a
// node and having it back is the view before; and two views of the same
// inputs are deeply equal, which is what lets the coordinator and every
// node each build their own: the view a node derives from the install
// that carries v — a member set, not a layout — is v.
func TestViewIsAPureFunctionOfLayoutAndFailedSet(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for round := 0; round < 2000; round++ {
		cfg, failed := randomView(rng)
		topo := cfg.Topology()
		v := newView(topo, failed)
		m := installOf(v)
		if again := newView(topologyFromMsg(m, cfg), m.Failed); !reflect.DeepEqual(v, again) {
			t.Fatalf("round %d: the view installed from %+v differs:\n%+v\n%+v", round, m, v, again)
		}
		isFailed := func(i int) bool { return topo.IsMember(i) && slices.Contains(failed, i) }
		wantMaster := -1
		for i := topo.Capacity - 1; i >= 0; i-- {
			if topo.IsFull(i) && !isFailed(i) {
				wantMaster = i
			}
			if v.Up(i) != (topo.IsMember(i) && !isFailed(i)) {
				t.Fatalf("round %d: slot %d up=%v, member=%v failed=%v", round, i, v.Up(i), topo.IsMember(i), isFailed(i))
			}
		}
		if v.master != wantMaster {
			t.Fatalf("round %d: designated master %d, want the lowest alive full member %d", round, v.master, wantMaster)
		}
		if !slices.IsSorted(v.failed) || slices.ContainsFunc(v.failed, func(i int) bool { return !isFailed(i) }) {
			t.Fatalf("round %d: failed list %v of members %v given %v", round, v.failed, topo.Members(), failed)
		}
		for p := 0; p < topo.Partitions; p++ {
			var alive []int
			for _, h := range topo.HoldersOf(p) {
				if !isFailed(h) {
					alive = append(alive, h)
				}
			}
			if !slices.Equal(v.holders[p], alive) {
				t.Fatalf("round %d: partition %d alive holders %v, want %v", round, p, v.holders[p], alive)
			}
			m := int(v.masters[p])
			switch planned := topo.MasterOf(p); {
			case len(alive) == 0:
				if m != -1 {
					t.Fatalf("round %d: partition %d has no copy left and master %d", round, p, m)
				}
			case !isFailed(planned):
				if m != planned {
					t.Fatalf("round %d: partition %d taken from its alive planned master %d by %d", round, p, planned, m)
				}
			case !v.Up(m) || !topo.Holds(m, p):
				t.Fatalf("round %d: partition %d re-mastered to %d (up %v, holds %v); alive holders %v",
					round, p, m, v.Up(m), topo.Holds(m, p), alive)
			}
		}
		if x := rng.Intn(topo.Capacity); v.Up(x) {
			if back := v.Fail(x).Alive(x); !reflect.DeepEqual(back, v) {
				t.Fatalf("round %d: failing %d and having it back changed the view:\n%+v\n%+v", round, x, v, back)
			}
			if gone := v.Fail(x); gone.Up(x) || slices.Contains(gone.masters, int32(x)) {
				t.Fatalf("round %d: failed slot %d still up or mastering: %+v", round, x, gone)
			}
		}
	}
}

// The one place the derived mastership differs from the map the
// coordinator used to keep: that map was sticky — a partition moved to a
// full replica stayed there until its PLANNED master returned. Derived,
// a partition goes to the best alive holder at every fence: when its
// secondary rejoins while its planned master is still down, the
// secondary takes it back from the full replica.
func TestViewSecondaryTakesPartitionBackFromFullReplica(t *testing.T) {
	topo := Config{Nodes: 4, WorkersPerNode: 1, FullReplicas: 2}.Topology()
	const p = 0 // planned master 0 (full); secondary 2 (partial); 1 is the other full replica
	if topo.MasterOf(p) != 0 || topo.SecondaryOf(p) != 2 {
		t.Fatalf("layout: partition %d master %d secondary %d", p, topo.MasterOf(p), topo.SecondaryOf(p))
	}
	v := newView(topo, nil).Fail(0, 2)
	if m := v.masters[p]; m != 1 {
		t.Fatalf("master and secondary down: partition mastered by %d, want the full replica 1", m)
	}
	if m := v.Alive(2).masters[p]; m != 2 {
		t.Fatalf("secondary back, planned master still down: partition mastered by %d, want the secondary 2", m)
	}
	if m := v.Alive(2).Alive(0).masters[p]; m != 0 {
		t.Fatalf("everyone back: partition mastered by %d, want its planned master 0", m)
	}
}

// adminAsk submits req at node's front-door gate from inside the
// simulation, runs it for d, and returns the answer.
func adminAsk(t *testing.T, s *rt.Sim, e *Engine, node int, req AdminReq, d time.Duration) AdminResp {
	t.Helper()
	var ch <-chan transport.Message
	s.Go("admin-ask", func() { ch = e.Gate(node).Submit(1, req) })
	s.Run(s.Now() + d)
	select {
	case resp := <-ch:
		return resp.(AdminResp)
	default:
		t.Fatalf("%s of node %d: no answer within %v", req.Op, req.Node, d)
		return AdminResp{}
	}
}

// A layout reaches a node by message and no other way: with the
// coordinator's link to node 1 held from the msgTopology on, a join
// installs version 2 on the coordinator and on every other node while
// node 1 — in the same process — still answers with version 1 and keeps
// the partition the new layout takes from it, until the frame is
// delivered.
func TestInstallReachesANodeByMessageOnly(t *testing.T) {
	s := rt.NewSim()
	e, tap := tappedCluster(t, s, 4, 2, 10, func(c *Config) { c.Members = []int{0, 1, 2} })
	s.Run(30 * time.Millisecond)
	const p = 7 // slot 3's stripe: orphaned onto node 1 while 3 is dark, slot 3's once it joins
	if m := e.Topology().MasterOf(p); m != 1 {
		t.Fatalf("boot layout: partition %d mastered by %d, want 1", p, m)
	}
	// The coordinator's link to node 1 goes slow from the install on (held
	// whole, so it stays FIFO): the next phase waits for node 1 inside the
	// lenient first gather after an install.
	slow := false
	tap.hold = func(ev tapped) bool {
		if _, install := ev.m.(msgTopology); install && ev.dst == 1 {
			slow = true
		}
		return slow && ev.src == e.cfg.coordID() && ev.dst == 1
	}
	e.RequestJoin(3)
	s.Run(s.Now() + 60*time.Millisecond)
	if len(tap.held) == 0 {
		t.Fatal("no install bound for node 1 was held")
	}
	if topo := e.Topology(); topo.Version != 2 || !topo.IsMember(3) {
		t.Fatalf("coordinator at v%d, member(3)=%v; want the join installed", topo.Version, topo.IsMember(3))
	}
	get := AdminReq{Op: AdminTopologyGet}
	if resp := adminAsk(t, s, e, 2, get, time.Millisecond); resp.Version != 2 {
		t.Fatalf("node 2 answers v%d, want 2", resp.Version)
	}
	if resp := adminAsk(t, s, e, 1, get, time.Millisecond); resp.Version != 1 || len(resp.Members) != 3 {
		t.Fatalf("node 1 answers v%d members %v before its install arrived, want v1", resp.Version, resp.Members)
	}
	if !e.DB(1).Holds(p) {
		t.Fatalf("node 1 dropped partition %d before its install arrived", p)
	}

	s.Go("release", tap.release)
	s.Run(s.Now() + time.Millisecond)
	if resp := adminAsk(t, s, e, 1, get, time.Millisecond); resp.Version != 2 || len(resp.Members) != 4 {
		t.Fatalf("node 1 answers v%d members %v after its install arrived, want v2", resp.Version, resp.Members)
	}
	if e.DB(1).Holds(p) {
		t.Fatalf("node 1 still holds partition %d under the layout that moved it to slot 3", p)
	}
	before := e.Stats().Committed
	s.Run(s.Now() + 30*time.Millisecond)
	if e.Stats().Committed <= before {
		t.Fatal("no progress under the installed layout")
	}
	if f := e.FailedNodes(); len(f) != 0 {
		t.Fatalf("the slow link got %v evicted", f)
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

// A crashed member is re-admitted through the admin plane, by the op
// that admits anything: join. While members are failed the join of a
// failed member goes ahead — whichever door asks, other members still
// down — and every change of layout is refused until all are back.
func TestAdminJoinReadmitsFailedMemberWhileOthersAreFailed(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 5, 2, 10, func(c *Config) { c.Members = []int{0, 1, 2, 3} })
	s.Run(20 * time.Millisecond)
	e.FailNode(2)
	e.FailNode(3)
	s.Run(s.Now() + 150*time.Millisecond)
	if got := e.FailedNodes(); !slices.Equal(got, []int{2, 3}) {
		t.Fatalf("failed set %v after two crashes", got)
	}
	const wait = 40 * time.Millisecond
	for _, req := range []AdminReq{
		{Op: AdminDrain, Node: 1},
		{Op: AdminJoin, Node: 4}, // a dark slot: a new layout
	} {
		if resp := adminAsk(t, s, e, 1, req, wait); resp.OK || !strings.Contains(resp.Err, "cluster has failed members") {
			t.Fatalf("%s of %d with members failed: %+v, want the refusal", req.Op, req.Node, resp)
		}
	}
	// Op 6 stays reserved (a member set has one layout, so there is no
	// rebalance to serve): an old client's ask gets the unknown-op answer.
	if resp := adminAsk(t, s, e, 1, AdminReq{Op: 6, Node: -1}, wait); resp.OK || resp.Err != "unknown admin op" {
		t.Fatalf("retired op 6: %+v, want the unknown-op answer", resp)
	}
	for i, x := range []int{3, 2} {
		resp := adminAsk(t, s, e, 1, AdminReq{Op: AdminJoin, Node: x}, wait)
		if !resp.OK || resp.Version != 1 {
			t.Fatalf("join of failed member %d: %+v", x, resp)
		}
		if got, want := e.FailedNodes(), []int{2, 3}[:1-i]; !slices.Equal(got, want) {
			t.Fatalf("failed set %v after re-admitting %d, want %v", got, x, want)
		}
	}
	if resp := adminAsk(t, s, e, 1, AdminReq{Op: AdminJoin, Node: 2}, wait); !resp.OK {
		t.Fatalf("join of an alive member is not idempotent: %+v", resp)
	}
	if resp := adminAsk(t, s, e, 1, AdminReq{Op: AdminJoin, Node: 4}, wait); !resp.OK || resp.Version != 2 {
		t.Fatalf("join of the dark slot once everyone is back: %+v", resp)
	}
	before := e.Stats().Committed
	s.Run(s.Now() + 30*time.Millisecond)
	if e.Stats().Committed <= before {
		t.Fatal("no progress with everyone back")
	}
	settle(s, e, 30*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	if halted, reason := e.Halted(); halted {
		t.Fatalf("halted: %s", reason)
	}
	s.Stop()
}
