package core

import (
	"reflect"
	"testing"
	"time"

	"star/internal/rt"
)

// TestTopologyBootMatchesStaticLayout pins the version-1 Topology with
// every slot a member to the paper's static layout: partitions mastered
// in blocks of WorkersPerNode, a full-replica-mastered partition's
// secondary striped over the partials, and every full replica holding
// everything (Fig 2).
func TestTopologyBootMatchesStaticLayout(t *testing.T) {
	cfg := Config{Nodes: 4, WorkersPerNode: 3, FullReplicas: 2}
	cfg = cfg.withDefaults()
	topo := cfg.Topology()
	if topo.Version != 1 || len(topo.Members()) != 4 {
		t.Fatalf("boot topology: version %d, members %v", topo.Version, topo.Members())
	}
	partials := cfg.Nodes - cfg.FullReplicas
	for p := 0; p < cfg.NumPartitions(); p++ {
		master := p / cfg.WorkersPerNode
		secondary := -1
		want := []int{0, 1}
		if master < cfg.FullReplicas {
			secondary = cfg.FullReplicas + p%partials
			want = append(want, secondary)
		} else {
			want = append(want, master)
		}
		if topo.MasterOf(p) != master || topo.SecondaryOf(p) != secondary {
			t.Fatalf("partition %d: master %d secondary %d, want %d and %d",
				p, topo.MasterOf(p), topo.SecondaryOf(p), master, secondary)
		}
		if got := topo.HoldersOf(p); !reflect.DeepEqual(got, want) {
			t.Fatalf("partition %d: holders %v, want %v", p, got, want)
		}
		for i := 0; i < cfg.Nodes; i++ {
			holds := i < cfg.FullReplicas || i == master || i == secondary
			if topo.HoldsMask(i)[p] != holds {
				t.Fatalf("node %d partition %d: residency %v, want %v", i, p, !holds, holds)
			}
		}
	}
}

// TestTopologyJoinDrain pins the membership transitions: deterministic
// layouts, full coverage, version bumps, and validation.
func TestTopologyJoinDrain(t *testing.T) {
	cfg := Config{Nodes: 4, WorkersPerNode: 2, FullReplicas: 1, Members: []int{0, 1, 2}}
	cfg = cfg.withDefaults()
	topo := cfg.Topology()
	if topo.IsMember(3) {
		t.Fatal("slot 3 should boot dark")
	}
	// Every partition is owned by a member and has >=2 holders even with
	// slot 3's stripe orphaned.
	for p := 0; p < topo.Partitions; p++ {
		if !topo.IsMember(topo.MasterOf(p)) {
			t.Fatalf("partition %d mastered by non-member %d", p, topo.MasterOf(p))
		}
		if len(topo.HoldersOf(p)) < 2 {
			t.Fatalf("partition %d under-replicated: %v", p, topo.HoldersOf(p))
		}
	}

	joined := topo.Joined(3)
	if joined.Version != 2 || !joined.IsMember(3) {
		t.Fatalf("joined: version %d member %v", joined.Version, joined.IsMember(3))
	}
	// The joined layout is the canonical full-member layout: slot 3 takes
	// its own stripe back.
	for p := 6; p < 8; p++ {
		if joined.MasterOf(p) != 3 {
			t.Fatalf("partition %d: master %d after join, want 3", p, joined.MasterOf(p))
		}
	}
	// Determinism: the same transition computed twice is identical.
	again := topo.Joined(3)
	for p := 0; p < topo.Partitions; p++ {
		if joined.Masters[p] != again.Masters[p] || joined.Secondary[p] != again.Secondary[p] {
			t.Fatalf("partition %d: join relayout not deterministic", p)
		}
	}

	drained := joined.Drained(1)
	if drained.Version != 3 || drained.IsMember(1) {
		t.Fatal("drain bookkeeping")
	}
	for p := 0; p < drained.Partitions; p++ {
		if drained.MasterOf(p) == 1 || drained.SecondaryOf(p) == 1 {
			t.Fatalf("partition %d still assigned to drained slot", p)
		}
		if !drained.IsMember(drained.MasterOf(p)) {
			t.Fatalf("partition %d mastered by non-member", p)
		}
	}
	if drained.Holds(1, 0) {
		t.Fatal("drained slot still holds partitions")
	}

	// Validation: too few members, and no live full replica.
	if err := drained.Drained(2).Validate(); err != nil {
		t.Fatalf("2-member topology with a full replica must validate: %v", err)
	}
	if err := drained.Drained(2).Drained(3).Validate(); err != errTopoMembers {
		t.Fatal("1-member topology must not validate")
	}
	noFull := joined.Drained(0)
	if err := noFull.Validate(); err != errTopoNoFull {
		t.Fatalf("draining the only full replica: err %v", err)
	}
}

// TestSTARJoinDarkSlotAtFence boots a capacity-4 cluster with three
// members, joins the dark slot mid-run, and checks the new member
// carries its stripe and every replica converges byte-identically.
func TestSTARJoinDarkSlotAtFence(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, func(c *Config) { c.Members = []int{0, 1, 2} })
	s.Run(40 * time.Millisecond)
	before := e.Stats().Committed
	if before == 0 {
		t.Fatal("no commits before join")
	}
	if v := e.Topology().Version; v != 1 {
		t.Fatalf("boot topology version %d", v)
	}

	e.RequestJoin(3)
	s.Run(s.Now() + 60*time.Millisecond)
	topo := e.Topology()
	if !topo.IsMember(3) || topo.Version != 2 {
		t.Fatalf("join not installed: version %d member %v", topo.Version, topo.IsMember(3))
	}
	// The joiner owns its stripe again and the cluster keeps committing.
	w := e.cfg.WorkersPerNode
	for p := 3 * w; p < 4*w; p++ {
		if topo.MasterOf(p) != 3 {
			t.Fatalf("partition %d: master %d after join", p, topo.MasterOf(p))
		}
	}
	s.Run(s.Now() + 40*time.Millisecond)
	if after := e.Stats().Committed; after <= before {
		t.Fatalf("no progress after join: %d -> %d", before, after)
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatalf("replicas diverged after join: %v", err)
	}
	s.Stop()
}

// TestSTARDrainNodeAtFence drains a partial member out of a full
// cluster: its partitions migrate away, Engine.Drained fires, and the
// survivors stay consistent and live.
func TestSTARDrainNodeAtFence(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, nil)
	s.Run(40 * time.Millisecond)
	before := e.Stats().Committed

	e.RequestDrain(3)
	s.Run(s.Now() + 60*time.Millisecond)
	topo := e.Topology()
	if topo.IsMember(3) || topo.Version != 2 {
		t.Fatalf("drain not installed: version %d member %v", topo.Version, topo.IsMember(3))
	}
	select {
	case id := <-e.Drained():
		if id != 3 {
			t.Fatalf("drained signal for node %d", id)
		}
	default:
		t.Fatal("no drained signal")
	}
	for p := 0; p < topo.Partitions; p++ {
		if topo.MasterOf(p) == 3 || topo.SecondaryOf(p) == 3 {
			t.Fatalf("partition %d still assigned to drained node", p)
		}
	}
	s.Run(s.Now() + 40*time.Millisecond)
	if after := e.Stats().Committed; after <= before {
		t.Fatalf("no progress after drain: %d -> %d", before, after)
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatalf("replicas diverged after drain: %v", err)
	}
	s.Stop()
}

// TestSTARDrainThenRejoin cycles a member out and back in: the second
// join must realign replication counters with the node's persistent
// in-process tracker state.
func TestSTARDrainThenRejoin(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 10, nil)
	s.Run(40 * time.Millisecond)

	e.RequestDrain(3)
	s.Run(s.Now() + 60*time.Millisecond)
	if e.Topology().IsMember(3) {
		t.Fatal("drain not installed")
	}
	s.Run(s.Now() + 20*time.Millisecond)

	e.RequestJoin(3)
	s.Run(s.Now() + 60*time.Millisecond)
	topo := e.Topology()
	if !topo.IsMember(3) || topo.Version != 3 {
		t.Fatalf("rejoin not installed: version %d member %v", topo.Version, topo.IsMember(3))
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatalf("replicas diverged after drain+rejoin: %v", err)
	}
	s.Stop()
}

// TestSTARDrainRejectedWhenItWouldBreakReplication pins the validation
// path: the last full replica cannot drain.
func TestSTARDrainRejectedWhenItWouldBreakReplication(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 3, 2, 10, nil)
	s.Run(40 * time.Millisecond)

	e.RequestDrain(0) // the only full replica
	s.Run(s.Now() + 40*time.Millisecond)
	topo := e.Topology()
	if topo.Version != 1 || !topo.IsMember(0) {
		t.Fatalf("invalid drain was installed: version %d", topo.Version)
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}
