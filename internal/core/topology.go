package core

import "slices"

// Topology is the first-class cluster layout: which endpoint slots are
// live members, which of those are full replicas, and the planned
// partition->master / partition->secondary assignment derived from the
// two (relayout). It replaces the scattered Config.Nodes / FullReplicas /
// LocalNodes reads inside the engine so membership can change at an
// epoch fence without rebuilding the world.
//
// Endpoint slots are fixed at construction (Capacity = Config.Nodes):
// the transport pre-provisions one endpoint per slot plus the
// coordinator's, and membership toggles slots live or dark. Which live
// slots are full replicas is IsFull's to say; the rest are partial.
//
// A Topology is never modified once it is built. The coordinator
// installs new versions only between fences (msgTopology), and what it
// installs is the member set and a version: each node derives the same
// layout from them, rebuilds storage residency from it and derives
// everything else in its View.
type Topology struct {
	// Version increments on every installed change of the member set
	// (join/drain). Version 1 is the boot layout derived from Config.
	Version uint64
	// Capacity is the number of provisioned endpoint slots (Config.Nodes).
	Capacity int
	// Full bounds the full-replica slots: ids [0,Full) hold every
	// partition when they are members.
	Full int
	// Partitions is the cluster partition count (fixed for life).
	Partitions int
	// Member[i] reports whether slot i is a live cluster member.
	Member []bool
	// Masters[p] is the planned master of partition p (always a member
	// that holds p). Who masters p while members are down is the View's
	// to derive; the planned assignment never changes with failures.
	Masters []int32
	// Secondary[p] is the partial replica holding p in addition to the
	// full replicas, or -1 when the master itself is partial (then the
	// master is the extra copy) or no partial members exist.
	Secondary []int32
}

// workersPerSlot returns the canonical partitions-per-slot stripe width.
func (t *Topology) workersPerSlot() int { return t.Partitions / t.Capacity }

// IsMember reports whether slot i is a live member.
func (t *Topology) IsMember(i int) bool { return i >= 0 && i < t.Capacity && t.Member[i] }

// IsFull reports whether slot i is a live full replica. It is the one
// reader of the rule that full-ness is the id prefix [0,Full).
func (t *Topology) IsFull(i int) bool { return i < t.Full && t.IsMember(i) }

// Members returns the live slot ids in ascending order.
func (t *Topology) Members() []int {
	out := make([]int, 0, t.Capacity)
	for i, m := range t.Member {
		if m {
			out = append(out, i)
		}
	}
	return out
}

// MasterOf returns the planned master of partition p.
func (t *Topology) MasterOf(p int) int { return int(t.Masters[p]) }

// SecondaryOf returns the partial replica holding p besides the full
// replicas, or -1 (see Secondary).
func (t *Topology) SecondaryOf(p int) int { return int(t.Secondary[p]) }

// Holds reports whether member i holds partition p under this layout.
func (t *Topology) Holds(i, p int) bool {
	return t.IsFull(i) || t.IsMember(i) && (int(t.Masters[p]) == i || int(t.Secondary[p]) == i)
}

// HoldersOf returns every member holding partition p: the full members,
// then the master if partial, then the secondary. Never empty on a
// valid topology (at least one full member is required).
func (t *Topology) HoldersOf(p int) []int {
	out := make([]int, 0, t.Full+2)
	for i := range t.Member {
		if t.IsFull(i) {
			out = append(out, i)
		}
	}
	if m := int(t.Masters[p]); !t.IsFull(m) {
		out = append(out, m)
	}
	if s := int(t.Secondary[p]); s >= 0 && s != int(t.Masters[p]) {
		out = append(out, s)
	}
	return out
}

// HoldsMask returns the residency bitmap for slot i (all false for a
// non-member, all true for a full member).
func (t *Topology) HoldsMask(i int) []bool {
	mask := make([]bool, t.Partitions)
	for p := range mask {
		mask[p] = t.Holds(i, p)
	}
	return mask
}

// newTopology builds the layout of a member set: the one way a Topology
// comes to be, at boot, off an install and for a join or drain. The
// member set is all that varies — its masters and secondaries are
// derived (relayout), so every process holding the same set holds the
// same layout. A set that does not Validate gets no layout; it is only
// good for its Validate error.
func newTopology(version uint64, capacity, full, partitions int, member []bool) *Topology {
	t := &Topology{Version: version, Capacity: capacity, Full: full, Partitions: partitions, Member: member}
	if t.Validate() == nil {
		t.relayout()
	}
	return t
}

// relayout computes the canonical master/secondary assignment for the
// member set. Deterministic: every process computing the same member set
// derives the same layout. Each partition's preferred owner is its
// striped slot (p / workersPerSlot); orphaned stripes (owner not a
// member) spread round-robin over the members. Partitions mastered by a
// full replica get one partial secondary so the replication factor stays
// Full+1 everywhere partials exist.
func (t *Topology) relayout() {
	w := t.workersPerSlot()
	members := t.Members()
	partials := make([]int, 0, len(members))
	for _, m := range members {
		if !t.IsFull(m) {
			partials = append(partials, m)
		}
	}
	t.Masters = make([]int32, t.Partitions)
	t.Secondary = make([]int32, t.Partitions)
	for p := 0; p < t.Partitions; p++ {
		owner := p / w
		if !t.IsMember(owner) {
			owner = members[p%len(members)]
		}
		t.Masters[p] = int32(owner)
		if !t.IsFull(owner) || len(partials) == 0 {
			t.Secondary[p] = -1
		} else {
			t.Secondary[p] = int32(partials[p%len(partials)])
		}
	}
}

// Joined returns the next topology version with slot id live. Data
// migration to the new layout is the coordinator's job.
func (t *Topology) Joined(id int) *Topology { return t.next(id, true) }

// Drained returns the next topology version with slot id removed.
func (t *Topology) Drained(id int) *Topology { return t.next(id, false) }

func (t *Topology) next(id int, member bool) *Topology {
	m := slices.Clone(t.Member)
	m[id] = member
	return newTopology(t.Version+1, t.Capacity, t.Full, t.Partitions, m)
}

// Validate rejects member sets the engine cannot run: fewer than two
// members or no live full replica (partitioned-phase re-mastering and
// the single-master phase both need one).
func (t *Topology) Validate() error {
	if len(t.Members()) < 2 {
		return errTopoMembers
	}
	for i := range t.Member {
		if t.IsFull(i) {
			return nil
		}
	}
	return errTopoNoFull
}

type topoError string

func (e topoError) Error() string { return string(e) }

const (
	errTopoMembers topoError = "topology: fewer than two members"
	errTopoNoFull  topoError = "topology: no live full replica"
)

// Topology builds the version-1 boot layout from the Config: capacity
// from Nodes, full set from FullReplicas, members from Members (nil =
// every slot). With every slot a member this reproduces the classic
// static layout (MasterOf = p/WorkersPerNode, SecondaryOf striped over
// the partials) exactly. A member set the engine cannot run is returned
// too, with no layout: Validate says what is wrong with it.
func (c Config) Topology() *Topology {
	c = c.withDefaults()
	member := make([]bool, c.Nodes)
	for i := range member {
		member[i] = len(c.Members) == 0
	}
	for _, id := range c.Members {
		if id < 0 || id >= c.Nodes {
			panic("core: Config.Members id out of range")
		}
		member[id] = true
	}
	return newTopology(1, c.Nodes, c.FullReplicas, c.NumPartitions(), member)
}

// topologyFromMsg derives an installed Topology from the member set the
// install names, each a slot Engine.accepts checked, and Config.
func topologyFromMsg(m msgTopology, cfg Config) *Topology {
	member := make([]bool, cfg.Nodes)
	for _, id := range m.Members {
		member[id] = true
	}
	return newTopology(m.Version, cfg.Nodes, cfg.FullReplicas, cfg.NumPartitions(), member)
}
