package core

import "slices"

// View is the cluster view (§4.5.2): the installed layout plus the set of
// members that stopped answering, and everything that follows from the
// two — who masters each partition now, which full replica runs the
// single-master phase, who still holds a copy. It is built once and
// never modified, and it is a pure function: the coordinator and every
// node construct their own from the same (layout, failed set) and arrive
// at the same value, so only those two travel — the layout as its member
// set, both on msgTopology, new failures also on msgStartPhase and
// msgRevert — and re-mastering after a failure moves no data and no map
// (§4.5.3).
type View struct {
	*Topology
	failed  []int   // members that stopped answering, ascending; nil when none
	up      []int   // the other members, ascending
	master  int     // lowest alive full member, -1 when none is left
	masters []int32 // effective master per partition, -1 when every copy is down
	holders [][]int // alive holders per partition, in HoldersOf order
}

// newView derives the view of layout t with the listed slots failed.
// The list may have come off the wire: ids that are not members of t —
// out of range, dark, drained — are not failures and are dropped.
func newView(t *Topology, failed []int) *View {
	v := &View{Topology: t, master: -1, masters: make([]int32, t.Partitions), holders: make([][]int, t.Partitions)}
	for i := range t.Member {
		switch {
		case !t.Member[i]:
		case slices.Contains(failed, i):
			v.failed = append(v.failed, i)
		default:
			v.up = append(v.up, i)
			if v.master < 0 && t.IsFull(i) {
				v.master = i
			}
		}
	}
	for p := range v.masters {
		for _, h := range t.HoldersOf(p) {
			if v.Up(h) {
				v.holders[p] = append(v.holders[p], h)
			}
		}
		if v.masters[p] = t.Masters[p]; !v.Up(t.MasterOf(p)) {
			v.masters[p] = int32(v.Donor(p))
		}
	}
	return v
}

// Fail returns the view with ids added to the failed set.
func (v *View) Fail(ids ...int) *View {
	return newView(v.Topology, append(slices.Clone(v.failed), ids...))
}

// Alive returns the view with id answering again.
func (v *View) Alive(id int) *View {
	return newView(v.Topology, slices.DeleteFunc(slices.Clone(v.failed), func(x int) bool { return x == id }))
}

// Up reports whether slot i is a member that answers.
func (v *View) Up(i int) bool { return v.IsMember(i) && !slices.Contains(v.failed, i) }

// Donor returns an alive holder of p to take it over or copy it from:
// its secondary, else the lowest alive full member, else its planned
// master; -1 when every copy is down (case 4). It is also who masters p
// while its planned master is down.
func (v *View) Donor(p int) int {
	if s := v.SecondaryOf(p); v.Up(s) {
		return s
	}
	if v.master >= 0 {
		return v.master
	}
	if m := v.MasterOf(p); v.Up(m) {
		return m
	}
	return -1
}
