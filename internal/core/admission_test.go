package core

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"star/internal/rt"
)

// admission is what the coordinator sent while admitting slot x: the
// kinds of message x itself received, in order (phase commands aside),
// the recovery order among them, and which survivors were told to adopt
// x's sent counts.
type admission struct {
	kinds    []string
	revert   msgRevert
	recovery msgStartRecovery
	aligned  map[int]int
	last     any
}

func admissionOf(evs []tapped, coord, x int) admission {
	a := admission{aligned: map[int]int{}}
	for _, ev := range evs {
		if ev.src != coord {
			continue
		}
		if al, ok := ev.m.(msgAlignCounters); ok && al.Src == x {
			a.aligned[ev.dst]++
		}
		if _, phase := ev.m.(msgStartPhase); phase || ev.dst != x {
			continue
		}
		switch m := ev.m.(type) {
		case msgRevert:
			a.revert = m
		case msgStartRecovery:
			a.recovery = m
		}
		a.kinds = append(a.kinds, fmt.Sprintf("%T", ev.m))
		a.last = ev.m
	}
	return a
}

// A crash rejoin is a join: slot x, failed and recovered, then drained
// and joined again, is sent the same sequence both times — wildcard
// revert, a recovery order for EVERY partition the layout assigns it (not
// only ones it gains: what it holds is untrusted), counter reset, one
// counter alignment per survivor, and the install of the view that has
// it back: the installed layout again for the rejoin, the next version
// for the join. Run for a full replica and a partial one.
func TestRejoinAndJoinShareOneAdmission(t *testing.T) {
	const nodes, workers = 4, 2
	for _, x := range []int{1, 3} {
		s := rt.NewSim()
		e, tap := tappedCluster(t, s, nodes, workers, 10, func(c *Config) { c.FullReplicas = 2 })
		coord := e.cfg.coordID()
		var holds []int32
		for p, h := range e.Topology().HoldsMask(x) {
			if h {
				holds = append(holds, int32(p))
			}
		}
		if x < 2 && len(holds) != nodes*workers {
			t.Fatalf("full replica %d holds %v", x, holds)
		}
		s.Run(20 * time.Millisecond)

		e.FailNode(x)
		s.Run(s.Now() + 100*time.Millisecond)
		if got := e.FailedNodes(); !reflect.DeepEqual(got, []int{x}) {
			t.Fatalf("slot %d: failed set %v after the crash", x, got)
		}
		mark := len(tap.since(0))
		e.RecoverNode(x)
		s.Run(s.Now() + 100*time.Millisecond)
		rejoin := admissionOf(tap.since(mark), coord, x)

		e.RequestDrain(x)
		s.Run(s.Now() + 60*time.Millisecond)
		if e.Topology().IsMember(x) {
			t.Fatalf("slot %d: drain not installed", x)
		}
		version := e.Topology().Version
		mark = len(tap.since(0))
		e.RequestJoin(x)
		s.Run(s.Now() + 60*time.Millisecond)
		join := admissionOf(tap.since(mark), coord, x)

		survivors := map[int]int{}
		for i := 0; i < nodes; i++ {
			if i != x {
				survivors[i] = 1
			}
		}
		want := []string{"core.msgRevert", "core.msgStartRecovery", "core.msgResetCounters", "core.msgTopology"}
		for name, a := range map[string]admission{"rejoin": rejoin, "join": join} {
			if !reflect.DeepEqual(a.kinds, want) {
				t.Fatalf("slot %d %s: coordinator sent it %v, want %v", x, name, a.kinds, want)
			}
			if a.revert.Epoch != 0 {
				t.Fatalf("slot %d %s: revert of epoch %d, want the wildcard", x, name, a.revert.Epoch)
			}
			if !reflect.DeepEqual(a.recovery.Parts, holds) {
				t.Fatalf("slot %d %s: streamed partitions %v, want everything it holds %v", x, name, a.recovery.Parts, holds)
			}
			for _, from := range a.recovery.From {
				if int(from) == x {
					t.Fatalf("slot %d %s: told to copy from itself", x, name)
				}
			}
			if !reflect.DeepEqual(a.aligned, survivors) {
				t.Fatalf("slot %d %s: counter alignments per node %v, want one per survivor", x, name, a.aligned)
			}
		}
		if tm := rejoin.last.(msgTopology); tm.Version != version-1 {
			t.Fatalf("slot %d: rejoin installed v%d, want the layout it failed under, v%d", x, tm.Version, version-1)
		}
		if tm := join.last.(msgTopology); tm.Version != version+1 {
			t.Fatalf("slot %d: join installed v%d, want v%d", x, tm.Version, version+1)
		}

		settle(s, e, 30*time.Millisecond)
		if err := e.CheckReplicaConsistency(); err != nil {
			t.Fatalf("slot %d: replicas diverged: %v", x, err)
		}
		if halted, reason := e.Halted(); halted {
			t.Fatalf("slot %d: halted: %s", x, reason)
		}
		s.Stop()
	}
}
