package core

import (
	"slices"
	"sync"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/transport"
	"star/internal/workload/ycsb"
)

// tapNet records every send that passes through it (message, class,
// endpoints, runtime clock) and otherwise is the wrapped transport —
// except for sends hold picks out, which wait in held until release.
type tapNet struct {
	transport.Transport
	r    rt.Runtime
	mu   sync.Mutex
	ev   []tapped
	hold func(tapped) bool
	held []tapped
}

type tapped struct {
	at       time.Duration
	src, dst int
	class    transport.Class
	m        transport.Message
}

func (n *tapNet) Send(src, dst int, class transport.Class, m transport.Message) {
	ev := tapped{at: n.r.Now(), src: src, dst: dst, class: class, m: m}
	n.mu.Lock()
	n.ev = append(n.ev, ev)
	keep := n.hold != nil && n.hold(ev)
	if keep {
		n.held = append(n.held, ev)
	}
	n.mu.Unlock()
	if !keep {
		n.Transport.Send(src, dst, class, m)
	}
}

// release stops holding and delivers what was held, in order.
func (n *tapNet) release() {
	n.mu.Lock()
	held := n.held
	n.hold, n.held = nil, nil
	n.mu.Unlock()
	for _, ev := range held {
		n.Transport.Send(ev.src, ev.dst, ev.class, ev.m)
	}
}

// newTapNet is the default simulated network behind a tap.
func newTapNet(s *rt.Sim, nodes int) *tapNet {
	return &tapNet{r: s, Transport: simnet.New(s, simnet.DefaultConfig(nodes+1, 1))}
}

// heldNow returns the sends held so far.
func (n *tapNet) heldNow() []tapped {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]tapped(nil), n.held...)
}

// since returns the sends recorded from index from on.
func (n *tapNet) since(from int) []tapped {
	n.mu.Lock()
	defer n.mu.Unlock()
	return append([]tapped(nil), n.ev[from:]...)
}

// tappedCluster is ycsbCluster on a simnet the test can watch.
func tappedCluster(t *testing.T, s *rt.Sim, nodes, workers, crossPct int, mods ...func(*Config)) (*Engine, *tapNet) {
	t.Helper()
	tap := newTapNet(s, nodes)
	e := ycsbCluster(t, s, nodes, workers, crossPct, func(c *Config) {
		c.Transport = tap
		for _, mod := range mods {
			mod(c)
		}
	})
	return e, tap
}

// The phase switch's message budget: per committed epoch every node
// costs three coordinator-link control messages — phase command, phase
// report, fence ack — and one end-of-epoch marker per ordered pair of
// nodes on the replication class. No fourth control message tells a
// node what to drain, and a worker's done report goes straight into its
// router's inbox, never onto the transport.
func TestPhaseSwitchMessagesPerEpoch(t *testing.T) {
	const nodes, workers = 3, 2
	s := rt.NewSim()
	e, tap := tappedCluster(t, s, nodes, workers, 20)
	s.Run(80 * time.Millisecond)
	epochs := e.StatsSnapshot().Counters["epochs"]
	s.Stop()
	if epochs < 20 {
		t.Fatalf("only %d epochs committed", epochs)
	}
	var starts, dones, acks, marks, otherControl int64
	for _, ev := range tap.ev {
		switch ev.m.(type) {
		case msgStartPhase:
			starts++
		case msgPhaseDone:
			dones++
		case msgFenceAck:
			acks++
		case msgEpochMark:
			if ev.class != transport.Replication {
				t.Fatalf("marker sent on class %d, want the replication class", ev.class)
			}
			marks++
		default:
			if ev.class == transport.Control {
				otherControl++
			}
		}
	}
	if otherControl != 0 {
		t.Fatalf("%d control messages besides start/done/ack in a healthy run (a worker's done report is one)", otherControl)
	}
	// The run stops mid-epoch: allow one epoch's worth in flight.
	near := func(name string, got, perEpoch int64) {
		t.Helper()
		if got < perEpoch*epochs || got > perEpoch*(epochs+1) {
			t.Fatalf("%s: %d messages over %d epochs, want %d per epoch", name, got, epochs, perEpoch)
		}
	}
	near("phase commands", starts, nodes)
	near("phase reports", dones, nodes)
	near("fence acks", acks, nodes)
	near("end-of-epoch markers", marks, nodes*(nodes-1))
}

// Only the master bounds a single-master phase: every stand-by node
// reports the moment its phase command arrives, so the master's report
// is the last one out, epoch after epoch.
func TestStandbyNeverExtendsSingleMasterPhase(t *testing.T) {
	const nodes = 3
	s := rt.NewSim()
	e, tap := tappedCluster(t, s, nodes, 2, 30)
	s.Run(80 * time.Millisecond)
	s.Stop()
	type epochInfo struct {
		master  int
		started time.Duration
		done    map[int]time.Duration
	}
	single := map[uint64]*epochInfo{}
	for _, ev := range tap.ev {
		switch m := ev.m.(type) {
		case msgStartPhase:
			if m.Phase == SingleMaster && single[m.Epoch] == nil {
				single[m.Epoch] = &epochInfo{master: newView(e.Topology(), m.Failed).master, started: ev.at, done: map[int]time.Duration{}}
			}
		case msgPhaseDone:
			if ei := single[m.Epoch]; ei != nil {
				ei.done[m.Node] = ev.at
			}
		}
	}
	checked := 0
	for epoch, ei := range single {
		if len(ei.done) != nodes {
			continue // cut off by the end of the run
		}
		checked++
		for node, at := range ei.done {
			if node == ei.master {
				continue
			}
			if at > ei.done[ei.master] {
				t.Fatalf("epoch %d: stand-by node %d reported at %v, after the master (%v)",
					epoch, node, at, ei.done[ei.master])
			}
			// One hop for the command plus handling: far below any τs.
			if wait := at - ei.started; wait > 100*time.Microsecond {
				t.Fatalf("epoch %d: stand-by node %d sat on its phase command for %v", epoch, node, wait)
			}
		}
	}
	if checked < 5 {
		t.Fatalf("only %d complete single-master epochs observed", checked)
	}
}

// newFenceHarness builds an unstarted 3-node cluster on the real runtime
// (as newSessionHarness does): the test plays router, feeding node 1's
// handle directly, and watches the node's fence state. Node 1 holds
// partitions 0 and 1, not 2; its applier queue exists, and nothing
// drains it.
func newFenceHarness(t testing.TB) (*Engine, *node) {
	t.Helper()
	r := rt.NewReal()
	e := build(Config{
		RT:             r,
		Nodes:          3,
		WorkersPerNode: 1,
		Workload:       ycsb.New(ycsb.Config{Partitions: 3, RecordsPerPartition: 64}),
		Seed:           1,
		Transport:      simnet.New(r, simnet.Config{Nodes: 4}),
	})
	t.Cleanup(r.Stop)
	e.nodes[1].appliers = []rt.Chan{r.NewChan(4)}
	return e, e.nodes[1]
}

// runOwnPhase starts epoch on n and reports its single worker done.
func runOwnPhase(n *node, epoch uint64, failed ...int) {
	n.handle(msgStartPhase{Phase: Partitioned, Epoch: epoch, Deadline: time.Hour, Failed: failed})
	n.handle(workerDoneMsg{Worker: 0})
}

// A node acks its fence exactly when its own phase is over, every peer's
// marker for THIS epoch is in, and the counts they name are applied.
// Older-epoch and duplicate markers change nothing; a marker that runs
// ahead of the node's own phase command is kept; the applier that
// reaches the expected vector wakes the router.
func TestFenceAckWaitsForMarkersAndAppliedCounts(t *testing.T) {
	e, n := newFenceHarness(t)

	runOwnPhase(n, 4)
	if n.acked {
		t.Fatal("acked with no peer marker in")
	}
	n.handle(msgEpochMark{From: 0, Epoch: 4})
	n.handle(msgEpochMark{From: 0, Epoch: 4}) // duplicate
	if n.acked {
		t.Fatal("acked with node 2's marker missing")
	}
	n.handle(msgEpochMark{From: 2, Epoch: 4})
	if !n.acked {
		t.Fatal("not acked with own phase done, both markers in and nothing to apply")
	}

	// Epoch 5. Node 0 stands by and reports at once: its marker overtakes
	// this node's phase command. A marker of the committed epoch shows up
	// late, naming a count nobody will ever apply.
	n.handle(msgEpochMark{From: 0, Epoch: 5})
	runOwnPhase(n, 5)
	n.handle(msgEpochMark{From: 2, Epoch: 4, Sent: 999}) // stale
	if n.acked {
		t.Fatal("acked epoch 5 on node 2's epoch-4 marker")
	}
	n.handle(msgEpochMark{From: 2, Epoch: 5, Sent: 3})
	if n.acked {
		t.Fatal("acked before node 2's three entries were applied")
	}
	if _, ok := n.inbox().TryRecv(); ok {
		t.Fatal("router woken before the drain completed")
	}
	n.tracker.AddApplied(2, 2)
	if _, ok := n.inbox().TryRecv(); ok {
		t.Fatal("router woken one entry short")
	}
	n.tracker.AddApplied(2, 1) // what an applier does
	wake, ok := n.inbox().TryRecv()
	if !ok {
		t.Fatal("the applier that completed the drain did not wake the router")
	}
	n.handle(wake)
	if !n.acked {
		t.Fatal("not acked after the wake-up")
	}
	n.handle(msgEpochMark{From: 2, Epoch: 5, Sent: 3}) // duplicate after the ack

	// Exactly one ack per epoch reached the coordinator.
	acks := map[uint64]int{}
	in := e.net.Inbox(e.cfg.coordID())
	for len(acks) < 2 {
		m, ok := in.RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("coordinator saw acks %v, want one each for epochs 4 and 5", acks)
		}
		if a, isAck := m.(msgFenceAck); isAck {
			acks[a.Epoch]++
		}
	}
	for {
		m, ok := in.RecvTimeout(50 * time.Millisecond)
		if !ok {
			break
		}
		if a, isAck := m.(msgFenceAck); isAck {
			acks[a.Epoch]++
		}
	}
	if acks[4] != 1 || acks[5] != 1 {
		t.Fatalf("acks per epoch = %v, want exactly one each", acks)
	}
}

// A revert voids the epoch's fence: markers already in — including the
// one from a node the revert declares failed — are discarded, the retry
// waits for the survivors' fresh markers, and the failed node is no
// longer waited for.
func TestRevertDiscardsMarkers(t *testing.T) {
	_, n := newFenceHarness(t)
	n.handle(msgStartPhase{Phase: Partitioned, Epoch: 6, Deadline: time.Hour})
	n.handle(msgEpochMark{From: 0, Epoch: 6})
	n.handle(msgEpochMark{From: 2, Epoch: 6, Sent: 7}) // node 2 dies with these in flight
	n.handle(msgRevert{Epoch: 6, Failed: []int{2}})

	runOwnPhase(n, 6, 2) // the retry, node 2 failed
	if n.acked {
		t.Fatal("retry acked on a marker from before the revert")
	}
	n.handle(msgEpochMark{From: 2, Epoch: 6, Sent: 7}) // a straggler from the failed node
	if n.acked {
		t.Fatal("retry acked on the failed node's marker")
	}
	n.handle(msgEpochMark{From: 0, Epoch: 6})
	if !n.acked {
		t.Fatal("retry not acked once the surviving peer's fresh marker arrived")
	}
}

// A phase command or a revert only adds failures to a node's view: one
// naming a smaller failed set leaves the set as it was. The install is
// what brings a peer back, and it restarts both counters of the node's
// link to it at zero, leaving every other link's as they were.
func TestFailedSetLeavesOnlyAtAnInstall(t *testing.T) {
	_, n := newFenceHarness(t)
	n.handle(msgRevert{Epoch: 6, Failed: []int{2}})
	n.handle(msgStartPhase{Phase: Partitioned, Epoch: 6, Deadline: time.Hour})
	n.handle(msgRevert{Epoch: 6})
	if got := n.view.Load().failed; !slices.Equal(got, []int{2}) {
		t.Fatalf("failed set %v after a phase command and a revert naming none, want [2]", got)
	}

	n.tracker.AddSent(2, 5)
	n.tracker.AddApplied(2, 3)
	n.tracker.AddSent(0, 4)
	n.tracker.AddApplied(0, 7)
	n.handle(msgTopology{Version: n.view.Load().Version, Members: []int32{0, 1, 2}})
	if got := n.view.Load().failed; len(got) != 0 {
		t.Fatalf("failed set %v after the install that names none", got)
	}
	if sent := n.tracker.SentVector(); sent[2] != 0 || n.tracker.Applied(2) != 0 {
		t.Fatalf("link to the peer that came up reads sent %d, applied %d, want zero", sent[2], n.tracker.Applied(2))
	}
	if sent := n.tracker.SentVector(); sent[0] != 4 || n.tracker.Applied(0) != 7 {
		t.Fatalf("link to a peer that stayed up reads sent %d, applied %d, want 4 and 7", sent[0], n.tracker.Applied(0))
	}
}
