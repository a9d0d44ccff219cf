package simnet

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/transport"
	"star/internal/transport/conformance"
)

type testMsg struct {
	id    int
	bytes int
}

func (m testMsg) Size() int { return m.bytes }

// TestConformanceSim runs the shared transport contract suite on the
// simulated runtime (the generic FIFO/SetDown/accounting tests live
// there; this file keeps only simnet's physics: latency, jitter,
// bandwidth pacing).
func TestConformanceSim(t *testing.T) {
	conformance.Run(t, func(t *testing.T) *conformance.Cluster {
		s := rt.NewSim()
		t.Cleanup(s.Stop)
		n := New(s, Config{Nodes: 3, Latency: 20 * time.Microsecond, Seed: 11})
		procs := 0
		return &conformance.Cluster{
			Endpoint:  func(int) transport.Transport { return n },
			Endpoints: 3,
			Spawn: func(fn func()) {
				procs++
				s.Go(fmt.Sprintf("conf-%d", procs), fn)
			},
			Settle: func() { s.Run(s.Now() + 30*time.Second) },
			Msg:    func(id, size int) transport.Message { return testMsg{id: id, bytes: size} },
			MsgID:  func(m any) int { return m.(testMsg).id },
			Yield:  func() { s.Sleep(time.Millisecond) },
		}
	})
}

// TestConformanceReal runs the same suite on the wall-clock runtime.
func TestConformanceReal(t *testing.T) {
	conformance.Run(t, func(t *testing.T) *conformance.Cluster {
		r := rt.NewReal()
		t.Cleanup(r.Stop)
		n := New(r, Config{Nodes: 3, Latency: 100 * time.Microsecond, Seed: 11})
		var wg sync.WaitGroup
		return &conformance.Cluster{
			Endpoint:  func(int) transport.Transport { return n },
			Endpoints: 3,
			Spawn: func(fn func()) {
				wg.Add(1)
				r.Go("conf", func() {
					defer wg.Done()
					fn()
				})
			},
			Settle: func() {
				done := make(chan struct{})
				go func() { wg.Wait(); close(done) }()
				select {
				case <-done:
				case <-time.After(30 * time.Second):
					t.Fatal("conformance processes did not settle")
				}
			},
			Msg:   func(id, size int) transport.Message { return testMsg{id: id, bytes: size} },
			MsgID: func(m any) int { return m.(testMsg).id },
			Yield: func() { r.Sleep(200 * time.Microsecond) },
		}
	})
}

func TestLatencyApplied(t *testing.T) {
	s := rt.NewSim()
	n := New(s, Config{Nodes: 2, Latency: 100 * time.Microsecond})
	var recvAt time.Duration
	s.Go("sender", func() { n.Send(0, 1, transport.Data, testMsg{1, 64}) })
	s.Go("receiver", func() {
		n.Inbox(1).Recv()
		recvAt = s.Now()
	})
	s.Run(time.Second)
	if recvAt != 100*time.Microsecond {
		t.Fatalf("delivered at %v, want 100µs", recvAt)
	}
	s.Stop()
}

func TestPerLinkFIFOWithJitter(t *testing.T) {
	s := rt.NewSim()
	n := New(s, Config{Nodes: 2, Latency: 50 * time.Microsecond, Jitter: 200 * time.Microsecond, Seed: 7})
	var got []int
	s.Go("sender", func() {
		for i := 0; i < 50; i++ {
			n.Send(0, 1, transport.Replication, testMsg{i, 32})
		}
	})
	s.Go("receiver", func() {
		for i := 0; i < 50; i++ {
			got = append(got, n.Inbox(1).Recv().(testMsg).id)
		}
	})
	s.Run(time.Second)
	for i, id := range got {
		if id != i {
			t.Fatalf("message %d arrived out of order (got id %d); FIFO violated", i, id)
		}
	}
	s.Stop()
}

func TestBandwidthPacing(t *testing.T) {
	s := rt.NewSim()
	// 1 MB/s: a 100 KB message takes 100ms of wire time.
	n := New(s, Config{Nodes: 2, Latency: 0, Bandwidth: 1 << 20})
	var last time.Duration
	s.Go("sender", func() {
		for i := 0; i < 5; i++ {
			n.Send(0, 1, transport.Data, testMsg{i, 100 << 10})
		}
	})
	s.Go("receiver", func() {
		for i := 0; i < 5; i++ {
			n.Inbox(1).Recv()
			last = s.Now()
		}
	})
	s.Run(10 * time.Second)
	// 5 * 100KB at 1MB/s ≈ 488ms serialisation.
	want := time.Duration(5 * float64(100<<10) / float64(1<<20) * float64(time.Second))
	if last < want-10*time.Millisecond || last > want+10*time.Millisecond {
		t.Fatalf("last delivery at %v, want ≈%v (bandwidth pacing)", last, want)
	}
	s.Stop()
}

func TestEgressSharedAcrossDestinations(t *testing.T) {
	s := rt.NewSim()
	n := New(s, Config{Nodes: 3, Latency: 0, Bandwidth: 1 << 20})
	var t1, t2 time.Duration
	s.Go("sender", func() {
		n.Send(0, 1, transport.Data, testMsg{1, 512 << 10})
		n.Send(0, 2, transport.Data, testMsg{2, 512 << 10})
	})
	s.Go("r1", func() { n.Inbox(1).Recv(); t1 = s.Now() })
	s.Go("r2", func() { n.Inbox(2).Recv(); t2 = s.Now() })
	s.Run(10 * time.Second)
	// Second message waits for the first on the shared NIC: ~0.5s then ~1s.
	if t1 < 400*time.Millisecond || t2 < 900*time.Millisecond {
		t.Fatalf("t1=%v t2=%v; egress must be shared per node", t1, t2)
	}
	s.Stop()
}

// FIFO must survive the combination of jitter and bandwidth pacing —
// exactly the conditions STAR's operation replication depends on (§5).
func TestPerLinkFIFOUnderBandwidthAndJitter(t *testing.T) {
	s := rt.NewSim()
	n := New(s, Config{
		Nodes:     2,
		Latency:   30 * time.Microsecond,
		Jitter:    500 * time.Microsecond,
		Bandwidth: 1 << 22, // 4 MB/s: pacing interleaves with jitter
		Seed:      99,
	})
	const msgs = 200
	var got []int
	s.Go("sender", func() {
		for i := 0; i < msgs; i++ {
			n.Send(0, 1, transport.Replication, testMsg{i, 100 + i%700})
		}
	})
	s.Go("receiver", func() {
		for i := 0; i < msgs; i++ {
			got = append(got, n.Inbox(1).Recv().(testMsg).id)
		}
	})
	s.Run(10 * time.Second)
	if len(got) != msgs {
		t.Fatalf("delivered %d/%d", len(got), msgs)
	}
	for i, id := range got {
		if id != i {
			t.Fatalf("message %d out of order (id %d)", i, id)
		}
	}
	s.Stop()
}
