package tcpnet

import (
	"net"
	"runtime"
	"testing"
	"time"

	"star/internal/core"
	"star/internal/metrics"
	"star/internal/rt"
	"star/internal/txn"
	"star/internal/workload/ycsb"
)

// loopbackPair is two engines in one process, each hosting one node with
// one worker over its own Network on 127.0.0.1 — node 0 the full replica
// and coordinator, node 1 the partial replica. With GOMAXPROCS(2) that
// is as many busy workers as processors: the configuration in which a
// worker loop that never yields starves everything else.
type loopbackPair struct {
	r    *rt.Real
	nets [2]*Network
	eng  [2]*core.Engine
	wl   *ycsb.Workload
}

func newLoopbackPair(tb testing.TB, crossPct int, mod func(*core.Config)) *loopbackPair {
	tb.Helper()
	prev := runtime.GOMAXPROCS(2)
	tb.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	newWorkload := func() *ycsb.Workload {
		return ycsb.New(ycsb.Config{Partitions: 2, RecordsPerPartition: 2000, CrossPct: crossPct})
	}
	p := &loopbackPair{r: rt.NewReal(), wl: newWorkload()}
	var lns [2]net.Listener
	var addrs [2]string
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			tb.Fatalf("listen: %v", err)
		}
		lns[i], addrs[i] = ln, ln.Addr().String()
	}
	endpoints := []string{addrs[0], addrs[1], addrs[0]} // endpoint 2: the coordinator
	local := [2][]int{{0, 2}, {1}}
	for i := range p.nets {
		nw, err := New(p.r, Config{
			Endpoints: endpoints, Local: local[i],
			Codec: core.NewWireCodec(newWorkload()), Listener: lns[i],
		})
		if err != nil {
			tb.Fatalf("tcpnet.New: %v", err)
		}
		p.nets[i] = nw
	}
	tb.Cleanup(func() {
		p.r.Stop()
		for _, nw := range p.nets {
			nw.Close()
		}
	})
	// Node 1 first: the coordinator starts phases as soon as it exists.
	for _, id := range []int{1, 0} {
		cfg := core.Config{
			RT:               p.r,
			Nodes:            2,
			WorkersPerNode:   1,
			Workload:         newWorkload(),
			Transport:        p.nets[id],
			LocalNodes:       []int{id},
			LocalCoordinator: id == 0,
			Iteration:        2 * time.Millisecond,
			Seed:             7,
		}
		if mod != nil {
			mod(&cfg)
		}
		p.eng[id] = core.New(cfg)
	}
	return p
}

func (p *loopbackPair) stats() metrics.Snapshot { return p.eng[0].StatsSnapshot() }

func (p *loopbackPair) awaitEpochs(tb testing.TB, n int64) {
	tb.Helper()
	target := p.stats().Counters["epochs"] + n
	deadline := time.Now().Add(30 * time.Second)
	for p.stats().Counters["epochs"] < target {
		if time.Now().After(deadline) {
			tb.Fatalf("epochs stalled at %d, want %d", p.stats().Counters["epochs"], target)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestLoopbackBusyWorkersClientWritesAnswered drives ticketed client
// writes through node 1's gate while both workers run flat out on two
// processors: every write must be
// answered (its response rides the next phase command, so a starved
// control plane shows as a timeout), and the replicas must converge —
// operation entries apply in arrival order, so a yield point or a
// sender-side write that reordered a link would diverge them.
func TestLoopbackBusyWorkersClientWritesAnswered(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP integration test skipped in -short")
	}
	// No generated cross-partition work: the master queue then holds
	// only this test's writes, each committing in the next backlog-forced
	// single-master slice, instead of waiting out a deferred backlog
	// whose depth is a random walk (minutes under the race detector).
	p := newLoopbackPair(t, 0, nil)
	p.awaitEpochs(t, 1)
	gate := p.eng[1].Gate(1)
	const writes = 150
	for i := 0; i < writes; i++ {
		// Alternate single-partition and cross-partition footprints; both
		// are forwarded to the master and commit in a single-master phase.
		parts, rows := []int{i % 2}, []int{i % 50}
		if i%3 == 0 {
			parts, rows = []int{0, 1}, []int{i % 50, (i + 1) % 50}
		}
		req := txn.NewRequest(p.wl.WriteTxn(parts, rows, []byte{byte(i), byte(i >> 8)}), int64(p.r.Now()))
		ch := gate.Submit(1, core.ClientReq{Req: req})
		select {
		case m, ok := <-ch:
			resp, _ := m.(core.ClientResp)
			if !ok || resp.Status != core.StatusOK {
				t.Fatalf("write %d: ok=%v resp=%+v", i, ok, resp)
			}
			if resp.Token == 0 {
				t.Fatalf("write %d answered without a commit-epoch token", i)
			}
		case <-time.After(20 * time.Second):
			t.Fatalf("write %d unanswered (epochs=%d)", i, p.stats().Counters["epochs"])
		}
	}
	for i, e := range p.eng {
		if h, why := e.Halted(); h {
			t.Fatalf("engine %d halted: %s", i, why)
		}
	}
	if f := p.eng[0].FailedNodes(); len(f) > 0 {
		t.Fatalf("coordinator evicted %v", f)
	}
	for _, e := range p.eng {
		e.Freeze()
	}
	p.awaitEpochs(t, 6)
	for part := 0; part < 2; part++ {
		a, b := p.eng[0].DB(0).PartitionChecksum(part), p.eng[1].DB(1).PartitionChecksum(part)
		if a != b {
			t.Fatalf("partition %d diverged: node 0 %x, node 1 %x", part, a, b)
		}
	}
}

// BenchmarkPhaseSwitch reports what one epoch costs beyond its slice on
// a two-engine loopback cluster, workers == processors. idle: the
// cluster is frozen, every phase ends at once, and ns/op is the whole
// control round (command, reports, markers, acks). loaded: workers run
// flat out; ns/op is the full epoch and switch-us/epoch is the part that
// is neither slice nor useful work — phase overrun plus fence, from the
// coordinator's own histograms. Numbers, not assertions.
func BenchmarkPhaseSwitch(b *testing.B) {
	for _, mode := range []string{"idle", "loaded"} {
		b.Run(mode, func(b *testing.B) {
			p := newLoopbackPair(b, 10, nil)
			if mode == "idle" {
				for _, e := range p.eng {
					e.Freeze()
				}
			}
			p.awaitEpochs(b, 20) // warm-up: dials, tuner, latency estimate
			before := p.stats()
			b.ResetTimer()
			p.awaitEpochs(b, int64(b.N))
			b.StopTimer()
			after := p.stats()
			epochs := float64(after.Counters["epochs"] - before.Counters["epochs"])
			switchNs := float64(after.Hists["phase_overrun"].Sum-before.Hists["phase_overrun"].Sum) +
				float64(after.Hists["fence"].Sum-before.Hists["fence"].Sum)
			b.ReportMetric(switchNs/epochs/1e3, "switch-us/epoch")
		})
	}
}
