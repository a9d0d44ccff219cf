package tcpnet

import (
	"net"
	"reflect"
	"testing"
	"time"

	"star/internal/core"
	"star/internal/faultnet"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/wire"
	"star/internal/wire/prim"
	"star/internal/workload/tpcc"
)

func loopbackTPCC(nodes, workers int) tpcc.Config {
	return tpcc.Config{
		Warehouses:           nodes * workers,
		Districts:            2,
		CustomersPerDistrict: 300,
		Items:                2000,
	}
}

// loopbackFullMixTPCC is the standard-weighted four-transaction mix
// with cross-partition Stock-Level, so deferred Delivery batches and
// snapshot-served read-only scans both cross the real sockets.
func loopbackFullMixTPCC(nodes, workers int) tpcc.Config {
	cfg := loopbackTPCC(nodes, workers)
	cfg.SetFullMix()
	cfg.CrossPctStockLevel = 50
	return cfg
}

// TestLoopbackTPCCMatchesSimnet is the transport-equivalence
// integration test: a 2-node paper-mix TPC-C scripted run carried over
// real TCP sockets on 127.0.0.1 (two process-sides, each hosting one
// node, the first also hosting the coordinator) must produce exactly
// the committed-transaction count and post-fence replica checksums of
// the same run on the in-process simulated network with the same seed.
func TestLoopbackTPCCMatchesSimnet(t *testing.T) {
	loopbackMatchesSimnet(t, loopbackTPCC, false)
}

// TestLoopbackFullMixTPCCMatchesSimnet repeats the equivalence check
// with the standard-weighted full TPC-C mix and snapshot reads on:
// deferred Delivery batches and cross-partition Stock-Level parameters
// cross the real sockets, read-only transactions are served from each
// process's fence snapshot, and the result still matches simnet
// bit-for-bit.
func TestLoopbackFullMixTPCCMatchesSimnet(t *testing.T) {
	loopbackMatchesSimnet(t, loopbackFullMixTPCC, true)
}

func loopbackMatchesSimnet(t *testing.T, wcfg func(nodes, workers int) tpcc.Config, snapshotReads bool) {
	if testing.Short() {
		t.Skip("loopback TCP integration test skipped in -short")
	}
	const (
		nodes, workers = 2, 2
		txns           = 60
		seed           = 42
	)
	mkConfig := func(r rt.Runtime) core.Config {
		cfg := core.Config{
			RT:             r,
			Nodes:          nodes,
			WorkersPerNode: workers,
			Workload:       tpcc.New(wcfg(nodes, workers)),
			Seed:           seed,
			SnapshotReads:  snapshotReads,
		}
		return cfg
	}

	// Reference: the deterministic simnet run.
	sim := rt.NewSim()
	simRun := core.StartScripted(mkConfig(sim), core.Script{TxnsPerPartition: txns})
	sim.Run(sim.Now() + time.Hour)
	var want core.ScriptResult
	select {
	case want = <-simRun.Done():
	default:
		t.Fatal("simnet scripted run did not finish")
	}
	sim.Stop()
	if want.Err != "" {
		t.Fatalf("simnet run failed: %s", want.Err)
	}
	if want.Committed == 0 {
		t.Fatal("simnet run committed nothing")
	}

	// TCP cluster: two process-sides on loopback. Endpoints 0 and 1 are
	// the nodes; endpoint 2 is the coordinator, hosted with node 0.
	r := rt.NewReal()
	listeners := make([]net.Listener, 2)
	addrs := make([]string, 2)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	endpoints := []string{addrs[0], addrs[1], addrs[0]}
	mkNet := func(localEPs []int, ln net.Listener) *Network {
		codec := core.NewWireCodec(tpcc.New(wcfg(nodes, workers)))
		nw, err := New(r, Config{Endpoints: endpoints, Local: localEPs, Codec: codec, Listener: ln})
		if err != nil {
			t.Fatalf("tcpnet.New: %v", err)
		}
		return nw
	}
	netA := mkNet([]int{0, 2}, listeners[0])
	netB := mkNet([]int{1}, listeners[1])

	cfgA := mkConfig(r)
	cfgA.Transport, cfgA.LocalNodes, cfgA.LocalCoordinator = netA, []int{0}, true
	cfgB := mkConfig(r)
	cfgB.Transport, cfgB.LocalNodes = netB, []int{1}

	runB := core.StartScripted(cfgB, core.Script{TxnsPerPartition: txns})
	runA := core.StartScripted(cfgA, core.Script{TxnsPerPartition: txns})

	var got core.ScriptResult
	select {
	case got = <-runA.Done():
	case <-time.After(3 * time.Minute):
		t.Fatal("TCP scripted run did not finish")
	}
	select {
	case <-runB.Done():
	case <-time.After(time.Minute):
		t.Fatal("node-only process never received the halt")
	}
	r.Stop()
	netA.Close()
	netB.Close()

	if got.Err != "" {
		t.Fatalf("TCP run failed: %s", got.Err)
	}
	// Both sides' partitioned phases shipped their updates as operation
	// entries through the real codec, into the peer's two applier shards.
	for i, run := range []*core.ScriptRun{runA, runB} {
		snap := run.E.StatsSnapshot()
		if c := snap.Counters; c["repl_op_entries"] == 0 || c["repl_value_entries"] == 0 {
			t.Fatalf("process %d shipped %d operation and %d value entries, want both", i, c["repl_op_entries"], c["repl_value_entries"])
		}
		// Every frame the real codec carried passed the entry check.
		if n := snap.Counters["frames_refused"]; n != 0 {
			t.Fatalf("process %d refused %d of its own cluster's frames", i, n)
		}
		// repl_entry_bytes prices each entry in its envelope's context, as
		// the codec encodes it: what the sockets carried in the replication
		// class is exactly that plus, per message (an envelope or a fence's
		// epoch mark), the frame and a header of three small uvarints.
		entries, msgs, carried := snap.Counters["repl_entry_bytes"], snap.Gauges["repl_msgs"], snap.Gauges["repl_bytes"]
		if over := carried - entries; over < msgs*(prim.FrameOverhead+3) || over > msgs*(prim.FrameOverhead+12) {
			t.Fatalf("process %d: sockets carried %d replication bytes in %d messages for %d counted entry bytes", i, carried, msgs, entries)
		}
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("TCP run diverged from simnet run:\n got %+v\nwant %+v", got, want)
	}
}

// TestLoopbackDecodeErrorsPublished: a peer that speaks another wire —
// here its envelope holds an op kind this build does not know, as a
// build from before OpSetBytes meets a YCSB write — has the link it sent
// on closed, which the cluster sees only as a silent peer. The engine
// publishes the transport's count as the net_decode_errors gauge (beside
// net_shed_frames), where /metrics and star-admin read it — also through
// a fault injector wrapped around the transport (star-node -faults).
func TestLoopbackDecodeErrorsPublished(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP integration test skipped in -short")
	}
	for _, c := range []struct {
		name string
		mod  func(*core.Config)
	}{
		{"tcpnet", nil},
		{"faultnet over tcpnet", func(cfg *core.Config) { cfg.Transport = faultnet.Wrap(cfg.RT, cfg.Transport, faultnet.Plan{}) }},
	} {
		t.Run(c.name, func(t *testing.T) { decodeErrorsPublished(t, newLoopbackPair(t, 0, c.mod)) })
	}
}

// decodeErrorsPublished sends node 0 of p an envelope it cannot decode
// and waits for its engine's net_decode_errors gauge to count it.
func decodeErrorsPublished(t *testing.T, p *loopbackPair) {
	if g := p.stats().Gauges; g["net_decode_errors"] != 0 {
		t.Fatalf("net_decode_errors reads %d before any bad frame", g["net_decode_errors"])
	} else if _, ok := g["net_shed_frames"]; !ok {
		t.Fatalf("no net_shed_frames gauge among %v", g)
	}
	env := &replication.Batch{From: 1, Epoch: 1, Entries: []replication.Entry{{Key: storage.K1(1), TID: storage.MakeTID(1, 1),
		Ops: []storage.FieldOp{storage.NewFieldOp(1, storage.OpSetBytes+1, []byte("v"))}}}}
	frame, err := wire.AppendFrame(nil, 1, 0, transport.Replication, core.NewWireCodec(p.wl), env)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.Dial("tcp", p.nets[0].Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn.Write(frame)
	defer conn.Close()
	for deadline := time.Now().Add(10 * time.Second); p.stats().Gauges["net_decode_errors"] == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("an envelope its receiver cannot decode left net_decode_errors at 0")
		}
	}
}
