package tcpnet

import (
	"fmt"
	"net"
	"testing"
	"time"

	"star/internal/core"
	"star/internal/rt"
	"star/internal/workload/ycsb"
)

// TestLoopbackJoinFromNodeOnlyProcess pins the coordinator's one intake:
// a membership request is a message, so a process that hosts only a node
// can ask for one. Three process-sides on loopback, a 3-slot cluster with
// members {0, 1}: A hosts node 0 and the coordinator, B hosts node 1, C
// the dark slot 2. B — which does not host the coordinator — asks for
// slot 2's join; the slot must be admitted everywhere, and after a freeze
// every holder of every partition must agree.
func TestLoopbackJoinFromNodeOnlyProcess(t *testing.T) {
	if testing.Short() {
		t.Skip("loopback TCP integration test skipped in -short")
	}
	const slots, workers = 3, 2
	ycfg := ycsb.Config{Partitions: slots * workers, RecordsPerPartition: 256}

	r := rt.NewReal()
	defer r.Stop()
	listeners := make([]net.Listener, slots)
	endpoints := make([]string, slots+1)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i], endpoints[i] = ln, ln.Addr().String()
	}
	endpoints[slots] = endpoints[0] // the coordinator lives with node 0

	engines := make([]*core.Engine, slots) // engines[i] hosts node i
	for i := slots - 1; i >= 0; i-- {
		w := ycsb.New(ycfg)
		local := []int{i}
		if i == 0 {
			local = append(local, slots)
		}
		nw, err := New(r, Config{Endpoints: endpoints, Local: local, Codec: core.NewWireCodec(w), Listener: listeners[i]})
		if err != nil {
			t.Fatalf("tcpnet.New: %v", err)
		}
		defer nw.Close()
		engines[i] = core.New(core.Config{
			RT:               r,
			Nodes:            slots,
			WorkersPerNode:   workers,
			Workload:         w,
			Seed:             int64(7 + i),
			Transport:        nw,
			LocalNodes:       []int{i},
			LocalCoordinator: i == 0,
			Iteration:        2 * time.Millisecond,
			Members:          []int{0, 1},
		})
	}
	coord, asker := engines[0], engines[1]

	admitted := func() bool {
		for _, e := range engines {
			if !e.Topology().IsMember(2) {
				return false
			}
		}
		return true
	}
	for deadline := time.Now().Add(30 * time.Second); !admitted(); {
		if time.Now().After(deadline) {
			t.Fatalf("slot 2 never admitted: the coordinator's view has members %v", coord.Topology().Members())
		}
		asker.RequestJoin(2) // repeated like star-node -join: a refused join is asked again
		time.Sleep(500 * time.Millisecond)
	}

	for _, e := range engines {
		e.Freeze()
	}
	var mismatch error
	for deadline := time.Now().Add(30 * time.Second); ; {
		time.Sleep(200 * time.Millisecond)
		if mismatch = holdersAgree(engines); mismatch == nil && len(coord.FailedNodes()) == 0 {
			break
		}
		for _, id := range coord.FailedNodes() {
			coord.RequestJoin(id) // a member evicted for a late report rejoins
		}
		if time.Now().After(deadline) {
			t.Fatalf("holders never converged after the join: %v (failed %v)", mismatch, coord.FailedNodes())
		}
	}
	if halted, reason := coord.Halted(); halted {
		t.Fatalf("cluster halted: %s", reason)
	}
}

// holdersAgree compares every partition's checksum across its holders
// under the coordinator's installed layout, each read from the engine
// that hosts the holder.
func holdersAgree(engines []*core.Engine) error {
	topo := engines[0].Topology()
	for p := 0; p < topo.Partitions; p++ {
		holders := topo.HoldersOf(p)
		want := engines[holders[0]].DB(holders[0]).PartitionChecksum(p)
		for _, h := range holders[1:] {
			if got := engines[h].DB(h).PartitionChecksum(p); got != want {
				return fmt.Errorf("partition %d: node %d has %x, node %d %x", p, h, got, holders[0], want)
			}
		}
	}
	return nil
}
