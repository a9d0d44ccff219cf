package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"star/internal/client"
	"star/internal/core"
	"star/internal/faultnet"
	"star/internal/rt"
	"star/internal/tcpnet"
	"star/internal/transport"
	"star/internal/wire"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

// buildStarNode compiles the star-node binary into a temp dir.
func buildStarNode(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "star-node")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// freePorts reserves n distinct loopback ports. The listeners close
// before the processes start, so a port could in principle be stolen in
// between — acceptable for a test that runs in seconds.
func freePorts(t *testing.T, n int) []string {
	t.Helper()
	addrs := make([]string, n)
	listeners := make([]net.Listener, n)
	for i := range addrs {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	for _, ln := range listeners {
		ln.Close()
	}
	return addrs
}

// buildStarAdmin compiles the star-admin binary into a temp dir.
func buildStarAdmin(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "star-admin")
	build := exec.Command("go", "build", "-o", bin, "star/cmd/star-admin")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build star-admin: %v\n%s", err, out)
	}
	return bin
}

// openAdminDoor opens a client front door on the in-process engine's node
// 0 and dials an admin client at it: freeze fans out from the door, and
// node-scoped ops for the child are forwarded to it over the cluster
// transport — the path star-admin takes against any live door.
func openAdminDoor(t *testing.T, eng *core.Engine, codec *wire.Codec) *client.Client {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("front door listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	eng.ServeClients(0, ln, codec, 0)
	// A dead or evicted child never answers a forwarded op: keep the
	// round trip short so the convergence loops can re-issue the rejoin.
	ac, err := client.Dial(client.Config{Addr: ln.Addr().String(), Codec: core.NewWireCodec(nil), ReqTimeout: 3 * time.Second})
	if err != nil {
		t.Fatalf("admin dial: %v", err)
	}
	t.Cleanup(func() { ac.Close() })
	return ac
}

// TestStarNodeProcessesMatchSimnet is the acceptance check for the
// multi-process path: two actual star-node OS processes (N=2 on
// loopback) complete a TPC-C run whose committed-transaction count and
// post-fence replica checksums exactly match the in-process simnet run
// with the same seed.
func TestStarNodeProcessesMatchSimnet(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test skipped in -short")
	}
	const (
		nodes, workers = 2, 2
		txns           = 40
		seed           = int64(7)
	)
	w := func() *tpcc.Workload {
		// Mirrors the star-node defaults for -districts/-customers/-items.
		return tpcc.New(tpcc.Config{
			Warehouses:           nodes * workers,
			Districts:            2,
			CustomersPerDistrict: 300,
			Items:                2000,
		})
	}

	// Reference result from the in-process simulated cluster.
	sim := rt.NewSim()
	simRun := core.StartScripted(core.Config{
		RT: sim, Nodes: nodes, WorkersPerNode: workers, Workload: w(), Seed: seed,
	}, core.Script{TxnsPerPartition: txns})
	sim.Run(sim.Now() + time.Hour)
	var want core.ScriptResult
	select {
	case want = <-simRun.Done():
	default:
		t.Fatal("simnet scripted run did not finish")
	}
	sim.Stop()
	if want.Err != "" || want.Committed == 0 {
		t.Fatalf("bad simnet reference: %+v", want)
	}

	bin := buildStarNode(t)

	addrs := freePorts(t, nodes)
	addrList := addrs[0] + "," + addrs[1]
	args := func(id string) []string {
		return []string{
			"-id", id, "-nodes", "2", "-workers", "2", "-txns", "40", "-seed", "7",
			"-addrs", addrList,
		}
	}
	node1 := exec.Command(bin, args("1")...)
	if err := node1.Start(); err != nil {
		t.Fatalf("start node 1: %v", err)
	}
	defer node1.Process.Kill()
	node0 := exec.Command(bin, args("0")...)
	out, err := node0.Output()
	if err != nil {
		t.Fatalf("node 0: %v (output %q)", err, out)
	}
	if err := node1.Wait(); err != nil {
		t.Fatalf("node 1 exited with error: %v", err)
	}

	var got core.ScriptResult
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("parse node 0 output %q: %v", out, err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("star-node cluster diverged from simnet run:\n got %+v\nwant %+v", got, want)
	}
}

// TestStarNodeScriptedRunWithDarkSlot: -members does not need -serve. A
// scripted run over three provisioned slots with two members — no process
// at all behind the third address — completes, reports the two members'
// checksums and nothing for the dark slot, and matches the in-process
// simnet run of the same configuration.
func TestStarNodeScriptedRunWithDarkSlot(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test skipped in -short")
	}
	const nodes, workers, txns, seed = 3, 2, 30, int64(5)
	sim := rt.NewSim()
	simRun := core.StartScripted(core.Config{
		RT: sim, Nodes: nodes, WorkersPerNode: workers, Seed: seed, Members: []int{0, 1},
		Workload: tpcc.New(tpcc.Config{Warehouses: nodes * workers, Districts: 2, CustomersPerDistrict: 300, Items: 2000}),
	}, core.Script{TxnsPerPartition: txns})
	sim.Run(sim.Now() + time.Hour)
	var want core.ScriptResult
	select {
	case want = <-simRun.Done():
	default:
		t.Fatal("simnet scripted run did not finish")
	}
	sim.Stop()
	if want.Err != "" || want.Committed == 0 {
		t.Fatalf("bad simnet reference: %+v", want)
	}

	bin := buildStarNode(t)
	addrs := strings.Join(freePorts(t, nodes), ",")
	args := func(id string) []string {
		return []string{"-id", id, "-nodes", "3", "-members", "0,1", "-workers", "2", "-txns", "30", "-seed", "5", "-addrs", addrs}
	}
	node1 := exec.Command(bin, args("1")...)
	node1.Stderr = os.Stderr
	if err := node1.Start(); err != nil {
		t.Fatalf("start node 1: %v", err)
	}
	defer node1.Process.Kill()
	out, err := exec.Command(bin, args("0")...).Output()
	if err != nil {
		t.Fatalf("node 0: %v (output %q)", err, out)
	}
	if err := node1.Wait(); err != nil {
		t.Fatalf("node 1 exited with error: %v", err)
	}
	var got core.ScriptResult
	if err := json.Unmarshal(out, &got); err != nil {
		t.Fatalf("parse node 0 output %q: %v", out, err)
	}
	if len(got.Checksums) != 2 || got.Checksums[0].Node != 0 || got.Checksums[1].Node != 1 {
		t.Fatalf("checksums %+v, want members 0 and 1 and nothing for the dark slot", got.Checksums)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("star-node cluster diverged from simnet run:\n got %+v\nwant %+v", got, want)
	}
}

// TestStarNodeKillRestartSnapshotCatchUp is the multi-process failure
// test the PR 3 follow-up asked for: a star-node OS process is killed
// mid-run, the surviving process's coordinator detects the failure,
// reverts the in-flight epoch and keeps committing; the victim is then
// restarted from scratch, re-admitted the way an operator would — a join
// of the failed member through a front door (star-admin -node 1 join) —
// by the snapshot catch-up protocol (msgStartRecovery / msgSnapshot over
// real TCP), and — after a cluster-wide freeze settles replication — its
// partition checksums must converge to the survivor's.
//
// Topology: this test process hosts node 0 and the coordinator
// (endpoint 2) on one listener, plus a front door on node 0 that an
// admin client observes the cluster through; node 1 is a real
// star-node child process in -serve (time-driven) mode, running the
// full TPC-C mix.
func TestStarNodeKillRestartSnapshotCatchUp(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process failure test skipped in -short")
	}
	const (
		nodes, workers = 2, 2
		seed           = int64(3)
	)
	bin := buildStarNode(t)
	addrs := freePorts(t, nodes)
	addrList := addrs[0] + "," + addrs[1]

	wcfg := tpcc.Config{
		Warehouses:           nodes * workers,
		Districts:            2,
		CustomersPerDistrict: 300,
		Items:                2000,
	}
	wcfg.SetFullMix()
	w := tpcc.New(wcfg)

	// Endpoints: nodes 0/1 and the coordinator (2); everything but node 1
	// lives in this process, on one listener.
	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	endpoints := []string{addrs[0], addrs[1], addrs[0]}
	r := rt.NewReal()
	codec := core.NewWireCodec(w)
	netA, err := tcpnet.New(r, tcpnet.Config{
		Endpoints: endpoints,
		Local:     []int{0, 2},
		Codec:     codec,
		Listener:  ln,
	})
	if err != nil {
		t.Fatalf("tcpnet.New: %v", err)
	}
	defer netA.Close()

	// The restarted incarnation runs with a fresh seed: TPC-C's loader is
	// seed-independent (replicas stay byte-identical), but a same-seed
	// restart would regenerate the first life's history keys and collide
	// with the rows the snapshot catch-up restores — every such payment
	// would abort. A new process identity is what an operator would
	// deploy anyway.
	startChild := func(seed string) *exec.Cmd {
		cmd := exec.Command(bin,
			"-id", "1", "-nodes", "2", "-workers", "2", "-seed", seed,
			"-addrs", addrList, "-mix", "full",
			"-serve", "-iteration", "2ms",
		)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start star-node child: %v", err)
		}
		return cmd
	}
	kill := func(cmd *exec.Cmd) {
		cmd.Process.Kill()
		cmd.Wait()
	}

	// Child first (its workers idle until the coordinator speaks), then
	// the engine hosting node 0 + the time-driven coordinator.
	child := startChild("3")
	defer func() { kill(child) }()
	time.Sleep(200 * time.Millisecond)
	eng := core.New(core.Config{
		RT:               r,
		Nodes:            nodes,
		WorkersPerNode:   workers,
		Workload:         w,
		Seed:             seed,
		Transport:        netA,
		LocalNodes:       []int{0},
		LocalCoordinator: true,
		Iteration:        2 * time.Millisecond,
		SnapshotReads:    true,
	})
	defer r.Stop()

	waitCommitsGrow := func(label string, timeout time.Duration) {
		t.Helper()
		base := eng.Stats().Committed
		deadline := time.Now().Add(timeout)
		for eng.Stats().Committed <= base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: commits stalled at %d", label, base)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitCommitsGrow("healthy cluster", 15*time.Second)

	// Kill node 1 mid-run. The coordinator must detect the silence,
	// revert the in-flight epoch, re-master node 1's partitions onto the
	// full replica and keep committing.
	kill(child)
	time.Sleep(100 * time.Millisecond)
	waitCommitsGrow("after kill", 15*time.Second)

	// Restart the victim from scratch (fresh load state, empty counters)
	// and join it through the admin plane: the coordinator restores
	// connectivity, streams partition snapshots over TCP, and installs the
	// view that has it back. A join whose answer outlives the client's
	// timeout is simply asked again (it is idempotent on an alive member).
	child = startChild("1003")
	time.Sleep(200 * time.Millisecond)
	ac := openAdminDoor(t, eng, codec)
	for joinBy := time.Now().Add(15 * time.Second); ; {
		_, err := ac.Join(1)
		if err == nil {
			break
		}
		if time.Now().After(joinBy) {
			t.Fatalf("admin join of the restarted member: %v", err)
		}
	}
	waitCommitsGrow("after rejoin", 15*time.Second)

	// Freeze the whole cluster (node 0's door fans out to both nodes), let
	// fences settle in-flight replication, then compare the restarted
	// node's checksums with the survivor's until they converge. A node
	// whose phase report arrives a moment too late can be spuriously
	// re-failed by the view service — its state then legitimately diverges
	// until it rejoins — so the loop re-issues the join like an operator
	// would.
	if err := ac.Freeze(true); err != nil {
		t.Fatalf("admin freeze: %v", err)
	}
	deadline := time.Now().Add(30 * time.Second)
	lastRecover := time.Now()
	for {
		time.Sleep(100 * time.Millisecond)
		cs, err := ac.Checksums(1)
		mismatch := -1
		if err == nil {
			if len(cs.Parts) == 0 {
				t.Fatal("restarted node reported no partitions")
			}
			for i, p := range cs.Parts {
				if eng.DB(0).PartitionChecksum(int(p)) != cs.Sums[i] {
					mismatch = int(p)
					break
				}
			}
			if mismatch == -1 {
				break // converged
			}
		}
		if time.Since(lastRecover) > 3*time.Second {
			if _, err := ac.Join(1); err != nil {
				t.Logf("admin join: %v", err)
			}
			lastRecover = time.Now()
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("admin checksums: %v", err)
			}
			for i, p := range cs.Parts {
				t.Logf("part %d: node1=%x node0=%x", p, cs.Sums[i], eng.DB(0).PartitionChecksum(int(p)))
			}
			t.Logf("stats: %+v", eng.Stats().Extra)
			t.Fatalf("partition %d never converged after snapshot catch-up", mismatch)
		}
	}
	if halted, reason := eng.Halted(); halted {
		t.Fatalf("cluster halted: %s", reason)
	}
}

// TestStarNodeFaultPlanConverges exercises the multi-process chaos path:
// both processes (this test hosting node 0 + coordinator, and a real
// star-node child hosting node 1 started with -faults plan.json)
// inject the SAME self-terminating fault plan — Data-class drops,
// duplicates and reorders over real TCP. The cluster must keep
// committing through the fault window, and once the window closes the
// replicas must converge to identical partition checksums.
func TestStarNodeFaultPlanConverges(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process chaos test skipped in -short")
	}
	const (
		nodes, workers = 2, 2
		seed           = int64(11)
	)
	bin := buildStarNode(t)
	addrs := freePorts(t, nodes)
	addrList := addrs[0] + "," + addrs[1]

	// Self-terminating plan: the window closes by cluster epoch, with no
	// Heal() call anywhere — exactly how an unattended star-node run uses
	// -faults. Only the Data class carries per-frame faults (control and
	// replication streams assume reliable FIFO links; they are attacked
	// by whole-link partitions/crashes, covered by the kill/restart test
	// and the in-process soak).
	plan := faultnet.Plan{
		Seed: seed,
		Rules: []faultnet.Rule{{
			Src: faultnet.AnyNode, Dst: faultnet.AnyNode, Class: int(transport.Data),
			Drop: 0.05, Dup: 0.05, Reorder: 0.05, ReorderSpan: 3,
			Window: faultnet.Window{FromEpoch: 4, UntilEpoch: 40},
		}},
	}
	planPath := filepath.Join(t.TempDir(), "plan.json")
	if err := faultnet.SavePlan(planPath, plan); err != nil {
		t.Fatalf("save plan: %v", err)
	}

	wcfg := tpcc.Config{
		Warehouses:           nodes * workers,
		Districts:            2,
		CustomersPerDistrict: 300,
		Items:                2000,
	}
	wcfg.SetFullMix()
	w := tpcc.New(wcfg)

	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	endpoints := []string{addrs[0], addrs[1], addrs[0]}
	r := rt.NewReal()
	codec := core.NewWireCodec(w)
	netA, err := tcpnet.New(r, tcpnet.Config{
		Endpoints: endpoints,
		Local:     []int{0, 2},
		Codec:     codec,
		Listener:  ln,
	})
	if err != nil {
		t.Fatalf("tcpnet.New: %v", err)
	}
	defer netA.Close()
	fn := faultnet.Wrap(r, netA, plan)

	child := exec.Command(bin,
		"-id", "1", "-nodes", "2", "-workers", "2", "-seed", "11",
		"-addrs", addrList, "-mix", "full",
		"-serve", "-iteration", "2ms",
		"-faults", planPath,
	)
	if err := child.Start(); err != nil {
		t.Fatalf("start star-node child: %v", err)
	}
	defer func() { child.Process.Kill(); child.Wait() }()
	time.Sleep(200 * time.Millisecond)

	eng := core.New(core.Config{
		RT:               r,
		Nodes:            nodes,
		WorkersPerNode:   workers,
		Workload:         w,
		Seed:             seed,
		Transport:        fn,
		LocalNodes:       []int{0},
		LocalCoordinator: true,
		Iteration:        2 * time.Millisecond,
		SnapshotReads:    true,
	})
	defer r.Stop()

	waitCommitsGrow := func(label string, timeout time.Duration) {
		t.Helper()
		base := eng.Stats().Committed
		deadline := time.Now().Add(timeout)
		for eng.Stats().Committed <= base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: commits stalled at %d", label, base)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	waitCommitsGrow("healthy cluster", 15*time.Second)

	// Ride out the fault window: the cluster must keep committing while
	// Data frames vanish, double up and arrive out of order.
	deadline := time.Now().Add(20 * time.Second)
	for fn.Epoch() < plan.Rules[0].Window.UntilEpoch {
		if time.Now().After(deadline) {
			t.Fatalf("cluster never reached epoch %d (at %d)", plan.Rules[0].Window.UntilEpoch, fn.Epoch())
		}
		if halted, reason := eng.Halted(); halted {
			t.Fatalf("cluster halted inside the fault window: %s", reason)
		}
		time.Sleep(20 * time.Millisecond)
	}
	waitCommitsGrow("after fault window", 15*time.Second)

	// The plan must have fired on the child's side: deferred cross-
	// partition requests flow partial → full replica, so node 1 is where
	// the Data-class traffic originates. Its counters travel back over
	// the admin envelope, forwarded by node 0's door. (This process's own
	// fn sees near-zero Data sends — node 0 executes deferred work
	// locally — so its counters are informational only.)
	ac := openAdminDoor(t, eng, codec)
	childStats, err := ac.FaultStats(1)
	if err != nil {
		t.Fatalf("admin fault stats: %v", err)
	}
	var childTotal int64
	for _, v := range childStats {
		childTotal += v
	}
	if childTotal == 0 {
		t.Fatalf("child's -faults plan injected nothing: %v", childStats)
	}
	t.Logf("child injected: %v; node 0 side injected: %v", childStats, fn.Injected())

	// Freeze and require byte-identical partition checksums. A node that
	// lost a phase report to the faults may have been evicted — re-issue
	// the rejoin like an operator until it converges.
	if err := ac.Freeze(true); err != nil {
		t.Fatalf("admin freeze: %v", err)
	}
	deadline = time.Now().Add(30 * time.Second)
	lastRecover := time.Now()
	for {
		time.Sleep(100 * time.Millisecond)
		cs, err := ac.Checksums(1)
		mismatch := -1
		if err == nil {
			if len(cs.Parts) == 0 {
				t.Fatal("child reported no partitions")
			}
			for i, p := range cs.Parts {
				if eng.DB(0).PartitionChecksum(int(p)) != cs.Sums[i] {
					mismatch = int(p)
					break
				}
			}
			if mismatch == -1 {
				break // converged
			}
		}
		if time.Since(lastRecover) > 3*time.Second {
			if _, err := ac.Join(1); err != nil {
				t.Logf("admin join: %v", err)
			}
			lastRecover = time.Now()
		}
		if time.Now().After(deadline) {
			if err != nil {
				t.Fatalf("admin checksums: %v", err)
			}
			t.Fatalf("partition %d never converged after the fault window", mismatch)
		}
	}
	if halted, reason := eng.Halted(); halted {
		t.Fatalf("cluster halted: %s", reason)
	}
}

// TestStarNodeScaleOutJoinDrain is the live elastic-membership
// acceptance run: a 3-member cluster (capacity 4) of real processes
// under TPC-C load admits the dark 4th slot through the star-admin CLI
// at an epoch fence, every member's partition checksums converge
// byte-identically, a star-client session stays available and learns
// the new front door from a topology refresh — and then node 1 is
// drained out through ANOTHER node's door, its process exits 0, and the
// survivors re-converge.
//
// Topology: this test process hosts node 0 and the coordinator
// (endpoint 4) on one listener; nodes 1-3 are star-node children, each
// with a client front door. All control traffic in this test flows
// through the unified admin envelope: the star-admin binary drives
// freeze / checksums / fault-stats / join / drain / rebalance /
// topology against the live doors.
func TestStarNodeScaleOutJoinDrain(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test skipped in -short")
	}
	const (
		capacity, workers = 4, 2
		seed              = int64(13)
	)
	nodeBin := buildStarNode(t)
	adminBin := buildStarAdmin(t)

	ports := freePorts(t, capacity+3)
	addrs, doors := ports[:capacity], ports[capacity:] // doors for nodes 1..3
	addrList := strings.Join(addrs, ",")
	doorList := "," + strings.Join(doors, ",") // node 0 advertises no door

	// YCSB: its one wire-registered transaction doubles as the client
	// availability probe (star-client's session idiom).
	ycfg := ycsb.Config{Partitions: capacity * workers, RecordsPerPartition: 512}
	w := ycsb.New(ycfg)

	// Endpoints: nodes 0-3 plus the coordinator (4); node 0 and the
	// coordinator live in this process on one listener.
	ln, err := net.Listen("tcp", addrs[0])
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	endpoints := append(append([]string(nil), addrs...), addrs[0])
	r := rt.NewReal()
	netA, err := tcpnet.New(r, tcpnet.Config{
		Endpoints: endpoints,
		Local:     []int{0, capacity},
		Codec:     core.NewWireCodec(w),
		Listener:  ln,
	})
	if err != nil {
		t.Fatalf("tcpnet.New: %v", err)
	}
	defer netA.Close()

	startChild := func(id int, extra ...string) *exec.Cmd {
		cmd := exec.Command(nodeBin, append([]string{
			"-id", strconv.Itoa(id), "-nodes", "4", "-workers", "2", "-seed", "13",
			"-addrs", addrList, "-workload", "ycsb", "-records", "512",
			"-serve", "-snapshot-reads", "-iteration", "2ms",
			"-members", "0,1,2",
			"-client", doors[id-1], "-clients", doorList,
		}, extra...)...)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start star-node %d: %v", id, err)
		}
		return cmd
	}
	node1 := startChild(1)
	defer func() { node1.Process.Kill(); node1.Wait() }()
	node2 := startChild(2)
	defer func() { node2.Process.Kill(); node2.Wait() }()
	time.Sleep(200 * time.Millisecond)

	eng := core.New(core.Config{
		RT:               r,
		Nodes:            capacity,
		FullReplicas:     1,
		WorkersPerNode:   workers,
		Workload:         w,
		Seed:             seed,
		Transport:        netA,
		LocalNodes:       []int{0},
		LocalCoordinator: true,
		Iteration:        2 * time.Millisecond,
		SnapshotReads:    true,
		Members:          []int{0, 1, 2},
		ClientAddrs:      append([]string{""}, doors...),
	})
	defer r.Stop()

	waitCommitsGrow := func(label string, timeout time.Duration) {
		t.Helper()
		base := eng.Stats().Committed
		deadline := time.Now().Add(timeout)
		for eng.Stats().Committed <= base {
			if time.Now().After(deadline) {
				t.Fatalf("%s: commits stalled at %d", label, base)
			}
			time.Sleep(20 * time.Millisecond)
		}
	}
	adminTry := func(args ...string) (string, error) {
		out, err := exec.Command(adminBin, args...).CombinedOutput()
		return string(out), err
	}
	adminRun := func(args ...string) string {
		t.Helper()
		out, err := adminTry(args...)
		if err != nil {
			t.Fatalf("star-admin %v: %v\n%s", args, err, out)
		}
		return out
	}
	parseChecksums := func(out string) map[int]uint64 {
		sums := map[int]uint64{}
		for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
			var p int
			var s uint64
			if _, err := fmt.Sscanf(line, "part %d sum %x", &p, &s); err == nil {
				sums[p] = s
			}
		}
		return sums
	}
	// waitChecksums freezes nothing itself: callers freeze first. Every
	// listed node's reported partitions must match node 0's copy (the
	// full replica holds everything, so it is the reference). A node
	// spuriously evicted mid-check is re-joined like an operator would.
	waitChecksums := func(label, door string, nodes []int) {
		t.Helper()
		deadline := time.Now().Add(45 * time.Second)
		lastRecover := time.Now()
		for {
			time.Sleep(100 * time.Millisecond)
			mismatch := ""
			for _, n := range nodes {
				out, err := adminTry("-addr", door, "-node", strconv.Itoa(n), "-timeout", "5s", "checksums")
				if err != nil {
					mismatch = fmt.Sprintf("node %d: %v (%s)", n, err, strings.TrimSpace(out))
					break
				}
				sums := parseChecksums(out)
				if len(sums) == 0 {
					mismatch = fmt.Sprintf("node %d reported no partitions", n)
					break
				}
				for p, s := range sums {
					if eng.DB(0).PartitionChecksum(p) != s {
						mismatch = fmt.Sprintf("node %d partition %d diverges", n, p)
						break
					}
				}
				if mismatch != "" {
					break
				}
			}
			if mismatch == "" {
				return
			}
			if time.Since(lastRecover) > 3*time.Second {
				for _, id := range eng.FailedNodes() {
					eng.RequestJoin(id)
				}
				lastRecover = time.Now()
			}
			if time.Now().After(deadline) {
				t.Fatalf("%s: checksums never converged: %s", label, mismatch)
			}
		}
	}
	waitCommitsGrow("healthy 3-member cluster", 15*time.Second)

	door2 := doors[1]
	out := adminRun("-addr", door2, "topology")
	if !strings.Contains(out, "version 1\n") || strings.Contains(out, "member 3 ") {
		t.Fatalf("boot topology wrong:\n%s", out)
	}

	// A client session riding the doors, before, through, and after the
	// membership changes.
	wc := ycsb.New(ycfg)
	clCodec := core.NewWireCodec(wc)
	clStart := time.Now()
	clCodec.SetClock(func() int64 { return int64(time.Since(clStart)) })
	cl, err := client.Dial(client.Config{
		Addrs: append([]string(nil), doors...),
		Codec: clCodec,
	})
	if err != nil {
		t.Fatalf("client dial: %v", err)
	}
	defer cl.Close()
	readAll := func(label string) {
		t.Helper()
		for p := 0; p < capacity*workers; p++ {
			if _, err := cl.DoRetry(wc.ReadTxn([]int{p}, []int{0}), 20); err != nil {
				t.Fatalf("%s: client read of partition %d: %v", label, p, err)
			}
		}
	}
	readAll("before join")

	// Join the dark slot the way a new box does: start it with -join, and
	// its node-only process keeps asking (Engine.RequestJoin) until the
	// coordinator fences, streams partition snapshots to node 3 over TCP,
	// and installs v2.
	node3 := startChild(3, "-join")
	defer func() { node3.Process.Kill(); node3.Wait() }()
	for joinBy := time.Now().Add(90 * time.Second); !strings.Contains(out, "member 3 "); {
		if time.Now().After(joinBy) {
			t.Fatalf("star-node -join never admitted node 3:\n%s", out)
		}
		time.Sleep(200 * time.Millisecond)
		out = adminRun("-addr", door2, "topology")
	}
	waitCommitsGrow("after join", 15*time.Second)

	// All four members byte-identical under a cluster-wide freeze.
	adminRun("-addr", door2, "freeze")
	waitChecksums("after join", door2, []int{1, 2, 3})
	adminRun("-addr", door2, "unfreeze")
	waitCommitsGrow("after unfreeze", 15*time.Second)

	// The client learns the joined member's door from a topology refresh.
	if err := cl.RefreshTopology(); err != nil {
		t.Fatalf("client topology refresh: %v", err)
	}
	if eps := cl.Endpoints(); len(eps) != 3 {
		t.Fatalf("client endpoints after join = %v, want the 3 member doors", eps)
	}
	readAll("after join")

	// fault-stats must answer over the same envelope (empty: no -faults).
	adminRun("-addr", door2, "-node", "1", "fault-stats")

	// Drain node 1 through node 2's door — NOT its own, so the response
	// does not race its process exit. Its partitions migrate away at a
	// fence, v3 installs without it, and the process exits 0.
	out = adminRun("-addr", door2, "-node", "1", "-timeout", "90s", "drain")
	if strings.Contains(out, "member 1 ") {
		t.Fatalf("drain still reports node 1 as a member:\n%s", out)
	}
	exited := make(chan error, 1)
	go func() { exited <- node1.Wait() }()
	select {
	case err := <-exited:
		if err != nil {
			t.Fatalf("drained star-node exited with error: %v", err)
		}
	case <-time.After(20 * time.Second):
		t.Fatal("drained star-node did not exit")
	}
	waitCommitsGrow("after drain", 15*time.Second)

	// Rebalance over the shrunk member set: the canonical layout is
	// already installed, so this is a pure fence-coordinated version bump.
	adminRun("-addr", door2, "-timeout", "90s", "rebalance")

	// Survivors re-converge; the client sheds the drained door.
	adminRun("-addr", door2, "freeze")
	waitChecksums("after drain", door2, []int{2, 3})
	adminRun("-addr", door2, "unfreeze")
	readAll("after drain")
	if err := cl.RefreshTopology(); err != nil {
		t.Fatalf("client topology refresh after drain: %v", err)
	}
	eps := cl.Endpoints()
	if len(eps) != 2 || eps[0] != doors[1] || eps[1] != doors[2] {
		t.Fatalf("client endpoints after drain = %v, want [%s %s]", eps, doors[1], doors[2])
	}

	out = adminRun("-addr", door2, "topology")
	if strings.Contains(out, "member 1 ") || !strings.Contains(out, "member 3 ") {
		t.Fatalf("final topology wrong:\n%s", out)
	}
	if halted, reason := eng.Halted(); halted {
		t.Fatalf("cluster halted: %s", reason)
	}
}

// TestStarNodeObservabilityLiveCluster pins the observability plane on a
// live all-process cluster: the same node's committed counter must agree
// between the HTTP /metrics Prometheus scrape and the AdminStats wire
// envelope (sampled under a workload freeze so both paths see one stable
// state), the star-admin stat/top CLI must render the cluster-merged
// view, the coordinator's -trace file must be parseable ascending-epoch
// JSONL, out-of-range AdminStats targets must reject cleanly, and a
// process started WITHOUT -http must leave its reserved scrape port
// closed — no listener unless the flag is given.
func TestStarNodeObservabilityLiveCluster(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-process integration test skipped in -short")
	}
	const (
		nodes, workers = 2, 2
	)
	nodeBin := buildStarNode(t)
	adminBin := buildStarAdmin(t)

	ports := freePorts(t, nodes+4)
	addrs, doors := ports[:nodes], ports[nodes:nodes+2]
	httpAddr, darkAddr := ports[nodes+2], ports[nodes+3]
	addrList := strings.Join(addrs, ",")
	doorList := strings.Join(doors, ",")
	tracePath := filepath.Join(t.TempDir(), "timeline.jsonl")

	ycfg := ycsb.Config{Partitions: nodes * workers, RecordsPerPartition: 512}

	// Every process shares one flag line, -trace included: only the
	// coordinator-hosting process (id 0) may create the file — node 1
	// getting the same flag must not truncate it. Node 0 additionally
	// serves -http; node 1 does not, and darkAddr is the port it would
	// have been given.
	startChild := func(id int, extra ...string) *exec.Cmd {
		args := []string{
			"-id", strconv.Itoa(id), "-nodes", "2", "-workers", "2", "-seed", "21",
			"-addrs", addrList, "-workload", "ycsb", "-records", "512",
			"-serve", "-snapshot-reads", "-iteration", "2ms",
			"-client", doors[id], "-clients", doorList,
			"-trace", tracePath,
		}
		args = append(args, extra...)
		cmd := exec.Command(nodeBin, args...)
		if err := cmd.Start(); err != nil {
			t.Fatalf("start star-node %d: %v", id, err)
		}
		return cmd
	}
	node0 := startChild(0, "-http", httpAddr)
	defer func() { node0.Process.Kill(); node0.Wait() }()
	node1 := startChild(1)
	defer func() { node1.Process.Kill(); node1.Wait() }()

	// Admin through node 1's door: Stats(0) then exercises the internal
	// forwarding hop, not just the node-local answer.
	ac, err := client.Dial(client.Config{Addr: doors[1], Codec: core.NewWireCodec(nil)})
	if err != nil {
		t.Fatalf("admin dial: %v", err)
	}
	defer ac.Close()

	committedOf := func(node int) int64 {
		t.Helper()
		s, err := ac.Stats(node)
		if err != nil {
			t.Fatalf("admin stats node %d: %v", node, err)
		}
		return s.Counters["committed"]
	}
	deadline := time.Now().Add(20 * time.Second)
	for committedOf(0)+committedOf(1) == 0 {
		if time.Now().After(deadline) {
			t.Fatal("cluster committed nothing")
		}
		time.Sleep(50 * time.Millisecond)
	}

	// A short client session so the front-door paths see real traffic too.
	wc := ycsb.New(ycfg)
	clCodec := core.NewWireCodec(wc)
	clStart := time.Now()
	clCodec.SetClock(func() int64 { return int64(time.Since(clStart)) })
	cl, err := client.Dial(client.Config{Addrs: append([]string(nil), doors...), Codec: clCodec})
	if err != nil {
		t.Fatalf("client dial: %v", err)
	}
	defer cl.Close()
	val := []byte("observed")
	for i := 0; i < 8; i++ {
		p := i % (nodes * workers)
		if _, err := cl.DoRetry(wc.WriteTxn([]int{p}, []int{i}, val), 20); err != nil {
			t.Fatalf("client write %d: %v", i, err)
		}
		if _, err := cl.DoRetry(wc.ReadTxn([]int{p}, []int{i}), 20); err != nil {
			t.Fatalf("client read %d: %v", i, err)
		}
	}

	// Freeze the workload and wait for the committed counters to go quiet:
	// the scrape paths below must all sample one stable state or the
	// cross-path equality would race the workload.
	if err := ac.Freeze(true); err != nil {
		t.Fatalf("freeze: %v", err)
	}
	stable := int64(-1)
	deadline = time.Now().Add(15 * time.Second)
	for {
		cur := committedOf(0) + committedOf(1)
		if cur == stable {
			break
		}
		stable = cur
		if time.Now().After(deadline) {
			t.Fatalf("committed never settled under freeze (at %d)", cur)
		}
		time.Sleep(300 * time.Millisecond)
	}

	s0, err := ac.Stats(0)
	if err != nil {
		t.Fatalf("admin stats node 0: %v", err)
	}
	s1, err := ac.Stats(1)
	if err != nil {
		t.Fatalf("admin stats node 1: %v", err)
	}
	if s0.Counters["committed"] == 0 {
		t.Fatal("node 0 snapshot reports zero commits")
	}

	// Path 2: the HTTP Prometheus scrape of the SAME node must agree with
	// the AdminStats envelope.
	resp, err := http.Get("http://" + httpAddr + "/metrics")
	if err != nil {
		t.Fatalf("scrape /metrics: %v", err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusOK {
		t.Fatalf("scrape /metrics: status %d, read err %v", resp.StatusCode, err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("scrape content type %q", ct)
	}
	promVal := func(name string) int64 {
		t.Helper()
		for _, line := range strings.Split(string(body), "\n") {
			f := strings.Fields(line)
			if len(f) == 2 && f[0] == name {
				v, err := strconv.ParseInt(f[1], 10, 64)
				if err != nil {
					t.Fatalf("metric %s: bad value %q", name, f[1])
				}
				return v
			}
		}
		t.Fatalf("metric %s absent from scrape:\n%s", name, body)
		return 0
	}
	if got, want := promVal("star_committed"), s0.Counters["committed"]; got != want {
		t.Fatalf("/metrics committed %d != AdminStats committed %d", got, want)
	}
	// The coordinator's tuned slices: every retune splits the 2ms
	// iteration between τp and τs, on both paths.
	if got := s0.Gauges["tau_p_us"] + s0.Gauges["tau_s_us"]; got != 2000 {
		t.Fatalf("AdminStats τp+τs = %dµs, want the 2000µs iteration", got)
	}
	if got := promVal("star_tau_p_us") + promVal("star_tau_s_us"); got != 2000 {
		t.Fatalf("/metrics τp+τs = %dµs, want the 2000µs iteration", got)
	}
	if promVal("star_latency_count") == 0 {
		t.Fatal("latency histogram empty on a node that committed")
	}
	var partSum int64
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		if len(f) == 2 && strings.HasPrefix(f[0], `star_partition_commits{`) {
			v, err := strconv.ParseInt(f[1], 10, 64)
			if err != nil {
				t.Fatalf("bad partition gauge line %q", line)
			}
			partSum += v
		}
	}
	// Snapshot-path reads commit without a partition home, so the gauges
	// bound the counter from below.
	if partSum == 0 || partSum > s0.Counters["committed"] {
		t.Fatalf("partition gauges sum %d inconsistent with committed %d", partSum, s0.Counters["committed"])
	}

	// Path 3: the star-admin CLI's cluster-merged view.
	out, err := exec.Command(adminBin, "-addr", doors[0], "stat").CombinedOutput()
	if err != nil {
		t.Fatalf("star-admin stat: %v\n%s", err, out)
	}
	wantLine := fmt.Sprintf("counter committed %d", s0.Counters["committed"]+s1.Counters["committed"])
	if !strings.Contains(string(out), wantLine+"\n") {
		t.Fatalf("star-admin stat merged view missing %q:\n%s", wantLine, out)
	}
	out, err = exec.Command(adminBin, "-addr", doors[0], "-interval", "300ms", "-iters", "1", "top").CombinedOutput()
	if err != nil || !strings.Contains(string(out), "txn/s") || !strings.Contains(string(out), "switch: τp ") {
		t.Fatalf("star-admin top: %v\n%s", err, out)
	}

	// Out-of-range AdminStats targets reject cleanly instead of hanging.
	if _, err := ac.Stats(nodes + 7); err == nil || !strings.Contains(err.Error(), "out of range") {
		t.Fatalf("out-of-range stats target not rejected: %v", err)
	}

	// The coordinator's timeline: complete lines (the file is still being
	// appended to) must parse as TraceEvents with ascending epochs.
	data, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatalf("read trace: %v", err)
	}
	if i := bytes.LastIndexByte(data, '\n'); i < 0 {
		t.Fatalf("trace file has no complete lines (%d bytes)", len(data))
	} else {
		data = data[:i]
	}
	var last uint64
	lines := bytes.Split(data, []byte("\n"))
	for i, line := range lines {
		var ev core.TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d does not parse: %v\n%s", i, err, line)
		}
		if ev.Epoch <= last {
			t.Fatalf("trace line %d: epoch %d not ascending (prev %d)", i, ev.Epoch, last)
		}
		last = ev.Epoch
	}
	t.Logf("observability: committed node0=%d node1=%d, %d trace epochs", s0.Counters["committed"], s1.Counters["committed"], len(lines))

	// No listener unless -http is given: node 1 never got the flag, and
	// the port reserved for it must refuse connections.
	if conn, err := net.DialTimeout("tcp", darkAddr, 500*time.Millisecond); err == nil {
		conn.Close()
		t.Fatalf("port %s is listening but no process was given -http", darkAddr)
	}
}
