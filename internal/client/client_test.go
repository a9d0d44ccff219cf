package client_test

import (
	"encoding/binary"
	"errors"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"star/internal/client"
	"star/internal/core"
	"star/internal/rt"
	"star/internal/wire"
	"star/internal/workload/ycsb"
)

// killableProxy forwards TCP connections to a target and can cut every
// established stream at once — the server-side connection loss the
// failover path exists for, without needing the front door itself to
// track connections. It can also hold the target's response frames back
// until released, so a test decides when a response arrives.
type killableProxy struct {
	ln     net.Listener
	target string

	mu     sync.Mutex
	cond   *sync.Cond
	conns  []net.Conn
	dead   bool
	held   bool // response frames wait at the proxy
	frames int  // response frames read from the target
}

func newKillableProxy(t *testing.T, target string) *killableProxy {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("proxy listen: %v", err)
	}
	p := &killableProxy{ln: ln, target: target}
	p.cond = sync.NewCond(&p.mu)
	go p.accept()
	return p
}

func (p *killableProxy) addr() string { return p.ln.Addr().String() }

func (p *killableProxy) accept() {
	for {
		c, err := p.ln.Accept()
		if err != nil {
			return
		}
		s, err := net.Dial("tcp", p.target)
		if err != nil {
			c.Close()
			continue
		}
		p.mu.Lock()
		if p.dead {
			p.mu.Unlock()
			c.Close()
			s.Close()
			continue
		}
		p.conns = append(p.conns, c, s)
		p.mu.Unlock()
		go func() { io.Copy(s, c); s.Close() }()
		go p.respond(c, s)
	}
}

// respond copies the target's response frames to the client in order,
// holding them back while the proxy is held: one goroutine reads and
// counts them, this one forwards them.
func (p *killableProxy) respond(c, s net.Conn) {
	// Room for every frame a test holds back, so the reader keeps
	// counting them while the forwarder waits.
	frames := make(chan []byte, 64)
	defer func() {
		c.Close()
		s.Close()
		for range frames { // let the reader exit
		}
	}()
	go func() {
		defer close(frames)
		for {
			body, err := wire.ReadFrame(s, wire.MaxFrame)
			if err != nil {
				return
			}
			p.mu.Lock()
			p.frames++
			p.mu.Unlock()
			frames <- body
		}
	}()
	for body := range frames {
		p.mu.Lock()
		for p.held && !p.dead {
			p.cond.Wait()
		}
		p.mu.Unlock()
		if _, err := c.Write(append(binary.LittleEndian.AppendUint32(nil, uint32(len(body))), body...)); err != nil {
			return
		}
	}
}

// hold holds response frames back (on) or lets them and any held ones
// through (off).
func (p *killableProxy) hold(on bool) {
	p.mu.Lock()
	p.held = on
	p.cond.Broadcast()
	p.mu.Unlock()
}

// awaitFrames waits until n response frames have reached the proxy.
func (p *killableProxy) awaitFrames(t *testing.T, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		p.mu.Lock()
		got := p.frames
		p.mu.Unlock()
		if got >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("proxy saw %d response frames, want %d", got, n)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// kill stops accepting and severs every live stream.
func (p *killableProxy) kill() {
	p.ln.Close()
	p.mu.Lock()
	p.dead = true
	p.cond.Broadcast()
	conns := p.conns
	p.conns = nil
	p.mu.Unlock()
	for _, c := range conns {
		c.Close()
	}
}

// newDoorCluster starts a two-node cluster of full replicas on the real
// runtime with a front door on node 1, and returns the workload, the
// codec both sides build and the door's address.
func newDoorCluster(t *testing.T) (*ycsb.Workload, string) {
	t.Helper()
	wl := ycsb.New(ycsb.Config{Partitions: 2, RecordsPerPartition: 64})
	r := rt.NewReal()
	t.Cleanup(r.Stop)
	e := core.New(core.Config{
		RT: r, Nodes: 2, FullReplicas: 2, WorkersPerNode: 1,
		Workload: wl, Iteration: 2 * time.Millisecond, Seed: 1,
		SnapshotReads: true,
	})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	t.Cleanup(func() { ln.Close() })
	e.ServeClients(1, ln, core.NewWireCodec(wl), 16)
	return wl, ln.Addr().String()
}

// TestClientDoorDropsRequestOutsideTheConfiguration: a read or a write
// naming a partition the cluster does not have is refused at decode, and
// the door closes the connection that sent it, not the node: a second
// client's write still commits.
func TestClientDoorDropsRequestOutsideTheConfiguration(t *testing.T) {
	wl, door := newDoorCluster(t) // partitions 0 and 1
	codec := core.NewWireCodec(wl)
	dial := func() *client.Client {
		c, err := client.Dial(client.Config{Addr: door, Codec: codec, ReqTimeout: 10 * time.Second})
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return c
	}
	good := dial()
	defer good.Close()
	for name, p := range map[string]*ycsb.Txn{
		"read":  wl.ReadTxn([]int{99}, []int{0}),
		"write": wl.WriteTxn([]int{99}, []int{0}, []byte("w")),
	} {
		bad := dial()
		if _, err := bad.Do(p); !errors.Is(err, client.ErrClosed) {
			t.Errorf("%s of partition 99: err = %v, want the door to close the connection", name, err)
		}
		bad.Close()
	}
	if res, err := good.DoRetry(wl.WriteTxn([]int{0}, []int{0}, []byte("ok")), 32); err != nil || res.Status != core.StatusOK {
		t.Fatalf("write on another connection after the refusals: res=%+v err=%v", res, err)
	}
}

// TestClientFailoverAcrossFrontDoors pins the multi-address session:
// a client dialed with two front doors loses its connection mid-session
// (the first door dies) and DoRetry must transparently re-dial the next
// endpoint — carrying the session freshness token across the switch, so
// read-your-own-writes holds on the new door too.
func TestClientFailoverAcrossFrontDoors(t *testing.T) {
	wl := ycsb.New(ycsb.Config{Partitions: 2, RecordsPerPartition: 64})
	r := rt.NewReal()
	defer r.Stop()
	e := core.New(core.Config{
		RT: r, Nodes: 2, FullReplicas: 2, WorkersPerNode: 1,
		Workload: wl, Iteration: 2 * time.Millisecond, Seed: 1,
		SnapshotReads: true,
	})
	codec := core.NewWireCodec(wl)

	ln0, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln0.Close()
	ln1, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln1.Close()
	e.ServeClients(0, ln0, codec, 16)
	e.ServeClients(1, ln1, codec, 16)

	// The session's first door is a killable proxy to node 0; the backup
	// endpoint is node 1's door, direct.
	px := newKillableProxy(t, ln0.Addr().String())
	c, err := client.Dial(client.Config{
		Addrs:        []string{px.addr(), ln1.Addr().String()},
		Codec:        codec,
		DialDeadline: 5 * time.Second,
		ReqTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	// Establish session state through door 0: a committed write yields a
	// nonzero freshness token.
	if _, err := c.DoRetry(wl.WriteTxn([]int{0}, []int{0}, []byte("pre-fail")), 32); err != nil {
		t.Fatalf("write via door 0: %v", err)
	}
	token := c.Token()
	if token == 0 {
		t.Fatal("committed write did not advance the session token")
	}

	// Door 0 dies. The very next DoRetry must fail over to door 1 and
	// complete; a plain Do must keep failing with ErrClosed (failover is
	// DoRetry's job, not a silent side effect of Do).
	px.kill()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, err := c.Do(wl.ReadTxn([]int{0}, []int{0})); errors.Is(err, client.ErrClosed) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("connection through the killed proxy never broke")
		}
		time.Sleep(10 * time.Millisecond)
	}
	res, err := c.DoRetry(wl.ReadTxn([]int{0}, []int{0}), 32)
	if err != nil {
		t.Fatalf("read after failover: %v", err)
	}
	if res.Status != core.StatusOK {
		t.Fatalf("read after failover: status %v", res.Status)
	}
	if c.Token() < token {
		t.Fatalf("session token regressed across failover: %d < %d", c.Token(), token)
	}

	// The re-bound session keeps writing too.
	if _, err := c.DoRetry(wl.WriteTxn([]int{0}, []int{1}, []byte("post-fail")), 32); err != nil {
		t.Fatalf("write via door 1: %v", err)
	}
	if c.Token() < token {
		t.Fatalf("token regressed after post-failover write: %d < %d", c.Token(), token)
	}
}

// TestClientDialFailsOverToSecondAddress pins Dial-time failover: the
// first endpoint refuses connections entirely, and Dial must come up on
// the second without burning the whole DialDeadline.
func TestClientDialFailsOverToSecondAddress(t *testing.T) {
	wl := ycsb.New(ycsb.Config{Partitions: 2, RecordsPerPartition: 64})
	r := rt.NewReal()
	defer r.Stop()
	e := core.New(core.Config{
		RT: r, Nodes: 2, FullReplicas: 2, WorkersPerNode: 1,
		Workload: wl, Iteration: 2 * time.Millisecond, Seed: 1,
		SnapshotReads: true,
	})
	codec := core.NewWireCodec(wl)

	// Reserve an address nobody listens on.
	deadLn, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := deadLn.Addr().String()
	deadLn.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	e.ServeClients(1, ln, codec, 16)

	c, err := client.Dial(client.Config{
		Addrs:        []string{deadAddr, ln.Addr().String()},
		Codec:        codec,
		DialDeadline: 10 * time.Second,
		ReqTimeout:   5 * time.Second,
	})
	if err != nil {
		t.Fatalf("dial with one dead endpoint: %v", err)
	}
	defer c.Close()
	if _, err := c.DoRetry(wl.ReadTxn([]int{0}, []int{0}), 32); err != nil {
		t.Fatalf("read via surviving endpoint: %v", err)
	}
}

// TestClientInterleavesTransactionsAndAdmin pins the one rendezvous: one
// connection carries transactions and admin envelopes interleaved, and
// every response reaches its own caller — a write its commit token, a
// read its own row count, each checksum request its own node's
// partitions, a topology request a topology.
func TestClientInterleavesTransactionsAndAdmin(t *testing.T) {
	wl, door := newDoorCluster(t)
	c, err := client.Dial(client.Config{Addr: door, Codec: core.NewWireCodec(wl), ReqTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	const rounds = 20
	var wg sync.WaitGroup
	errs := make(chan error, 6*rounds)
	run := func(f func(i int) error) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				if err := f(i); err != nil {
					errs <- err
				}
			}
		}()
	}
	run(func(i int) error {
		res, err := c.DoRetry(wl.WriteTxn([]int{i % 2}, []int{i}, []byte("w")), 32)
		if err == nil && res.Token < 2 {
			err = errors.New("write answered without its commit epoch")
		}
		return err
	})
	run(func(i int) error {
		res, err := c.DoRetry(wl.ReadTxn([]int{0, 1}, []int{i, i}), 32)
		if err == nil && res.Reads != 2 {
			err = errors.New("two-row read answered with another request's read count")
		}
		return err
	})
	for node := 0; node < 2; node++ {
		run(func(int) error {
			cs, err := c.Checksums(node)
			if err == nil && (cs.Node != node || len(cs.Parts) != 2) {
				err = errors.New("checksums answered for another node")
			}
			return err
		})
	}
	run(func(int) error {
		top, err := c.Topology()
		if err == nil && (top.Version != 1 || len(top.Members) != 2) {
			err = errors.New("topology answered with something else")
		}
		return err
	})
	run(func(int) error {
		s, err := c.Stats(-1)
		if _, ok := s.Counters["committed"]; err == nil && !ok {
			err = errors.New("stats snapshot without a committed counter")
		}
		return err
	})
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestClientAdminTimeoutDiscardsLateResponse: an admin op that times out
// gives up its ticket, and its response, arriving late on the same
// connection, is discarded — the next op, admin or transaction, gets its
// own answer.
func TestClientAdminTimeoutDiscardsLateResponse(t *testing.T) {
	wl, door := newDoorCluster(t)
	px := newKillableProxy(t, door)
	defer px.kill()
	c, err := client.Dial(client.Config{Addr: px.addr(), Codec: core.NewWireCodec(wl), ReqTimeout: time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	px.hold(true)
	if _, err := c.Stats(-1); err == nil || !strings.Contains(err.Error(), "timeout") {
		t.Fatalf("held stats: err = %v, want a timeout", err)
	}
	px.awaitFrames(t, 1) // the stats answer is at the proxy
	// Released, the late answer reaches the client ahead of anything the
	// next op can cause: the proxy forwards one stream in order.
	px.hold(false)
	resp, err := c.Admin(core.AdminReq{Op: core.AdminTopologyGet, Node: -1})
	if err != nil {
		t.Fatalf("topology after a timed-out op: %v", err)
	}
	if resp.Op != core.AdminTopologyGet || resp.Version != 1 {
		t.Fatalf("topology after a timed-out op answered with %s (version %d)", resp.Op, resp.Version)
	}
	if res, err := c.DoRetry(wl.ReadTxn([]int{0}, []int{0}), 32); err != nil || res.Reads != 1 {
		t.Fatalf("read after a timed-out op: res=%+v err=%v", res, err)
	}
}

// TestClientBrokenConnectionFailsEveryWaiter: when the stream breaks,
// transaction waiters and admin waiters alike fail with ErrClosed.
func TestClientBrokenConnectionFailsEveryWaiter(t *testing.T) {
	wl, door := newDoorCluster(t)
	px := newKillableProxy(t, door)
	c, err := client.Dial(client.Config{Addr: px.addr(), Codec: core.NewWireCodec(wl), ReqTimeout: 10 * time.Second})
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	defer c.Close()

	px.hold(true)
	errs := make(chan error, 3)
	go func() { _, err := c.Do(wl.WriteTxn([]int{0}, []int{0}, []byte("w"))); errs <- err }()
	go func() { _, err := c.Stats(-1); errs <- err }()
	go func() { _, err := c.Topology(); errs <- err }()
	// All three answers are held at the proxy, so all three callers are
	// waiting on their tickets when the stream breaks.
	px.awaitFrames(t, 3)
	px.kill()
	for i := 0; i < 3; i++ {
		if err := <-errs; !errors.Is(err, client.ErrClosed) {
			t.Fatalf("waiter on a broken connection: err = %v, want ErrClosed", err)
		}
	}
}
