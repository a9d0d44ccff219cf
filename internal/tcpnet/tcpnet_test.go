package tcpnet

import (
	"net"
	"sync"
	"testing"
	"time"

	"star/internal/core"
	"star/internal/faultnet"
	"star/internal/rt"
	"star/internal/transport"
	"star/internal/transport/conformance"
	"star/internal/wire"
	"star/internal/wire/prim"
	"star/internal/wire/wiretest"
	"star/internal/workload/tpcc"
)

// wtMsg is the conformance test message: its encoding pads the frame to
// exactly the modelled Size, so the byte-accounting assertions hold on
// a transport that counts real encoded lengths.
type wtMsg struct {
	id   int
	size int
}

func (m wtMsg) Size() int { return m.size }

func testCodec() *wire.Codec {
	c := wire.NewCodec()
	c.Register(1, wtMsg{},
		func(b []byte, m transport.Message) []byte {
			v := m.(wtMsg)
			b = prim.AppendVarint(b, int64(v.id))
			pad := v.size - prim.FrameOverhead - prim.VarintLen(int64(v.id))
			for i := 0; i < pad; i++ {
				b = append(b, 0xa5)
			}
			return b
		},
		func(b []byte) (transport.Message, []byte, error) {
			id, rest, err := prim.Varint(b)
			if err != nil {
				return nil, nil, err
			}
			// The padding is the rest of the body: consumed entirely.
			return wtMsg{id: int(id), size: prim.FrameOverhead + prim.VarintLen(id) + len(rest)}, nil, nil
		})
	return c
}

// newCluster builds a 3-endpoint cluster with one Network ("process")
// per endpoint, all on loopback.
func newCluster(t *testing.T) *conformance.Cluster {
	t.Helper()
	r := rt.NewReal()
	const n = 3
	listeners := make([]net.Listener, n)
	addrs := make([]string, n)
	for i := range listeners {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		listeners[i] = ln
		addrs[i] = ln.Addr().String()
	}
	nets := make([]*Network, n)
	for i := range nets {
		nw, err := New(r, Config{
			Endpoints: addrs,
			Local:     []int{i},
			Codec:     testCodec(),
			Listener:  listeners[i],
			DialRetry: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatalf("tcpnet.New: %v", err)
		}
		nets[i] = nw
	}
	// LIFO cleanup: stop the runtime first (unblocks inbox waiters),
	// then close the networks.
	t.Cleanup(func() {
		for _, nw := range nets {
			nw.Close()
		}
	})
	t.Cleanup(r.Stop)
	var wg sync.WaitGroup
	return &conformance.Cluster{
		Endpoint:  func(i int) transport.Transport { return nets[i] },
		Endpoints: n,
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
		Msg:   func(id, size int) transport.Message { return wtMsg{id: id, size: size} },
		MsgID: func(m any) int { return m.(wtMsg).id },
		Yield: func() { r.Sleep(200 * time.Microsecond) },
	}
}

// TestConformance runs the shared transport contract suite — the same
// one simnet passes — over real loopback TCP with one process per
// endpoint.
func TestConformance(t *testing.T) {
	conformance.Run(t, func(t *testing.T) *conformance.Cluster { return newCluster(t) })
}

// TestLocalAndRemoteSendsChargeTheSame: every engine message — one per
// id, the core package's golden frames, decoded — is charged the same
// bytes whether its peer is hosted in this process or across a socket:
// its Size(), the length of the frame a remote send writes.
func TestLocalAndRemoteSendsChargeTheSame(t *testing.T) {
	codec := core.NewWireCodec(tpcc.New(tpcc.Config{Warehouses: 4, Districts: 2, CustomersPerDistrict: 100, Items: 500}))
	r := rt.NewReal()
	t.Cleanup(r.Stop)
	var lns [2]net.Listener
	for i := range lns {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		lns[i] = ln
	}
	// Process A hosts endpoints 0 and 1, process B endpoint 2.
	addrs := []string{lns[0].Addr().String(), lns[0].Addr().String(), lns[1].Addr().String()}
	var nets [2]*Network
	for i, local := range [][]int{{0, 1}, {2}} {
		nw, err := New(r, Config{Endpoints: addrs, Local: local, Codec: codec, Listener: lns[i]})
		if err != nil {
			t.Fatalf("tcpnet.New: %v", err)
		}
		t.Cleanup(func() { nw.Close() })
		nets[i] = nw
	}
	a := nets[0]
	for _, g := range wiretest.Read(t, "../core/testdata/golden_frames.txt") {
		m, err := codec.Decode(g.Frame)
		if err != nil {
			t.Fatalf("%s: decode: %v", g.Name, err)
		}
		before := a.Bytes(transport.Control)
		a.Send(0, 1, transport.Control, m)
		local := a.Bytes(transport.Control) - before
		a.Send(0, 2, transport.Control, m)
		remote := a.Bytes(transport.Control) - before - local
		if local != remote || local != int64(prim.FrameOverhead-1+len(g.Frame)) {
			t.Errorf("%s: charged %d bytes sent locally, %d remotely; its frame is %d", g.Name, local, remote, prim.FrameOverhead-1+len(g.Frame))
		}
	}
}

// TestCorruptStreamRejected feeds garbage into a listener and checks the
// reader rejects it (counter ticks, connection closes) without
// panicking, and that legitimate traffic still flows afterwards.
func TestCorruptStreamRejected(t *testing.T) {
	c := newCluster(t)
	nw := c.Endpoint(1).(*Network)

	// A frame with a plausible length prefix but corrupt body.
	conn, err := net.Dial("tcp", nw.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn.Write([]byte{8, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	conn.Close()

	deadline := time.Now().Add(5 * time.Second)
	for nw.DecodeErrors() == 0 && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if nw.DecodeErrors() == 0 {
		t.Fatal("corrupt frame not counted as a decode error")
	}

	// An oversized length prefix must be rejected before allocation.
	conn2, err := net.Dial("tcp", nw.Addr())
	if err != nil {
		t.Fatalf("dial: %v", err)
	}
	conn2.Write([]byte{0xff, 0xff, 0xff, 0xff})
	conn2.Close()

	// The transport still works.
	delivered := false
	c.Spawn(func() { c.Endpoint(0).Send(0, 1, transport.Data, wtMsg{id: 9, size: 32}) })
	c.Spawn(func() {
		if v, ok := nw.Inbox(1).RecvTimeout(5 * time.Second); ok && v.(wtMsg).id == 9 {
			delivered = true
		}
	})
	c.Settle()
	if !delivered {
		t.Fatal("transport wedged after corrupt stream")
	}
}

// TestDialBackoffBoundsAttempts pins the reconnect-storm fix: a link
// dialling a dead peer must back off exponentially, so the attempt count
// over the dial deadline stays an order of magnitude below the old
// fixed-interval schedule (deadline/retry attempts — 120 at these
// settings; the capped-exponential policy needs at most ~35 even with
// every jittered delay landing at its halved minimum).
func TestDialBackoffBoundsAttempts(t *testing.T) {
	r := rt.NewReal()
	t.Cleanup(r.Stop)

	// Reserve a loopback address, then free it: nothing listens there.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	nw, err := New(r, Config{
		Endpoints:    []string{ln.Addr().String(), deadAddr},
		Local:        []int{0},
		Codec:        testCodec(),
		Listener:     ln,
		DialTimeout:  100 * time.Millisecond,
		DialRetry:    5 * time.Millisecond,
		DialRetryMax: 50 * time.Millisecond,
		DialDeadline: 600 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("tcpnet.New: %v", err)
	}
	t.Cleanup(func() { nw.Close() })

	// First send spawns the link's writer, which dials until the deadline.
	nw.Send(0, 1, transport.Data, wtMsg{id: 1, size: 32})

	// Wait for the dial deadline to expire and the link to go dead (the
	// queued frame is then drained as dropped).
	waitUntil := time.Now().Add(5 * time.Second)
	for nw.Dropped() == 0 && time.Now().Before(waitUntil) {
		time.Sleep(10 * time.Millisecond)
	}
	if nw.Dropped() == 0 {
		t.Fatal("link to dead peer never gave up")
	}

	attempts := nw.DialAttempts()
	if attempts < 3 {
		t.Fatalf("only %d dial attempts: retry loop did not run", attempts)
	}
	if attempts > 60 {
		t.Fatalf("%d dial attempts over a 600ms deadline: backoff is not in effect (fixed 5ms interval would make ~120)", attempts)
	}
}

// TestDeadLinkQueueByteCap pins that a link to a never-returning peer
// cannot grow its writer queue past LinkQueueBytes. The window under
// test: after a revival kick the writer is away in a patient re-dial
// (up to DialDeadline) and nothing drains the queue — without the byte
// cap, the frame-count channel cap alone would admit count×frame-size
// bytes of snapshots and deltas destined for a corpse.
func TestDeadLinkQueueByteCap(t *testing.T) {
	r := rt.NewReal()
	t.Cleanup(r.Stop)

	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	deadAddr := dead.Addr().String()
	dead.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	const cap = 4096 // bytes
	nw, err := New(r, Config{
		Endpoints:      []string{ln.Addr().String(), deadAddr},
		Local:          []int{0},
		Codec:          testCodec(),
		Listener:       ln,
		DialTimeout:    100 * time.Millisecond,
		DialRetry:      10 * time.Millisecond,
		DialRetryMax:   50 * time.Millisecond,
		DialDeadline:   300 * time.Millisecond,
		LinkQueueBytes: cap,
	})
	if err != nil {
		t.Fatalf("tcpnet.New: %v", err)
	}
	t.Cleanup(func() { nw.Close() })

	// Spawn the link and let its initial dial give up: the probe frame is
	// drained as dropped once the link turns dead.
	nw.Send(0, 1, transport.Control, wtMsg{id: 0, size: 32})
	waitUntil := time.Now().Add(5 * time.Second)
	for nw.Dropped() == 0 && time.Now().Before(waitUntil) {
		time.Sleep(10 * time.Millisecond)
	}
	if nw.Dropped() == 0 {
		t.Fatal("link to dead peer never gave up")
	}

	// Revival kick (the rejoin path): the writer leaves the drain loop
	// for a patient re-dial. Flood the dead link while nothing drains it.
	nw.SetDown(1, false)
	time.Sleep(30 * time.Millisecond)
	const flood = 2000
	const frameSize = 128
	for i := 0; i < flood; i++ {
		nw.Send(0, 1, transport.Data, wtMsg{id: i, size: frameSize})
	}
	shed := nw.ShedFrames()
	if shed == 0 {
		t.Fatalf("flooded %d×%dB into a %dB dead-link queue and nothing was shed", flood, frameSize, cap)
	}
	enqueued := nw.Messages(transport.Data)
	if shed+enqueued != flood {
		t.Fatalf("shed %d + enqueued %d != %d sends", shed, enqueued, flood)
	}
	if got := nw.Bytes(transport.Data); got > cap+frameSize {
		t.Fatalf("dead link holds %dB, cap is %dB", got, cap)
	}
	if nw.Dropped() < shed {
		t.Fatal("shed frames must also count as dropped")
	}
}

// TestConformanceFaultnetWrapped re-runs the contract suite with every
// endpoint's Network wrapped in a no-fault faultnet decorator: the
// fault-injection layer must be transparent over real sockets too.
func TestConformanceFaultnetWrapped(t *testing.T) {
	conformance.Run(t, func(t *testing.T) *conformance.Cluster {
		c := newCluster(t)
		r := rt.NewReal()
		t.Cleanup(r.Stop)
		inner := c.Endpoint
		wrapped := make([]transport.Transport, c.Endpoints)
		for i := range wrapped {
			wrapped[i] = faultnet.Wrap(r, inner(i), faultnet.Plan{})
		}
		c.Endpoint = func(i int) transport.Transport { return wrapped[i] }
		return c
	})
}
