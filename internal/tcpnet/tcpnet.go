// Package tcpnet is the real-socket transport: the same
// transport.Transport contract as simnet, carried over TCP with the
// internal/wire binary encoding, so a STAR cluster can run as N OS
// processes.
//
// Topology: every endpoint (node or coordinator) is hosted by exactly
// one process; each process runs one listener and hosts one or more
// endpoints. A directed link (src → dst, dst remote) gets its own
// framed TCP stream with a dedicated writer goroutine, so per-link FIFO
// is exactly TCP's byte-stream order — the property STAR's operation
// replication relies on (§5). Local sends (both endpoints hosted here)
// bypass the wire, as on simnet.
//
// Encoding happens synchronously in Send (the message's buffers may be
// reused by the caller immediately after, matching simnet's value
// semantics); writing happens asynchronously on the link's writer —
// except for a control-class frame that finds its link idle, which the
// sender writes itself (sendDirect): the phase switch's messages then
// cost no goroutine hand-off on the sending side.
// Receivers read each frame into its own buffer, decode (payload slices
// alias the buffer), and deliver to the destination endpoint's inbox.
// Byte accounting counts frame lengths on the sending process — a
// message's Size(), which for a local (in-process) send is what its frame
// would have been — so a message costs the same wherever its peer runs.
//
// tcpnet runs on the real runtime only: its goroutines block in socket
// I/O, which the simulated runtime cannot schedule.
package tcpnet

import (
	"bufio"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"star/internal/backoff"
	"star/internal/rt"
	"star/internal/transport"
	"star/internal/wire"
	"star/internal/wire/prim"
)

// Config parameterises one process's view of the cluster network.
type Config struct {
	// Endpoints maps endpoint id → "host:port" of its hosting process's
	// listener. Endpoints sharing a process share an address.
	Endpoints []string
	// Local lists the endpoint ids this process hosts. They must all
	// map to the same address in Endpoints.
	Local []int
	// Codec encodes and decodes every message this cluster sends; all
	// processes must construct it identically (core.NewWireCodec).
	Codec *wire.Codec
	// Listener optionally supplies a pre-bound listener (tests bind
	// ":0" and exchange real addresses); when nil, New listens on the
	// local endpoints' configured address.
	Listener net.Listener
	// DialTimeout is the per-attempt dial timeout (default 1s).
	DialTimeout time.Duration
	// DialRetry is the FIRST retry delay while a peer is still starting
	// up (default 50ms); later attempts back off exponentially with
	// jitter up to DialRetryMax, so a whole cluster re-dialling one
	// restarted process does not hammer it in lockstep.
	DialRetry time.Duration
	// DialRetryMax caps the backoff between attempts (default 2s).
	DialRetryMax time.Duration
	// DialDeadline bounds the total time a link tries to connect before
	// declaring the peer unreachable and dropping its traffic
	// (default 15s).
	DialDeadline time.Duration
	// LinkQueueBytes caps the bytes queued on a DEAD link (default
	// 16 MiB). While a peer is down its writer can be away in a patient
	// re-dial for DialDeadline at a time (the rejoin path kicks links
	// repeatedly), not draining; the frame-count channel cap alone would
	// let a never-returning peer pin count×MaxFrame bytes per link.
	// Frames over the cap are shed (counted in ShedFrames and Dropped).
	LinkQueueBytes int64
}

// inboxCap bounds each local inbox (backpressure).
const inboxCap = 1 << 16

func (c Config) withDefaults() Config {
	if c.DialTimeout == 0 {
		c.DialTimeout = time.Second
	}
	if c.DialRetry == 0 {
		c.DialRetry = 50 * time.Millisecond
	}
	if c.DialRetryMax == 0 {
		c.DialRetryMax = 2 * time.Second
	}
	if c.DialRetryMax < c.DialRetry {
		c.DialRetryMax = c.DialRetry
	}
	if c.DialDeadline == 0 {
		c.DialDeadline = 15 * time.Second
	}
	if c.LinkQueueBytes == 0 {
		c.LinkQueueBytes = 16 << 20
	}
	return c
}

// link is one directed src→dst stream: a frame queue drained by a
// writer goroutine, and the connection both the writer and — for
// control frames on an idle link — the sender itself write to.
type link struct {
	out    chan []byte
	dead   atomic.Bool   // peer unreachable or stream broken: drop frames
	kick   chan struct{} // bounce signal: drop the conn and re-dial (cap 1)
	queued atomic.Int64  // bytes sitting in out (capped while dead)

	// inflight counts frames handed to the queue and not yet written (or
	// dropped). It is raised before the enqueue and lowered after the
	// write, so zero means nothing a sender could overtake: that is the
	// condition under which Send may write a frame itself (sendDirect).
	inflight atomic.Int64

	// mu guards conn and bw. The writer holds it per frame; a direct
	// sender only ever TryLocks it.
	mu   sync.Mutex
	conn net.Conn
	bw   *bufio.Writer
	// stale marks conn as predating the last SetDown(peer, false): the
	// peer may be a new incarnation, and a write on the old stream would
	// vanish without an error. Set with the kick, cleared when the writer
	// adopts a fresh connection; a direct sender stays off a stale one.
	stale atomic.Bool
}

// Network implements transport.Transport over TCP.
type Network struct {
	transport.Ledger
	r     rt.Runtime
	cfg   Config
	ln    net.Listener
	local []bool

	inboxes []rt.Chan // nil for remote endpoints

	mu       sync.Mutex
	links    map[uint64]*link
	accepted map[net.Conn]struct{}
	dialed   map[net.Conn]struct{}

	shed         atomic.Int64
	decodeErrs   atomic.Int64
	dialAttempts atomic.Int64

	stop   chan struct{}
	closed atomic.Bool
	wg     sync.WaitGroup
}

var _ transport.Transport = (*Network)(nil)

// New builds the process's network: it binds the listener, creates the
// local inboxes, and starts accepting peer streams. Outgoing links dial
// lazily on first send (with retry, so peer processes may start in any
// order).
func New(r rt.Runtime, cfg Config) (*Network, error) {
	cfg = cfg.withDefaults()
	if cfg.Codec == nil {
		return nil, fmt.Errorf("tcpnet: Config.Codec is required")
	}
	if len(cfg.Local) == 0 {
		return nil, fmt.Errorf("tcpnet: Config.Local is empty")
	}
	n := &Network{
		Ledger:   transport.NewLedger(len(cfg.Endpoints)),
		r:        r,
		cfg:      cfg,
		local:    make([]bool, len(cfg.Endpoints)),
		inboxes:  make([]rt.Chan, len(cfg.Endpoints)),
		links:    map[uint64]*link{},
		accepted: map[net.Conn]struct{}{},
		dialed:   map[net.Conn]struct{}{},
		stop:     make(chan struct{}),
	}
	addr := ""
	for _, id := range cfg.Local {
		if id < 0 || id >= len(cfg.Endpoints) {
			return nil, fmt.Errorf("tcpnet: local endpoint %d out of range", id)
		}
		if addr == "" {
			addr = cfg.Endpoints[id]
		} else if cfg.Endpoints[id] != addr {
			return nil, fmt.Errorf("tcpnet: local endpoints map to different addresses (%s vs %s)",
				addr, cfg.Endpoints[id])
		}
		n.local[id] = true
		n.inboxes[id] = r.NewChan(inboxCap)
	}
	ln := cfg.Listener
	if ln == nil {
		var err error
		ln, err = net.Listen("tcp", addr)
		if err != nil {
			return nil, fmt.Errorf("tcpnet: listen %s: %w", addr, err)
		}
	}
	n.ln = ln
	n.wg.Add(1)
	go n.acceptLoop()
	return n, nil
}

// Addr returns the listener's actual address (useful with ":0").
func (n *Network) Addr() string { return n.ln.Addr().String() }

// Close shuts the listener and every link down. Pending frames may be
// lost (fail-stop semantics, like killing the process).
func (n *Network) Close() error {
	if !n.closed.CompareAndSwap(false, true) {
		return nil
	}
	close(n.stop)
	err := n.ln.Close()
	// Close both inbound and outbound connections: a reader blocked in a
	// socket read or a writer blocked in a full-window write cannot
	// observe stop from inside the syscall.
	n.mu.Lock()
	for conn := range n.accepted {
		conn.Close()
	}
	for conn := range n.dialed {
		conn.Close()
	}
	n.mu.Unlock()
	n.wg.Wait()
	return err
}

// Send implements transport.Transport. Remote sends encode the frame
// here (so the caller may reuse the message's buffers) and enqueue it on
// the link's writer. Local or remote, a send is charged m.Size().
func (n *Network) Send(src, dst int, class transport.Class, m transport.Message) {
	if src < 0 || src >= len(n.local) || dst < 0 || dst >= len(n.local) {
		// Endpoint ids can originate from the wire (e.g. a checksum
		// request's reply-to); an out-of-range id is a counted drop,
		// never a panic.
		n.Drop()
		return
	}
	if !n.Passes(src, dst) {
		return
	}
	size := m.Size()
	if n.local[dst] {
		n.Charge(class, size)
		n.inboxes[dst].Send(m) // in-process delivery: no encoding
		return
	}
	// The frame is allocated at its length and escapes to the link
	// writer, hence no reuse.
	frame, err := wire.AppendFrame(make([]byte, 0, size), src, dst, class, n.cfg.Codec, m)
	if err != nil {
		// A message type without a codec cannot cross a process boundary;
		// this is a wiring error, not input.
		panic("tcpnet: encode: " + err.Error())
	}
	l := n.link(src, dst)
	if l.dead.Load() {
		// Dead (or mid-revival) link: enqueue WITHOUT blocking — a
		// revival kick already queued (SetDown(node,false) immediately
		// followed by the rejoin messages) must still be able to deliver
		// this frame, but a sender must never wedge on a crashed peer
		// (the writer may be away in a patient re-dial and not draining).
		// While the writer is away nothing drains the queue, so the byte
		// cap is what keeps a never-returning peer from pinning
		// count×MaxFrame of memory on this link.
		if l.queued.Load()+int64(len(frame)) > n.cfg.LinkQueueBytes {
			n.shed.Add(1)
			n.Drop()
			return
		}
		l.inflight.Add(1)
		select {
		case l.out <- frame:
			l.queued.Add(int64(len(frame)))
			n.Charge(class, size)
		default:
			l.inflight.Add(-1)
			n.Drop()
		}
		return
	}
	n.Charge(class, size)
	if class == transport.Control && n.sendDirect(l, frame) {
		return
	}
	l.inflight.Add(1)
	select {
	case l.out <- frame:
		l.queued.Add(int64(len(frame)))
	case <-n.stop:
	}
}

// sendDirect writes a control frame on the caller's goroutine when the
// link is idle, and reports whether it did. Control frames are the phase
// switch's critical path (phase commands, phase reports, fence acks) and
// nearly always find their link idle; handing one to the writer costs a
// goroutine wake-up, which on a saturated process waits for a processor
// while the write itself is a few microseconds. Per-link FIFO holds:
// inflight is zero only when every earlier frame has been written, and
// the lock keeps the writer from interleaving.
func (n *Network) sendDirect(l *link, frame []byte) bool {
	if l.inflight.Load() != 0 || !l.mu.TryLock() {
		return false
	}
	defer l.mu.Unlock()
	if l.inflight.Load() != 0 || l.bw == nil || l.dead.Load() || l.stale.Load() {
		return false
	}
	if _, err := l.bw.Write(frame); err == nil && l.bw.Flush() == nil {
		return true
	}
	// Fail-stop, as in the writer: the frame died with the stream. The
	// writer finds the connection gone at its next frame and takes the
	// link through the usual dead/revive cycle.
	n.untrack(l)
	l.dead.Store(true)
	n.Drop()
	return true
}

// untrack closes and forgets the link's connection. Callers hold l.mu.
func (n *Network) untrack(l *link) {
	if l.conn == nil {
		return
	}
	l.conn.Close()
	n.mu.Lock()
	delete(n.dialed, l.conn)
	n.mu.Unlock()
	l.conn, l.bw = nil, nil
}

func (n *Network) link(src, dst int) *link {
	key := uint64(src)<<32 | uint64(uint32(dst))
	n.mu.Lock()
	l := n.links[key]
	if l == nil {
		l = &link{out: make(chan []byte, 4096), kick: make(chan struct{}, 1)}
		n.links[key] = l
		n.wg.Add(1)
		go n.runWriter(l, dst)
	}
	n.mu.Unlock()
	return l
}

// bounceLinks tells every link to dst to drop its connection and
// re-dial — the recovery path for a peer PROCESS that crashed and
// restarted: a dead link (peer away past the dial deadline) comes back
// to life, and a link still holding a stale connection to the peer's
// previous incarnation (whose first write would "succeed" into a
// reset socket and silently vanish) gets a fresh stream. The queue is
// untouched, so frames already enqueued for the rejoined peer — the
// rejoin protocol messages themselves — survive the bounce; the signal
// is idempotent (cap-1 channel), so repeated revivals of a healthy
// peer cost at most one extra dial.
func (n *Network) bounceLinks(dst int) {
	n.mu.Lock()
	for key, l := range n.links {
		if int(uint32(key)) != dst {
			continue
		}
		l.stale.Store(true)
		select {
		case l.kick <- struct{}{}:
		default:
		}
	}
	n.mu.Unlock()
}

// runWriter owns one directed link for the process's lifetime: dial
// (with retry while the peer starts up), then stream frames in queue
// order. A broken stream is fail-stop: the link turns DEAD and frames
// are dropped as with a crashed peer — until a bounce (bounceLinks,
// the rejoin path) revives it with a fresh dial. Dropped frames count
// as dropped even though they were accounted at Send time: they were
// in flight when the peer died, exactly like simnet messages a
// deliverer drops after a node goes down. While dead the queue keeps
// draining so senders blocked in the enqueue select wake up — Send
// must only ever block for backpressure, never on a crashed peer.
func (n *Network) runWriter(l *link, dst int) {
	defer n.wg.Done()
	adopt := func(c net.Conn) bool {
		if c == nil {
			return false
		}
		n.mu.Lock()
		n.dialed[c] = struct{}{}
		n.mu.Unlock()
		l.mu.Lock()
		l.conn, l.bw = c, bufio.NewWriterSize(c, 64<<10)
		l.stale.Store(false)
		l.mu.Unlock()
		return true
	}
	// connect dials patiently (retry up to DialDeadline — peers may
	// still be starting up). Only used off the frame path: at link
	// birth and on kicks in the dead branch, where Send drops instead
	// of blocking.
	connect := func() bool { return adopt(n.dial(dst)) }
	defer func() {
		l.mu.Lock()
		n.untrack(l)
		l.mu.Unlock()
	}()
	// writeFrame streams one frame. A stream error is strictly
	// fail-stop: frames coalesced in bw but not yet flushed are
	// unrecoverable (silently resuming on a fresh connection would lose
	// them while the link still reports healthy — an undetectable
	// sent>applied gap that wedges the replication fence), so the link
	// turns dead, the loss is counted, and the failure/rejoin protocol
	// (whose SetDown(node,false) bounce is what revives links) decides
	// what happens next. A nil bw means a direct sender already hit the
	// error and dropped the connection.
	writeFrame := func(frame []byte) bool {
		l.mu.Lock()
		defer l.mu.Unlock()
		defer l.inflight.Add(-1)
		if l.bw == nil {
			return false
		}
		if _, err := l.bw.Write(frame); err == nil {
			// Coalesce: flush only when the queue has drained.
			if len(l.out) > 0 || l.bw.Flush() == nil {
				return true
			}
		}
		n.untrack(l)
		return false
	}
	// bounce drops the current connection (flushing it first — a
	// healthy peer receives everything already written, and a stale
	// connection to a crashed incarnation loses only in-flight frames,
	// the fail-stop loss) and re-dials with a single quick attempt: the
	// link is still marked alive here, so senders are enqueueing, and a
	// patient dial to a peer that is in fact down would
	// backpressure-block them. If the quick dial fails the link turns
	// dead and a later kick (in the dead branch, where senders drop
	// instead of blocking) retries patiently.
	bounce := func() bool {
		l.mu.Lock()
		if l.bw != nil {
			l.bw.Flush()
		}
		n.untrack(l)
		l.mu.Unlock()
		return adopt(n.dialOnce(dst))
	}
	// l.dead is the link's one state word: the writer flips it here, and
	// a direct sender whose write failed sets it too (sendDirect) — the
	// writer then finds the connection gone at its next frame and
	// continues in the dead branch.
	l.dead.Store(!connect())
	// revive serves a kick: a dead link re-dials patiently, a live one
	// bounces.
	revive := func() {
		if l.dead.Load() {
			l.dead.Store(!connect())
		} else {
			l.dead.Store(!bounce())
		}
	}
	for {
		// A pending kick goes first, in either state: frames enqueued
		// right after a SetDown(node, false) then reach the fresh
		// connection instead of a stale one (or the drop loop).
		select {
		case <-l.kick:
			revive()
			continue
		default:
		}
		if !l.dead.Load() {
			select {
			case frame := <-l.out:
				l.queued.Add(-int64(len(frame)))
				if !writeFrame(frame) {
					n.Drop() // the frame died with the stream
					l.dead.Store(true)
				}
			case <-l.kick:
				revive()
			case <-n.stop:
				l.mu.Lock()
				if l.bw != nil {
					l.bw.Flush()
				}
				l.mu.Unlock()
				return
			}
		} else {
			select {
			case frame := <-l.out:
				l.queued.Add(-int64(len(frame)))
				l.inflight.Add(-1)
				n.Drop()
			case <-l.kick:
				revive()
			case <-n.stop:
				return
			}
		}
	}
}

// dialOnce makes a single bounded connection attempt (the alive-path
// revival; see bounce in runWriter).
func (n *Network) dialOnce(dst int) net.Conn {
	n.dialAttempts.Add(1)
	conn, err := net.DialTimeout("tcp", n.cfg.Endpoints[dst], n.cfg.DialTimeout)
	if err != nil {
		return nil
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return conn
}

// dial retries dialOnce up to DialDeadline (peer processes may start in
// any order), backing off exponentially with jitter: a peer that is not
// up within the first few quick attempts is probably restarting or gone,
// and N processes × M links of fixed-interval retries against one
// recovering listener is a reconnect storm — each link alone would make
// DialDeadline/DialRetry attempts (300 at the defaults), synchronised
// across every link that observed the outage at the same moment. The
// capped-exponential schedule keeps the first reconnects fast and cuts
// the long-haul rate to ~1/DialRetryMax per link, desynchronised by the
// jitter.
func (n *Network) dial(dst int) net.Conn {
	deadline := time.Now().Add(n.cfg.DialDeadline)
	pol := backoff.Policy{Base: n.cfg.DialRetry, Max: n.cfg.DialRetryMax, Jitter: 0.5}
	for attempt := 0; ; attempt++ {
		if conn := n.dialOnce(dst); conn != nil {
			return conn
		}
		if time.Now().After(deadline) || n.closed.Load() {
			return nil
		}
		select {
		case <-time.After(pol.Delay(attempt, rand.Float64())):
		case <-n.stop:
			return nil
		}
	}
}

// DialAttempts counts outgoing connection attempts (tests pin the
// backoff schedule against reconnect storms).
func (n *Network) DialAttempts() int64 { return n.dialAttempts.Load() }

func (n *Network) acceptLoop() {
	defer n.wg.Done()
	for {
		conn, err := n.ln.Accept()
		if err != nil {
			return // listener closed
		}
		n.mu.Lock()
		n.accepted[conn] = struct{}{}
		n.mu.Unlock()
		n.wg.Add(1)
		go n.runReader(conn)
	}
}

// runReader demultiplexes one inbound stream into the local inboxes.
// A malformed frame means the stream is desynchronised: the counter
// ticks and the connection closes (the peer's writer marks the link
// dead and its traffic drops — fail-stop, never a crash).
func (n *Network) runReader(conn net.Conn) {
	defer n.wg.Done()
	defer func() {
		conn.Close()
		n.mu.Lock()
		delete(n.accepted, conn)
		n.mu.Unlock()
	}()
	defer func() {
		// Inbox sends unwind with rt.ErrStopped when the runtime stops;
		// anything else is a real bug and propagates.
		if r := recover(); r != nil {
			if err, ok := r.(error); !ok || err != rt.ErrStopped {
				panic(r)
			}
		}
	}()
	br := bufio.NewReaderSize(conn, 64<<10)
	for {
		body, err := wire.ReadFrame(br, wire.MaxFrame)
		if err != nil {
			// Distinguish stream corruption (oversized/garbage length
			// prefix) from a peer simply closing the connection.
			if errors.Is(err, prim.ErrCorrupt) {
				n.decodeErrs.Add(1)
			}
			return
		}
		fi, msg, err := wire.DecodeFrameBody(body, n.cfg.Codec)
		if err != nil {
			n.decodeErrs.Add(1)
			return
		}
		if fi.Dst < 0 || fi.Dst >= len(n.local) || !n.local[fi.Dst] {
			n.decodeErrs.Add(1)
			continue // misrouted
		}
		if fi.Src < 0 || fi.Src >= len(n.local) {
			n.decodeErrs.Add(1)
			continue
		}
		if !n.Passes(fi.Src, fi.Dst) {
			continue
		}
		select {
		case <-n.stop:
			return
		default:
		}
		n.inboxes[fi.Dst].Send(msg)
	}
}

// Inbox implements transport.Transport (local endpoints only; a remote
// endpoint's inbox lives in its hosting process and is nil here).
func (n *Network) Inbox(dst int) rt.Chan { return n.inboxes[dst] }

// SetDown implements transport.Transport. The flag is process-local:
// this process stops sending to and delivering from the endpoint. A
// multi-process failure test sets it on every process (the engine's
// coordinator already broadcasts failure sets). Bringing an endpoint UP
// also bounces this process's links to it: the peer process may have
// crashed and restarted, and the old links are dead or hold stale
// connections — the rejoin path relies on fresh dials reaching the
// restarted process.
func (n *Network) SetDown(node int, down bool) {
	n.Ledger.SetDown(node, down)
	if !down {
		n.bounceLinks(node)
	}
}

// ShedFrames counts frames shed by the dead-link byte cap — the subset
// of Dropped caused by queue memory pressure rather than the drain loop.
func (n *Network) ShedFrames() int64 { return n.shed.Load() }

// DecodeErrors counts frames rejected by the codec, each of which closed
// the connection it came on, and misrouted ones (the engine's
// net_decode_errors gauge).
func (n *Network) DecodeErrors() int64 { return n.decodeErrs.Load() }
