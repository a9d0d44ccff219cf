// Package client is the library for a STAR cluster's front door
// (core.ServeClients): star-client's transaction sessions and
// star-admin's control plane, speaking the internal/wire framing over one
// TCP connection. Every request, a transaction (Do) or an admin envelope
// (Admin), takes a ticket, and its response, a core.ClientResp or a
// core.AdminResp, finds its waiter by that ticket, so one connection
// carries both kinds interleaved.
//
// Sessions and freshness: every committed write returns the fence epoch
// it committed in, and the client keeps the running maximum as its
// session token. Read-only transactions carry the token, which lets any
// replica whose epoch fence has advanced past it serve the read from its
// local snapshot — read-your-own-writes with bounded staleness (the
// SCAR-style session guarantee) — while writes and too-fresh reads are
// forwarded to the master by the server.
//
// The admin API: Freeze, Checksums, FaultStats, Stats, Topology, Join
// and Drain are admin envelopes. The connected node answers
// node-local ops itself, forwards node-scoped ops (checksums, fault
// stats, stats) to their target, and relays membership ops to the
// coordinator — the caller never needs to know which node is which.
// Admin envelopes carry no workload payloads, so an admin-only client
// dials with core.NewWireCodec(nil).
//
// Flow control is cooperative: the client bounds its own in-flight
// window, admin envelopes included, and the server sheds excess with an
// explicit busy response (ErrBusy here for transactions) rather than
// queueing unboundedly; callers back off and retry.
package client

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"star/internal/backoff"
	"star/internal/core"
	"star/internal/metrics"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire"
)

// ErrBusy reports that the server shed the request under admission
// control (session window, deferred queue, or front-door window full).
// The request did NOT execute; retry after a backoff.
var ErrBusy = errors.New("client: server busy")

// ErrAborted reports that the procedure aborted for application reasons;
// the server does not retry user aborts and neither does the client.
var ErrAborted = errors.New("client: transaction aborted by application")

// ErrClosed reports that the connection is gone (Close was called or the
// stream broke); outstanding and future requests fail with it.
var ErrClosed = errors.New("client: connection closed")

// Config parameterises one client connection.
type Config struct {
	// Addr is the front door's "host:port" (star-node -client).
	Addr string
	// Addrs lists additional front doors for failover. Dial tries Addr
	// (if set) and then each entry in order until one answers; when an
	// established connection later breaks, DoRetry fails over to the
	// next endpoint, carrying the session token with it — the freshness
	// guarantee survives the switch because every replica checks the
	// token against its own fence epoch.
	Addrs []string
	// Codec must be constructed exactly like the serving cluster's
	// (core.NewWireCodec with the same workload configuration).
	Codec *wire.Codec
	// Window bounds the client's own in-flight requests (default 32).
	// Keep it at or below the server's front-door window, or the excess
	// just bounces back as ErrBusy.
	Window int
	// DialDeadline is how long Dial and Failover keep retrying the
	// endpoints (default 15s): the server may still be starting.
	DialDeadline time.Duration
	// ReqTimeout bounds one request round trip (default 30s). A timed-out
	// request's late response is discarded.
	ReqTimeout time.Duration
	// Now supplies GenAt stamps (default: nanoseconds since Dial). With a
	// clocked codec the stamp is re-based into the server's clock domain
	// on the wire, feeding its group-commit latency accounting.
	Now func() int64
}

func (c Config) withDefaults() Config {
	if c.Window == 0 {
		c.Window = 32
	}
	if c.DialDeadline == 0 {
		c.DialDeadline = 15 * time.Second
	}
	if c.ReqTimeout == 0 {
		c.ReqTimeout = 30 * time.Second
	}
	return c
}

// endpoints flattens Addr + Addrs into the failover list.
func (c Config) endpoints() []string {
	var a []string
	if c.Addr != "" {
		a = append(a, c.Addr)
	}
	return append(a, c.Addrs...)
}

// Result is one transaction's outcome.
type Result struct {
	Status core.ClientStatus
	// Token is the freshness token the operation established: the commit
	// epoch for writes, the observed fence epoch for snapshot reads.
	Token uint64
	// Reads is the server's read count for the execution (0 for writes).
	Reads int64
}

// Client is one session, bound to one front door at a time (failover
// re-binds it to the next endpoint, keeping the session token).
type Client struct {
	cfg   Config
	addrs []string
	start time.Time

	writeMu sync.Mutex // frames must hit the stream whole
	wbuf    []byte

	mu      sync.Mutex
	conn    net.Conn
	cur     int // index into addrs of the live endpoint
	next    uint64
	pending map[uint64]chan transport.Message // by ticket
	token   uint64
	closed  bool // current connection broke; Failover may re-bind
	stopped bool // Close was called; the session is over for good

	sem chan struct{} // in-flight window
}

// Dial connects to the first answering front door, retrying across the
// endpoint list with capped exponential backoff until DialDeadline (the
// serving processes may start after the client does).
func Dial(cfg Config) (*Client, error) {
	cfg = cfg.withDefaults()
	if cfg.Codec == nil {
		return nil, fmt.Errorf("client: Config.Codec is required")
	}
	addrs := cfg.endpoints()
	if len(addrs) == 0 {
		return nil, fmt.Errorf("client: no address: set Config.Addr or Config.Addrs")
	}
	c := &Client{
		cfg:     cfg,
		addrs:   addrs,
		start:   time.Now(),
		pending: map[uint64]chan transport.Message{},
		sem:     make(chan struct{}, cfg.Window),
	}
	if c.cfg.Now == nil {
		c.cfg.Now = func() int64 { return int64(time.Since(c.start)) }
	}
	conn, idx, err := c.dialAny(0)
	if err != nil {
		return nil, err
	}
	c.conn, c.cur = conn, idx
	go c.readLoop(conn)
	return c, nil
}

// The connect retry: an attempt gives up after dialTimeout, and a sweep
// of the endpoints that found none answering backs off exponentially,
// with jitter, from dialRetry up to dialRetryMax.
const (
	dialTimeout  = time.Second
	dialRetry    = 50 * time.Millisecond
	dialRetryMax = 2 * time.Second
)

// dialAny tries every endpoint round-robin starting at addrs[from],
// sleeping the backoff between full sweeps, until DialDeadline.
func (c *Client) dialAny(from int) (net.Conn, int, error) {
	pol := backoff.Policy{Base: dialRetry, Max: dialRetryMax, Jitter: 0.5}
	deadline := time.Now().Add(c.cfg.DialDeadline)
	var lastErr error
	for attempt := 0; ; attempt++ {
		idx := (from + attempt) % len(c.addrs)
		conn, err := net.DialTimeout("tcp", c.addrs[idx], dialTimeout)
		if err == nil {
			if tc, ok := conn.(*net.TCPConn); ok {
				tc.SetNoDelay(true)
			}
			return conn, idx, nil
		}
		lastErr = fmt.Errorf("client: dial %s: %w", c.addrs[idx], err)
		if time.Now().After(deadline) {
			return nil, 0, lastErr
		}
		if (attempt+1)%len(c.addrs) == 0 {
			time.Sleep(pol.Delay(attempt/len(c.addrs), rand.Float64()))
		}
	}
}

// Failover re-dials after the connection broke, starting from the
// endpoint after the dead one, and carries the session (token) across
// the swap. It is a no-op on a healthy connection and fails with
// ErrClosed after Close. Requests in flight when the stream broke have
// already failed with ErrClosed; whether a write among them committed
// is unknowable from this side, so retry-after-failover is safe for
// read-only or idempotent procedures (DoRetry's contract).
func (c *Client) Failover() error {
	c.mu.Lock()
	if c.stopped {
		c.mu.Unlock()
		return ErrClosed
	}
	if !c.closed {
		c.mu.Unlock()
		return nil
	}
	from := (c.cur + 1) % len(c.addrs)
	c.mu.Unlock()

	conn, idx, err := c.dialAny(from)
	if err != nil {
		return err
	}
	c.mu.Lock()
	if c.stopped || !c.closed {
		// Closed for good, or a concurrent Failover already won.
		stopped := c.stopped
		c.mu.Unlock()
		conn.Close()
		if stopped {
			return ErrClosed
		}
		return nil
	}
	c.conn, c.cur, c.closed = conn, idx, false
	c.mu.Unlock()
	go c.readLoop(conn)
	// The endpoint that died may be gone for good (drained); learn the
	// current member doors from the cluster. Best-effort and async — the
	// session is already usable on the re-bound connection.
	go c.RefreshTopology()
	return nil
}

// RefreshTopology asks the connected front door for the installed
// topology and replaces the failover endpoint list with the members'
// advertised client addresses (elastic membership: joined nodes become
// dial targets, drained nodes stop being retried). Endpoints the
// cluster does not advertise are kept only if nothing was returned.
func (c *Client) RefreshTopology() error {
	t, err := c.Topology()
	if err != nil {
		return err
	}
	var doors []string
	for _, a := range t.ClientAddrs {
		if a != "" {
			doors = append(doors, a)
		}
	}
	if len(doors) == 0 {
		return nil // cluster advertises no doors; keep what we have
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	curAddr := ""
	if c.cur < len(c.addrs) {
		curAddr = c.addrs[c.cur]
	}
	c.addrs = doors
	c.cur = 0
	for i, a := range doors {
		if a == curAddr {
			c.cur = i
			break
		}
	}
	return nil
}

// Endpoints returns the current failover list (tests observe topology
// refreshes).
func (c *Client) Endpoints() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.addrs...)
}

// Token returns the session's current freshness token (the highest fence
// epoch this session has observed).
func (c *Client) Token() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.token
}

// Close tears the session down for good; outstanding requests fail
// ErrClosed and Failover no longer re-binds.
func (c *Client) Close() error {
	c.mu.Lock()
	c.stopped = true
	conn := c.conn
	c.mu.Unlock()
	err := conn.Close()
	c.fail(conn)
	return err
}

// fail marks conn's generation closed and unblocks every waiter. A
// stale generation (the connection was already replaced by Failover)
// is a no-op.
func (c *Client) fail(conn net.Conn) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if conn != c.conn || c.closed {
		return
	}
	c.closed = true
	for t, ch := range c.pending {
		delete(c.pending, t)
		close(ch)
	}
}

func (c *Client) readLoop(conn net.Conn) {
	defer c.fail(conn)
	for {
		body, err := wire.ReadFrame(conn, wire.MaxClientFrame)
		if err != nil {
			return
		}
		_, m, err := wire.DecodeFrameBody(body, c.cfg.Codec)
		if err != nil {
			return
		}
		var ticket uint64
		switch resp := m.(type) {
		case core.ClientResp:
			ticket = resp.Ticket
		case core.AdminResp:
			ticket = resp.Ticket
		default:
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[ticket]
		delete(c.pending, ticket)
		c.mu.Unlock()
		if ok {
			ch <- m // cap 1: never blocks
		}
	}
}

// Do runs one transaction through the session and blocks for its result:
// writes resolve when their fence completes cluster-wide (the group
// commit), session-fresh snapshot reads immediately. The session token
// advances to the response's token. Errors: ErrBusy (shed, retry after
// backoff), ErrAborted (application abort), ErrClosed, or a timeout.
func (c *Client) Do(p txn.Procedure) (Result, error) {
	m, err := c.roundTrip(p.Name(), func(ticket, token uint64) transport.Message {
		req := txn.NewRequest(p, c.cfg.Now())
		req.Ticket = ticket // client-side correlation; the gate re-stamps on forward
		return core.ClientReq{Token: token, Req: req}
	})
	if err != nil {
		return Result{}, err
	}
	resp, ok := m.(core.ClientResp)
	if !ok {
		return Result{}, fmt.Errorf("client: %s: answered with %T", p.Name(), m)
	}
	res := Result{Status: resp.Status, Token: resp.Token, Reads: resp.Reads}
	switch resp.Status {
	case core.StatusBusy:
		return res, ErrBusy
	case core.StatusAborted:
		return res, ErrAborted
	}
	c.mu.Lock()
	if resp.Token > c.token {
		c.token = resp.Token
	}
	c.mu.Unlock()
	return res, nil
}

// roundTrip is the one request path, for transactions and admin
// envelopes alike: it takes a window slot and a ticket, writes the
// envelope build makes for the ticket and the session token, and waits
// for the response that carries the ticket back. ReqTimeout bounds the
// whole wait; a timed-out request's late response is discarded. what
// names the request in errors.
func (c *Client) roundTrip(what string, build func(ticket, token uint64) transport.Message) (transport.Message, error) {
	timeout := time.NewTimer(c.cfg.ReqTimeout)
	defer timeout.Stop()
	select {
	case c.sem <- struct{}{}:
		defer func() { <-c.sem }()
	case <-timeout.C:
		return nil, fmt.Errorf("client: window wait: timeout after %v", c.cfg.ReqTimeout)
	}

	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil, ErrClosed
	}
	c.next++
	ticket := c.next
	ch := make(chan transport.Message, 1)
	c.pending[ticket] = ch
	token := c.token
	c.mu.Unlock()
	forget := func() {
		c.mu.Lock()
		delete(c.pending, ticket)
		c.mu.Unlock()
	}

	if err := c.writeReq(build(ticket, token)); err != nil {
		forget()
		return nil, err
	}
	select {
	case resp, ok := <-ch:
		if !ok {
			return nil, ErrClosed
		}
		return resp, nil
	case <-timeout.C:
		forget() // a late response is discarded
		return nil, fmt.Errorf("client: %s: timeout after %v", what, c.cfg.ReqTimeout)
	}
}

// DoRetry runs Do, retrying ErrBusy shed with capped exponential
// backoff and failing over to the next endpoint on a broken connection,
// up to attempts tries. A request that was in flight when the stream
// broke is re-submitted after failover — safe for read-only and
// idempotent procedures; for non-idempotent writes the caller must
// treat an eventual error as an ambiguous outcome, as with any RPC.
func (c *Client) DoRetry(p txn.Procedure, attempts int) (Result, error) {
	pol := backoff.Policy{Base: 2 * time.Millisecond, Max: 200 * time.Millisecond, Jitter: 0.5}
	var res Result
	var err error
	for i := 0; i < attempts; i++ {
		res, err = c.Do(p)
		switch {
		case errors.Is(err, ErrBusy):
			time.Sleep(pol.Delay(i, rand.Float64()))
		case errors.Is(err, ErrClosed):
			if ferr := c.Failover(); ferr != nil {
				return res, ferr
			}
		default:
			return res, err
		}
	}
	return res, err
}

func (c *Client) writeReq(m transport.Message) error {
	c.writeMu.Lock()
	defer c.writeMu.Unlock()
	c.mu.Lock()
	conn, closed := c.conn, c.closed
	c.mu.Unlock()
	if closed {
		return ErrClosed
	}
	var err error
	// src/dst are routing hints the front door ignores (the accepting
	// node serves or forwards on its own authority); zeros keep the frame
	// well-formed.
	c.wbuf, err = wire.AppendFrame(c.wbuf[:0], 0, 0, 0, c.cfg.Codec, m)
	if err != nil {
		return fmt.Errorf("client: encode: %w", err)
	}
	if _, err := conn.Write(c.wbuf); err != nil {
		// A failed write means the stream is gone: report it as the
		// closed connection it is so DoRetry's failover path engages.
		return fmt.Errorf("client: write %v: %w", err, ErrClosed)
	}
	return nil
}

// Admin runs one admin envelope through the session's round trip and
// returns its response; a refusal (OK false) is an error carrying the
// server's reason.
func (c *Client) Admin(req core.AdminReq) (core.AdminResp, error) {
	m, err := c.roundTrip(req.Op.String(), func(ticket, _ uint64) transport.Message {
		req.V, req.Ticket = core.AdminProtoVersion, ticket
		return req
	})
	if err != nil {
		return core.AdminResp{}, err
	}
	resp, ok := m.(core.AdminResp)
	if !ok {
		return core.AdminResp{}, fmt.Errorf("client: %s: answered with %T", req.Op, m)
	}
	if !resp.OK {
		return resp, fmt.Errorf("client: %s: %s", req.Op, resp.Err)
	}
	return resp, nil
}

// Freeze toggles workload generation cluster-wide (the connected door
// fans the toggle out to every member).
func (c *Client) Freeze(on bool) error {
	_, err := c.Admin(core.AdminReq{Op: core.AdminFreeze, Node: -1, On: on})
	return err
}

// Checksums returns node's per-partition checksums (its own planned
// holdings under the installed topology).
func (c *Client) Checksums(node int) (core.NodeChecksums, error) {
	resp, err := c.Admin(core.AdminReq{Op: core.AdminChecksums, Node: node})
	if err != nil {
		return core.NodeChecksums{}, err
	}
	return core.NodeChecksums{Node: resp.Node, Parts: resp.Parts, Sums: resp.Sums}, nil
}

// FaultStats returns node's fault-injection counters (star-node
// -faults), empty when its transport injects nothing.
func (c *Client) FaultStats(node int) (map[string]int64, error) {
	resp, err := c.Admin(core.AdminReq{Op: core.AdminFaultStats, Node: node})
	if err != nil {
		return nil, err
	}
	out := make(map[string]int64, len(resp.Keys))
	for i, k := range resp.Keys {
		out[k] = resp.Vals[i]
	}
	return out, nil
}

// Stats returns node's live metric-registry snapshot (counters, gauges,
// histograms — AdminStats). Node -1 asks the connected door's own node;
// any other id is forwarded to its target internally. Merge the members'
// snapshots with metrics.Snapshot.Merge for a cluster view.
func (c *Client) Stats(node int) (metrics.Snapshot, error) {
	resp, err := c.Admin(core.AdminReq{Op: core.AdminStats, Node: node})
	if err != nil {
		return metrics.Snapshot{}, err
	}
	return metrics.DecodeSnapshot(resp.Stats)
}

// Topology describes the installed cluster layout as the admin API
// reports it.
type Topology struct {
	Version uint64
	// Members are the live slot ids, ascending.
	Members []int
	// Masters maps partition -> master slot.
	Masters []int32
	// ClientAddrs aligns with Members ("" when a member advertises no
	// front door).
	ClientAddrs []string
}

// Topology returns the installed topology.
func (c *Client) Topology() (Topology, error) { return c.layout(core.AdminTopologyGet, -1) }

// Join admits slot node at the next epoch fence (snapshot catch-up
// first) and returns the installed topology.
func (c *Client) Join(node int) (Topology, error) { return c.layout(core.AdminJoin, node) }

// Drain migrates slot node's partitions away at the next fence and
// removes it from the member set; its process exits cleanly.
func (c *Client) Drain(node int) (Topology, error) { return c.layout(core.AdminDrain, node) }

// layout runs an op whose answer is a topology.
func (c *Client) layout(op core.AdminOp, node int) (Topology, error) {
	resp, err := c.Admin(core.AdminReq{Op: op, Node: node})
	if err != nil {
		return Topology{}, err
	}
	t := Topology{Version: resp.Version, Masters: resp.Masters, ClientAddrs: resp.ClientAddrs}
	for _, m := range resp.Members {
		t.Members = append(t.Members, int(m))
	}
	return t, nil
}
