package core

import (
	"bytes"
	"net"
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/workload/ycsb"
)

// probeRead is a read-only probe that captures the row bytes it
// observes, so tests can tell WHICH version of a record a snapshot read
// served (ycsb.ReadTxn discards the value).
type probeRead struct {
	part int
	key  storage.Key
	accs []txn.Access
	got  []byte
}

func newProbeRead(w *ycsb.Workload, part, row int) *probeRead {
	p := &probeRead{part: part, key: w.Key(part, row)}
	p.accs = []txn.Access{{Table: ycsb.TableID, Part: part, Key: p.key}}
	return p
}

func (p *probeRead) Name() string           { return "test.probe-read" }
func (p *probeRead) Accesses() []txn.Access { return p.accs }
func (p *probeRead) ReadOnly() bool         { return true }
func (p *probeRead) Run(ctx txn.Ctx) error {
	row, ok := ctx.Read(ycsb.TableID, p.part, p.key)
	if !ok {
		return txn.ErrConflict
	}
	p.got = append(p.got[:0], row...)
	return nil
}

// newSessionHarness builds an unstarted 2-node cluster of two FULL
// replicas so both nodes hold every partition and either gate can serve
// snapshot reads. Nothing runs — tests drive workers and gates
// synchronously and set epochs by hand.
func newSessionHarness(t *testing.T) (*Engine, *ycsb.Workload) {
	t.Helper()
	wl := ycsb.New(ycsb.Config{
		Partitions:          2, // Nodes × WorkersPerNode
		RecordsPerPartition: 64,
	})
	r := rt.NewReal()
	e := build(Config{
		RT:             r,
		Nodes:          2,
		FullReplicas:   2,
		WorkersPerNode: 1,
		Workload:       wl,
		Seed:           1,
		SnapshotReads:  true,
		Transport:      simnet.New(r, simnet.Config{Nodes: 3}),
	})
	for _, n := range e.nodes {
		n.epoch.Store(2) // in-flight epoch 2 everywhere: fence = loaded state
		n.workers[0].strm.SetEpoch(2)
	}
	return e, wl
}

// TestSessionTokenReadYourOwnWrites is the read-your-own-writes pin for
// the client session layer, built to FAIL with the freshness check
// disabled:
//
//  1. A session commits a write on the master in epoch 2 and holds
//     token 2. The replica has not applied it and its fence has not
//     advanced.
//  2. With the token check ON, the replica refuses the session's read
//     (TryRead falls back to the master) — the session can never
//     observe the pre-write version.
//  3. With the token check OFF (the read presented with token 0, which
//     every fence covers), the very same read IS served — and returns
//     the stale pre-write bytes, which is exactly the violation the
//     check exists to prevent.
//  4. Once the replica applies the write and its fence passes the
//     token, TryRead serves the read locally and returns the session's
//     own write.
func TestSessionTokenReadYourOwnWrites(t *testing.T) {
	e, wl := newSessionHarness(t)
	g1 := e.Gate(1)

	// Baseline: what a fresh session (token 0) reads before the write.
	before := newProbeRead(wl, 0, 0)
	resp, ok := g1.TryRead(0, txn.NewRequest(before, 0))
	if !ok || resp.Status != StatusOK {
		t.Fatalf("baseline snapshot read not served: ok=%v resp=%+v", ok, resp)
	}
	if resp.Token != 1 {
		t.Fatalf("baseline read token = %d, want fence 1", resp.Token)
	}
	orig := append([]byte(nil), before.got...)

	// The session's write commits on the master (node 0) in epoch 2; the
	// session now holds token 2. The replica (node 1) has NOT applied it.
	w0 := e.nodes[0].workers[0]
	write := txn.NewRequest(wl.WriteTxn([]int{0}, []int{0}, []byte("session-w")), 0)
	w0.execSerial(write, 2)
	if w0.committed != 1 {
		t.Fatal("session write did not commit on the master")
	}
	const token = 2

	// Token check ON: the replica's fence (epoch 2 in flight) has not
	// covered the token, so the read must fall back to the master.
	stale := newProbeRead(wl, 0, 0)
	fallbacks := e.snapFallback.Load()
	if _, ok := g1.TryRead(token, txn.NewRequest(stale, 0)); ok {
		t.Fatal("replica served a session read its fence does not cover")
	}
	if e.snapFallback.Load() != fallbacks+1 {
		t.Fatal("refused read was not accounted as a snapshot fallback")
	}

	// Token check OFF: the same read is served — with the PRE-write
	// bytes. This is the read-your-own-writes violation the token
	// prevents; if the check were removed, this branch is what every
	// session would observe.
	resp, ok = g1.TryRead(0, txn.NewRequest(stale, 0))
	if !ok || resp.Status != StatusOK {
		t.Fatalf("check disabled: read not served: ok=%v resp=%+v", ok, resp)
	}
	if !bytes.Equal(stale.got, orig) {
		t.Fatal("check disabled: expected the stale pre-write version to leak")
	}

	// The replica catches up (applies the same write under epoch 2) and
	// its fence completes: epoch 3 begins. Now the token admits the read
	// locally, and it returns the session's own write.
	w1 := e.nodes[1].workers[0]
	w1.execSerial(txn.NewRequest(wl.WriteTxn([]int{0}, []int{0}, []byte("session-w")), 0), 2)
	e.nodes[1].epoch.Store(3)

	after := newProbeRead(wl, 0, 0)
	resp, ok = g1.TryRead(token, txn.NewRequest(after, 0))
	if !ok || resp.Status != StatusOK {
		t.Fatalf("caught-up replica refused the read: ok=%v resp=%+v", ok, resp)
	}
	if resp.Token != 3-1 {
		t.Fatalf("served read token = %d, want fence %d", resp.Token, 3-1)
	}
	if bytes.Equal(after.got, orig) {
		t.Fatal("caught-up read still returned the pre-write version")
	}
	if bytes.Equal(after.got, stale.got) && bytes.Equal(stale.got, orig) {
		t.Fatal("read-your-own-writes: session's write never became visible")
	}
}

// TestSessionTokenlessReadsRouteZeroMasterMessages is the session-layer
// transport-accounting pin: a token-less session (token 0 — it has
// written nothing) running read-only transactions through a replica's
// gate is served entirely from the local fence snapshot and routes ZERO
// master messages. A forwarded write through the same gate routes
// exactly one — proving the accounting is live, not vacuous.
func TestSessionTokenlessReadsRouteZeroMasterMessages(t *testing.T) {
	e, wl := newSessionHarness(t)
	g1 := e.Gate(1)

	const reads = 25
	base := e.Net().Messages(transport.Data)
	for i := 0; i < reads; i++ {
		req := txn.NewRequest(wl.ReadTxn([]int{0, 1}, []int{i, i}), 0)
		resp, ok := g1.TryRead(0, req)
		if !ok || resp.Status != StatusOK {
			t.Fatalf("read %d not served from the snapshot: ok=%v resp=%+v", i, ok, resp)
		}
		if resp.Reads != 2 {
			t.Fatalf("read %d: Reads = %d, want 2", i, resp.Reads)
		}
	}
	if d := e.Net().Messages(transport.Data) - base; d != 0 {
		t.Fatalf("token-less snapshot session routed %d master messages, want 0", d)
	}
	if got := e.snapReads.Load(); got != reads {
		t.Fatalf("snapshot_reads = %d, want %d", got, reads)
	}

	// Control: one forwarded write = exactly one master-routed message.
	wreq := txn.NewRequest(wl.WriteTxn([]int{0}, []int{0}, []byte("x")), 0)
	if _, ok := g1.TryRead(0, wreq); ok {
		t.Fatal("gate served a WRITE from the snapshot path")
	}
	g1.Submit(1, ClientReq{Req: wreq})
	if d := e.Net().Messages(transport.Data) - base; d != 1 {
		t.Fatalf("forwarded write routed %d master messages, want 1", d)
	}
	if g1.Pending() != 1 {
		t.Fatalf("Pending = %d after one forward, want 1", g1.Pending())
	}
}

// TestClientDisconnectReleasesSessionSlots is the kill-the-client pin
// for satellite #3: a client that fills the front door's admission
// window with forwarded requests and then dies mid-request must leak
// nothing — every gate slot is dropped, every waiter unblocks, and the
// door keeps serving new connections. Admin envelopes are held to the
// same window and released the same way.
func TestClientDisconnectReleasesSessionSlots(t *testing.T) {
	e, wl := newSessionHarness(t)
	codec := NewWireCodec(wl)

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	defer ln.Close()
	const window = 4
	// Node 1's door: writes forward to the (never-answering) master, so
	// forwarded slots stay occupied until the connection dies.
	e.ServeClients(1, ln, codec, window)
	g1 := e.Gate(1)

	dial := func() net.Conn {
		t.Helper()
		c, err := net.Dial("tcp", ln.Addr().String())
		if err != nil {
			t.Fatalf("dial: %v", err)
		}
		return c
	}
	send := func(c net.Conn, m transport.Message) {
		t.Helper()
		frame, err := wire.AppendFrame(nil, 0, 0, 0, codec, m)
		if err != nil {
			t.Fatalf("encode: %v", err)
		}
		if _, err := c.Write(frame); err != nil {
			t.Fatalf("write: %v", err)
		}
	}
	sendReq := func(c net.Conn, ticket uint64, p txn.Procedure) {
		t.Helper()
		req := txn.NewRequest(p, 0)
		req.Ticket = ticket
		send(c, ClientReq{Req: req})
	}
	read := func(c net.Conn) transport.Message {
		t.Helper()
		c.SetReadDeadline(time.Now().Add(5 * time.Second))
		body, err := wire.ReadFrame(c, wire.MaxClientFrame)
		if err != nil {
			t.Fatalf("read frame: %v", err)
		}
		_, m, err := wire.DecodeFrameBody(body, codec)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		return m
	}
	readResp := func(c net.Conn) ClientResp {
		t.Helper()
		return read(c).(ClientResp)
	}
	waitPending := func(label string, want int) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for g1.Pending() != want {
			if time.Now().After(deadline) {
				t.Fatalf("%s: gate pending = %d, want %d", label, g1.Pending(), want)
			}
			time.Sleep(2 * time.Millisecond)
		}
	}

	// Fill the window with forwarded writes, then overflow it: the door
	// must shed the excess with StatusBusy, not queue it.
	victim := dial()
	for i := uint64(1); i <= window; i++ {
		sendReq(victim, i, wl.WriteTxn([]int{0}, []int{int(i)}, []byte("v")))
	}
	waitPending("window full", window)
	sendReq(victim, window+1, wl.WriteTxn([]int{0}, []int{9}, []byte("v")))
	if resp := readResp(victim); resp.Status != StatusBusy || resp.Ticket != window+1 {
		t.Fatalf("overflow response = %+v, want StatusBusy for ticket %d", resp, window+1)
	}
	if g1.Pending() != window {
		t.Fatalf("shed request consumed a slot: pending = %d", g1.Pending())
	}

	// Kill the client mid-request: all its slots must drain.
	victim.Close()
	waitPending("after kill", 0)

	// Admin envelopes hold window slots too (the unstarted router never
	// answers the self-sent copies): past the window one is refused at
	// once, and killing the connection drains its tickets.
	admin := dial()
	for i := uint64(1); i <= window; i++ {
		send(admin, AdminReq{V: AdminProtoVersion, Op: AdminStats, Ticket: i, Node: -1})
	}
	waitPending("admin window full", window)
	send(admin, AdminReq{V: AdminProtoVersion, Op: AdminStats, Ticket: window + 1, Node: -1})
	if resp, ok := read(admin).(AdminResp); !ok || resp.OK || resp.Err != "front door busy" || resp.Ticket != window+1 {
		t.Fatalf("admin overflow response = %+v, want a busy refusal for ticket %d", resp, window+1)
	}
	admin.Close()
	waitPending("after admin kill", 0)

	// The door is still healthy: a new session's snapshot read completes,
	// and its forwarded writes get fresh window slots (no leaked count).
	fresh := dial()
	defer fresh.Close()
	sendReq(fresh, 1, wl.ReadTxn([]int{0}, []int{0}))
	if resp := readResp(fresh); resp.Status != StatusOK || resp.Ticket != 1 {
		t.Fatalf("post-kill snapshot read = %+v, want StatusOK ticket 1", resp)
	}
	for i := uint64(2); i <= window+1; i++ {
		sendReq(fresh, i, wl.WriteTxn([]int{1}, []int{int(i)}, []byte("f")))
	}
	waitPending("fresh window", window)

	// A late master response for a dropped ticket is discarded, not
	// misdelivered: deliver() on an unknown ticket is a no-op.
	g1.deliver(1, ClientResp{Ticket: 1, Status: StatusOK})
	if g1.Pending() != window {
		t.Fatalf("late response disturbed live sessions: pending = %d", g1.Pending())
	}
}
