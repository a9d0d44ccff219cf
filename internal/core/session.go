package core

import (
	"sync"

	"star/internal/transport"
	"star/internal/txn"
)

// ClientGate is a node's client-session layer — the in-process half of
// the star-client front door. It owns the session bookkeeping the socket
// handlers share:
//
//   - Read-only requests carrying a freshness token are served inline
//     from the node's epoch-fence snapshot when the token's fence has
//     completed locally (TryRead) — the SCAR-style session guarantee:
//     read-your-own-writes with bounded staleness, without touching the
//     master.
//   - Everything else is forwarded to the current master with a
//     node-unique ticket stamped into the request (Submit); the matching
//     ClientResp is routed back to this node and rendezvoused with the
//     waiting handler (deliver).
//   - A dying connection abandons its outstanding tickets (dropConn), so
//     a client that disconnects mid-request can neither leak a pending
//     slot nor wedge the admission window: every waiter unblocks on its
//     closed channel, and a late response for a dropped ticket is
//     discarded.
//
// Why the freshness check is safe: the coordinator completes fence E on
// every node before broadcasting startPhase E+1, and a write's response
// (token E) is only released by that same startPhase. So any node whose
// in-flight epoch exceeds E has locally applied everything the token's
// session could have written. The check is conservative — a lagging
// replica falls back to the master — but never wrong.
type ClientGate struct {
	n *node

	mu      sync.Mutex
	next    uint64
	pending map[uint64]pendingTicket
	// pendingAdmin tracks forwarded admin envelopes (star-admin over the
	// front door) by server ticket — a namespace separate from the
	// transaction tickets above, since the response types differ.
	pendingAdmin map[uint64]pendingAdminTicket
	// sctx is the gate-owned snapshot-read context (guarded by mu; the
	// fence snapshot itself tolerates concurrent appliers, same as the
	// workers' snapshot path).
	sctx snapshotCtx

	// skipFreshness disables the token check. Test hook only: the
	// read-your-own-writes test proves the guarantee by showing stale
	// reads ARE served with the check off.
	skipFreshness bool
}

// pendingTicket is one forwarded request awaiting its response.
type pendingTicket struct {
	conn uint64
	ch   chan ClientResp
}

// pendingAdminTicket is one forwarded admin envelope awaiting its
// response.
type pendingAdminTicket struct {
	conn uint64
	ch   chan AdminResp
}

func newClientGate(n *node) *ClientGate {
	g := &ClientGate{n: n, pending: map[uint64]pendingTicket{}, pendingAdmin: map[uint64]pendingAdminTicket{}}
	g.sctx.n = n
	return g
}

// TryRead serves a read-only request from the node's last epoch fence if
// the session's freshness token allows it. Returns ok=false when the
// request must be forwarded to the master instead: snapshot reads are
// disabled, the procedure writes, this node does not hold the whole
// footprint, or the token's fence has not completed here yet. The
// returned response carries no ticket — the caller owns correlation.
func (g *ClientGate) TryRead(token uint64, req *txn.Request) (ClientResp, bool) {
	n := g.n
	e := n.e
	if !e.cfg.SnapshotReads || !txn.IsReadOnly(req.Proc) {
		return ClientResp{}, false
	}
	g.mu.Lock()
	defer g.mu.Unlock()
	epoch := n.epoch.Load()
	if !g.skipFreshness && token >= epoch {
		// The token's fence has not completed on this replica: its
		// snapshot may predate the session's own writes.
		e.snapFallback.Inc()
		return ClientResp{}, false
	}
	for _, p := range req.Parts {
		if !n.db.Holds(p) {
			e.snapFallback.Inc()
			return ClientResp{}, false
		}
	}
	g.sctx.reset(epoch)
	err := req.Proc.Run(&g.sctx)
	if g.sctx.wrote {
		panic("core: read-only transaction wrote on the snapshot path")
	}
	if err != nil {
		e.userAborts.Inc()
		return ClientResp{Status: StatusAborted}, true
	}
	e.snapReads.Inc()
	e.committed.Inc()
	// The response's token is the fence the read observed: a session that
	// keeps its running maximum never travels back in time.
	return ClientResp{Status: StatusOK, Token: epoch - 1, Reads: int64(g.sctx.reads)}, true
}

// Submit forwards a request to the current master under a fresh ticket
// and returns the channel its response will arrive on. The channel is
// closed without a value if the connection is dropped first. conn
// identifies the submitting connection for dropConn.
func (g *ClientGate) Submit(conn, token uint64, req *txn.Request) (uint64, <-chan ClientResp) {
	g.mu.Lock()
	g.next++
	ticket := g.next
	ch := make(chan ClientResp, 1)
	g.pending[ticket] = pendingTicket{conn: conn, ch: ch}
	g.mu.Unlock()

	req.Origin = g.n.id
	req.Ticket = ticket
	g.n.e.net.Send(g.n.id, g.n.view.Load().master, transport.Data, ClientReq{Token: token, Req: req})
	return ticket, ch
}

// SubmitAdmin routes an admin envelope from a front-door connection
// into the cluster under a fresh ticket: the request is self-sent to
// this node's own router (actor order with everything else it serves),
// which answers local ops in place and forwards the rest — the
// response finds its way back here by ticket. The channel is closed
// without a value if the connection is dropped first.
func (g *ClientGate) SubmitAdmin(conn uint64, req AdminReq) (uint64, <-chan AdminResp) {
	g.mu.Lock()
	g.next++
	ticket := g.next
	ch := make(chan AdminResp, 1)
	g.pendingAdmin[ticket] = pendingAdminTicket{conn: conn, ch: ch}
	g.mu.Unlock()

	req.V = AdminProtoVersion
	req.From = g.n.id
	req.Ticket = ticket
	g.n.e.net.Send(g.n.id, g.n.id, transport.Control, req)
	return ticket, ch
}

// deliverAdmin rendezvouses an admin response with its waiting
// front-door handler. Called from the node router.
func (g *ClientGate) deliverAdmin(resp AdminResp) {
	g.mu.Lock()
	pt, ok := g.pendingAdmin[resp.Ticket]
	if ok {
		delete(g.pendingAdmin, resp.Ticket)
	}
	g.mu.Unlock()
	if ok {
		pt.ch <- resp
	}
}

// deliver rendezvouses a response with its waiting handler. Responses
// for unknown tickets (connection dropped before the master answered)
// are discarded. Called from the node router.
func (g *ClientGate) deliver(resp ClientResp) {
	g.mu.Lock()
	pt, ok := g.pending[resp.Ticket]
	if ok {
		delete(g.pending, resp.Ticket)
	}
	g.mu.Unlock()
	if ok {
		pt.ch <- resp // cap 1, sole producer: never blocks
	}
}

// dropConn abandons every outstanding ticket of a dead connection:
// waiters unblock on their closed channels and release their admission
// slots, and later responses for these tickets fall into deliver's
// unknown-ticket discard.
func (g *ClientGate) dropConn(conn uint64) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for t, pt := range g.pending {
		if pt.conn == conn {
			delete(g.pending, t)
			close(pt.ch)
		}
	}
	for t, pt := range g.pendingAdmin {
		if pt.conn == conn {
			delete(g.pendingAdmin, t)
			close(pt.ch)
		}
	}
}

// Pending returns the number of outstanding forwarded requests (tests
// pin that a killed client leaks no session slots).
func (g *ClientGate) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}
