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
//   - Everything else, a transaction or an admin envelope, is submitted
//     under a node-unique ticket (Submit); its response, a ClientResp or
//     an AdminResp, is routed back to this node and finds its waiting
//     handler by that ticket (deliver).
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
	// lctx is the gate-owned snapshot-read context (guarded by mu; the
	// fence snapshot itself tolerates concurrent appliers, same as the
	// workers' snapshot path).
	lctx txn.Local
}

// pendingTicket is one submitted envelope awaiting its response.
type pendingTicket struct {
	conn uint64
	ch   chan transport.Message
}

func newClientGate(n *node) *ClientGate {
	g := &ClientGate{n: n, pending: map[uint64]pendingTicket{}}
	g.lctx.DB, g.lctx.Set = n.db, &txn.RWSet{}
	return g
}

// TryRead serves a read-only request from the node's last epoch fence if
// the session's freshness token allows it (node.readAtFence); ok=false
// means it must be forwarded to the master instead. The returned response
// carries no ticket — the caller owns correlation.
func (g *ClientGate) TryRead(token uint64, req *txn.Request) (ClientResp, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.n.readAtFence(&g.lctx, g.n.epoch.Load(), token, req)
}

// Submit sends a ClientReq or an AdminReq into the cluster under a fresh
// ticket and returns the channel its response will arrive on. A
// transaction goes to the current master. An admin envelope is self-sent
// to this node's own router (actor order with everything else it
// serves), which answers local ops in place and forwards the rest. The
// channel is closed without a value if conn is dropped first.
func (g *ClientGate) Submit(conn uint64, m transport.Message) <-chan transport.Message {
	g.mu.Lock()
	g.next++
	ticket := g.next
	ch := make(chan transport.Message, 1)
	g.pending[ticket] = pendingTicket{conn: conn, ch: ch}
	g.mu.Unlock()

	n := g.n
	switch req := m.(type) {
	case ClientReq:
		req.Req.Origin, req.Req.Ticket = n.id, ticket
		n.e.net.Send(n.id, n.view.Load().master, transport.Data, m)
	case AdminReq:
		req.V, req.From, req.Ticket = AdminProtoVersion, n.id, ticket
		n.e.net.Send(n.id, n.id, transport.Control, req)
	}
	return ch
}

// deliver hands a response to the handler waiting on its ticket.
// Responses for unknown tickets (connection dropped first) are
// discarded. Called from the node router.
func (g *ClientGate) deliver(ticket uint64, resp transport.Message) {
	g.mu.Lock()
	pt, ok := g.pending[ticket]
	delete(g.pending, ticket)
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
}

// Pending returns the number of outstanding submitted envelopes (tests
// pin that a killed client leaks no session slots).
func (g *ClientGate) Pending() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return len(g.pending)
}
