package core

import (
	"bufio"
	"net"
	"sync"
	"sync/atomic"

	"star/internal/transport"
	"star/internal/wire"
)

// DefaultClientWindow is the per-connection in-flight bound the front
// door enforces when the caller does not choose one.
const DefaultClientWindow = 64

// ServeClients turns ln into node id's client front door: each accepted
// connection carries length-prefixed ClientReq and AdminReq frames (the
// same wire framing the cluster speaks) and receives one ClientResp or
// AdminResp frame per request. Real-runtime clusters only (star-node
// -serve); returns after spawning the accept loop, which exits when ln
// is closed.
//
// Per-connection admission control: at most window submitted envelopes,
// transactions and admin ops alike, may be in flight at once — beyond
// that the door answers busy immediately instead of queueing, so a
// flooding client backs off instead of ballooning server state.
// Read-only requests the local replica can serve under the session's
// freshness token never count against the window (they complete inline,
// no master round trip).
func (e *Engine) ServeClients(id int, ln net.Listener, codec *wire.Codec, window int) {
	n := e.nodes[id]
	if n == nil {
		panic("core: ServeClients on a node this process does not host")
	}
	if window <= 0 {
		window = DefaultClientWindow
	}
	go func() {
		var seq uint64
		for {
			c, err := ln.Accept()
			if err != nil {
				return
			}
			seq++
			cc := &clientConn{
				n:      n,
				id:     seq,
				c:      c,
				codec:  codec,
				window: int32(window),
				out:    make(chan transport.Message, window),
				done:   make(chan struct{}),
			}
			go cc.readLoop()
			go cc.writeLoop()
		}
	}()
}

// clientConn is one accepted star-client connection.
type clientConn struct {
	n      *node
	id     uint64 // gate-scoped connection id
	c      net.Conn
	codec  *wire.Codec
	window int32
	// inflight counts submitted envelopes awaiting their response
	// (incremented by the reader, decremented by waiters).
	inflight atomic.Int32
	out      chan transport.Message
	done     chan struct{}
	closer   sync.Once
}

// close tears the connection down exactly once: the socket unblocks both
// loops, and dropConn abandons the outstanding tickets so their waiters
// release the admission slots they hold.
func (cc *clientConn) close() {
	cc.closer.Do(func() {
		close(cc.done)
		cc.c.Close()
		cc.n.gate.dropConn(cc.id)
	})
}

// send queues a response frame for the writer, giving up if the
// connection is being torn down.
func (cc *clientConn) send(resp transport.Message) {
	select {
	case cc.out <- resp:
	case <-cc.done:
	}
}

func (cc *clientConn) readLoop() {
	defer cc.close()
	br := bufio.NewReaderSize(cc.c, 32<<10)
	for {
		body, err := wire.ReadFrame(br, wire.MaxClientFrame)
		if err != nil {
			return
		}
		_, m, err := wire.DecodeFrameBody(body, cc.codec)
		if err != nil {
			return // a malformed client is disconnected, not served
		}
		// The client's own correlation id: the gate re-stamps the envelope
		// with a server ticket on submit, so it is captured here for the
		// response.
		var ticket uint64
		switch req := m.(type) {
		case ClientReq:
			ticket = req.Req.Ticket
			if resp, served := cc.n.gate.TryRead(req.Token, req.Req); served {
				resp.Ticket = ticket
				cc.send(resp)
				continue
			}
		case AdminReq:
			ticket = req.Ticket
		default:
			return
		}
		if cc.inflight.Load() >= cc.window {
			// Window full: shed explicitly rather than queue. The client
			// library backs off and retries.
			cc.n.e.shedClient.Inc()
			cc.send(busy(m, ticket))
			continue
		}
		cc.inflight.Add(1)
		ch := cc.n.gate.Submit(cc.id, m)
		go func() {
			defer cc.inflight.Add(-1)
			resp, ok := <-ch
			if !ok {
				return // connection dropped; ticket abandoned
			}
			cc.send(withTicket(resp, ticket))
		}()
	}
}

// busy is the door's refusal of an envelope past the window, in the
// envelope's own response kind.
func busy(req transport.Message, ticket uint64) transport.Message {
	if a, ok := req.(AdminReq); ok {
		return AdminResp{V: AdminProtoVersion, Op: a.Op, Ticket: ticket, Err: "front door busy"}
	}
	return ClientResp{Ticket: ticket, Status: StatusBusy}
}

// withTicket returns resp carrying the client's ticket in place of the
// gate's.
func withTicket(resp transport.Message, ticket uint64) transport.Message {
	switch r := resp.(type) {
	case ClientResp:
		r.Ticket = ticket
		return r
	case AdminResp:
		r.Ticket = ticket
		return r
	}
	return resp
}

func (cc *clientConn) writeLoop() {
	defer cc.close()
	bw := bufio.NewWriterSize(cc.c, 32<<10)
	var buf []byte
	for {
		select {
		case resp := <-cc.out:
			var err error
			buf, err = wire.AppendFrame(buf[:0], cc.n.id, 0, transport.Control, cc.codec, resp)
			if err != nil {
				return
			}
			if _, err := bw.Write(buf); err != nil {
				return
			}
			if len(cc.out) == 0 {
				if err := bw.Flush(); err != nil {
					return
				}
			}
		case <-cc.done:
			return
		}
	}
}
