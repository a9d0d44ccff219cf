// Package transport defines the cluster network abstraction the engines
// run on: point-to-point message delivery between numbered endpoints
// with per-link FIFO per sending goroutine, fail-stop link control, and
// per-traffic-class byte/message accounting.
//
// Two implementations exist: simnet (a simulated full mesh with latency,
// jitter and bandwidth pacing — the deterministic test substrate) and
// tcpnet (real TCP sockets with the internal/wire binary encoding — the
// multi-process substrate). Both pass the conformance suite in
// transport/conformance, which pins the contract below.
//
// Contract:
//
//   - Send(src, dst, ...) never blocks except for backpressure on a full
//     link queue. Messages from one sending goroutine on one (src,dst)
//     link are delivered in send order. No ordering holds across links
//     or across senders sharing a link.
//   - Local sends (src == dst) bypass the wire but preserve FIFO with
//     respect to the sender's other local sends.
//   - SetDown(n, true) makes the transport silently drop traffic to and
//     from endpoint n (fail-stop semantics); Dropped counts the drops.
//   - Accounting counters are monotone while the transport is up and
//     never reset.
//
// The state this contract names — the down flags, the traffic counts
// and the drop count — is a Ledger, which every implementation embeds.
package transport

import (
	"sync/atomic"

	"star/internal/rt"
)

// Message is anything sent over the network. Size is the length in bytes
// of the frame the message encodes to (wire/frame.go) — what tcpnet
// writes to a socket for it — and every transport paces and charges a
// send by it, wherever the peer is hosted. Only a message with no wire
// form (the simulated baselines', tests') states a modelled size.
type Message interface{ Size() int }

// Class buckets traffic for accounting.
type Class uint8

const (
	// Control is coordination traffic (fences, phase switches, acks).
	Control Class = iota
	// Data is transaction execution traffic (remote reads, lock
	// requests, 2PC rounds, deferred cross-partition requests).
	Data
	// Replication is the replication stream.
	Replication
	// NumClasses bounds the class enumeration.
	NumClasses
)

// Transport is the network substrate engines send and receive on.
type Transport interface {
	// Send ships m from endpoint src to endpoint dst under the given
	// traffic class. It must not block except for link backpressure.
	Send(src, dst int, class Class, m Message)

	// Inbox returns endpoint dst's receive mailbox. Only locally hosted
	// endpoints have a live inbox on multi-process transports.
	Inbox(dst int) rt.Chan

	// SetDown marks an endpoint failed (true) or healthy (false);
	// traffic to or from a down endpoint is silently dropped.
	SetDown(node int, down bool)

	// IsDown reports the failure flag for an endpoint.
	IsDown(node int) bool

	// Bytes returns the bytes sent in the given class.
	Bytes(c Class) int64

	// Messages returns the message count in the given class.
	Messages(c Class) int64

	// TotalBytes returns all bytes sent across classes.
	TotalBytes() int64

	// Dropped returns the number of messages dropped due to down
	// endpoints.
	Dropped() int64
}

// Ledger is the state the contract names, kept once for every
// implementation: a down flag per endpoint, the per-class bytes and
// messages of the sends this process accepted (counted on the sending
// side, local and remote sends alike) and the drop count. Embedding it
// supplies SetDown, IsDown, Bytes, Messages, TotalBytes and Dropped; an
// implementation's Send and delivery call Passes, Charge and Drop.
type Ledger struct {
	down    []atomic.Bool
	bytes   [NumClasses]atomic.Int64
	msgs    [NumClasses]atomic.Int64
	dropped atomic.Int64
}

// NewLedger returns the ledger of endpoints 0..endpoints-1, all up.
func NewLedger(endpoints int) Ledger { return Ledger{down: make([]atomic.Bool, endpoints)} }

// Passes reports whether a message from src to dst may pass: neither
// end is down. One that may not is counted as a drop.
func (l *Ledger) Passes(src, dst int) bool {
	if l.down[src].Load() || l.down[dst].Load() {
		l.dropped.Add(1)
		return false
	}
	return true
}

// Charge accounts one accepted send of size bytes in class c.
func (l *Ledger) Charge(c Class, size int) {
	l.bytes[c].Add(int64(size))
	l.msgs[c].Add(1)
}

// Drop counts one message lost.
func (l *Ledger) Drop() { l.dropped.Add(1) }

// SetDown marks an endpoint failed (true) or healthy (false).
func (l *Ledger) SetDown(node int, down bool) { l.down[node].Store(down) }

// IsDown reports the failure flag for an endpoint.
func (l *Ledger) IsDown(node int) bool { return l.down[node].Load() }

// Bytes returns the bytes sent in class c.
func (l *Ledger) Bytes(c Class) int64 { return l.bytes[c].Load() }

// Messages returns the message count in class c.
func (l *Ledger) Messages(c Class) int64 { return l.msgs[c].Load() }

// TotalBytes returns all bytes sent across classes.
func (l *Ledger) TotalBytes() int64 {
	var t int64
	for i := range l.bytes {
		t += l.bytes[i].Load()
	}
	return t
}

// Dropped returns the number of messages dropped.
func (l *Ledger) Dropped() int64 { return l.dropped.Load() }
