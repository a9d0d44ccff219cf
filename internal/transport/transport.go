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
package transport

import "star/internal/rt"

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
