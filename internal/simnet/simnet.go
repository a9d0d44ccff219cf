// Package simnet provides the cluster network substrate: a full mesh of
// FIFO links between nodes with configurable one-way latency, jitter and
// per-node egress bandwidth (token-bucket pacing, modelling the ~4.8
// Gbit/s NIC the paper's EC2 nodes had). It runs on either rt runtime.
//
// Per-link FIFO ordering is guaranteed per sending goroutine: one
// process's sends on a link are delivered in send order, which is what
// STAR's operation replication relies on (§5: a partition has a single
// writer thread, so its deltas arrive in commit order). Interleaving
// between *different* senders sharing a link carries no ordering
// promise — on the real runtime the enqueue happens outside the link
// lock, so two concurrently sending workers may enter the queue in
// either order.
//
// Locking is per-resource, not global: the enqueue path takes the
// sender's egress gate and then the link's own lock, so concurrent
// workers shipping replication batches to different destinations never
// serialise on a network-wide mutex, and byte/message accounting (the
// transport.Ledger the network embeds) is lock-free.
package simnet

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"star/internal/rt"
	"star/internal/transport"
)

// Network implements transport.Transport.
var _ transport.Transport = (*Network)(nil)

// Config parameterises the network.
type Config struct {
	Nodes int
	// Latency is the one-way propagation delay between distinct nodes.
	Latency time.Duration
	// Jitter adds a uniform [0,Jitter) delay per message.
	Jitter time.Duration
	// Bandwidth is each node's egress capacity in bytes/second;
	// 0 disables pacing.
	Bandwidth float64
	// Seed drives the jitter RNGs (each link derives its own stream).
	Seed int64
}

// DefaultLatency is the one-way delay of the default simulated network,
// and what an engine assumes of a transport until it has measured it.
const DefaultLatency = 50 * time.Microsecond

// DefaultConfig is the network every engine simulates unless handed
// another: the paper's EC2 cluster, ~4.8 Gbit/s per node as measured
// there (§7.1). nodes counts endpoints, the coordinator's or
// sequencer's included.
func DefaultConfig(nodes int, seed int64) Config {
	return Config{Nodes: nodes, Latency: DefaultLatency, Jitter: 10 * time.Microsecond, Bandwidth: 600e6, Seed: seed}
}

type envelope struct {
	at  time.Duration
	msg transport.Message
}

// link is one src→dst FIFO pipe. Its lock covers only this link's jitter
// RNG and FIFO watermark, so traffic to other destinations is unaffected.
type link struct {
	queue  rt.Chan
	mu     sync.Mutex
	rng    *rand.Rand
	lastAt time.Duration
}

// egressGate serialises a node's NIC: senders reserve wire time here.
// Padded so gates of neighbouring nodes don't share a cache line.
type egressGate struct {
	mu       sync.Mutex
	nextFree time.Duration
	_        [48]byte // mutex(8) + nextFree(8) + 48 = one 64-byte line
}

// Network is a full mesh of FIFO links plus per-node inboxes.
type Network struct {
	transport.Ledger
	r   rt.Runtime
	cfg Config

	links  [][]*link
	egress []egressGate

	inboxes []rt.Chan
}

// inboxCap bounds each node's inbox and each link's queue (backpressure).
const inboxCap = 1 << 16

// New builds the network and spawns one deliverer process per link.
func New(r rt.Runtime, cfg Config) *Network {
	n := &Network{
		Ledger:  transport.NewLedger(cfg.Nodes),
		r:       r,
		cfg:     cfg,
		links:   make([][]*link, cfg.Nodes),
		egress:  make([]egressGate, cfg.Nodes),
		inboxes: make([]rt.Chan, cfg.Nodes),
	}
	for i := 0; i < cfg.Nodes; i++ {
		n.inboxes[i] = r.NewChan(inboxCap)
	}
	for src := 0; src < cfg.Nodes; src++ {
		n.links[src] = make([]*link, cfg.Nodes)
		for dst := 0; dst < cfg.Nodes; dst++ {
			if src == dst {
				continue
			}
			l := &link{
				queue: r.NewChan(inboxCap),
				rng:   rand.New(rand.NewSource(cfg.Seed ^ linkSeed(src, dst))),
			}
			n.links[src][dst] = l
			n.spawnDeliverer(src, dst, l)
		}
	}
	return n
}

// Latency reports the configured one-way delay: an engine on this
// network is told its latency and need not estimate it.
func (n *Network) Latency() time.Duration { return n.cfg.Latency }

// linkSeed derives a distinct deterministic RNG stream per (src,dst).
func linkSeed(src, dst int) int64 {
	return int64(uint64(src<<20|dst) * 0x9e3779b97f4a7c15 >> 1)
}

func (n *Network) spawnDeliverer(src, dst int, l *link) {
	n.r.Go(fmt.Sprintf("net-link-%d-%d", src, dst), func() {
		for {
			env := l.queue.Recv().(envelope)
			if d := env.at - n.r.Now(); d > 0 {
				n.r.Sleep(d)
			}
			if !n.Passes(src, dst) {
				continue
			}
			n.inboxes[dst].Send(env.msg)
		}
	})
}

// Inbox returns node dst's receive mailbox.
func (n *Network) Inbox(dst int) rt.Chan { return n.inboxes[dst] }

// Send ships m from src to dst. Local sends (src==dst) bypass the wire
// and still preserve FIFO order with respect to other local sends.
// Send never blocks unless the link queue is full (backpressure).
func (n *Network) Send(src, dst int, class transport.Class, m transport.Message) {
	size := m.Size()
	if !n.Passes(src, dst) {
		return
	}
	n.Charge(class, size)
	if src == dst {
		n.inboxes[dst].Send(m)
		return
	}
	// Reserve wire time on the sender's NIC (shared across destinations).
	eg := &n.egress[src]
	eg.mu.Lock()
	start := n.r.Now()
	if eg.nextFree > start {
		start = eg.nextFree
	}
	var tx time.Duration
	if n.cfg.Bandwidth > 0 {
		tx = time.Duration(float64(size) / n.cfg.Bandwidth * float64(time.Second))
	}
	eg.nextFree = start + tx
	eg.mu.Unlock()
	// Stamp the delivery time under the link's own lock (jitter RNG +
	// FIFO watermark are per-link state).
	l := n.links[src][dst]
	l.mu.Lock()
	at := start + tx + n.cfg.Latency
	if n.cfg.Jitter > 0 {
		at += time.Duration(l.rng.Int63n(int64(n.cfg.Jitter)))
	}
	if at < l.lastAt {
		at = l.lastAt // enforce per-link FIFO
	}
	l.lastAt = at
	l.mu.Unlock()
	l.queue.Send(envelope{at: at, msg: m})
}
