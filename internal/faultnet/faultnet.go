// Package faultnet is a fault-injecting decorator around any
// transport.Transport (simnet or tcpnet): it applies a seeded,
// deterministic fault plan to every remote send — per-directed-link
// message drop / duplicate / delay / reorder probabilities, asymmetric
// partitions (A reaches B but not vice versa), class-scoped faults
// (e.g. only Replication envelopes), and epoch- or count-keyed
// crash/heal windows — while counting exactly what it injected.
//
// The paper (§4) assumes fail-stop nodes and reliable FIFO links;
// faultnet exists to take those assumptions away on purpose. With an
// empty plan the decorator is transparent (it passes the transport
// conformance suite unchanged); with a plan, the wrapped engine's
// failure detection, fence draining and rejoin machinery must absorb
// whatever the plan schedules. internal/chaos generates such plans and
// asserts the cluster's convergence invariants after the faults heal.
//
// Determinism: every per-link decision is drawn from an RNG seeded by
// (Plan.Seed, src, dst) and consumed once per send on that link, so the
// fault pattern is a pure function of the plan and the sequence of
// sends — on the simulated runtime an entire chaos soak replays
// bit-identically from its seed. Held-back (delayed/reordered) messages
// are additionally released by a ticker so a fault cannot park the last
// message of a quiesced link forever.
//
// Multi-process use: each process wraps its own transport with the SAME
// plan. Sends happen only on the process hosting the source endpoint,
// so per-link RNG streams and send indices stay consistent cluster-wide;
// count-keyed windows using TotalCount are per-process and best kept to
// single-process plans (epoch-keyed windows track the cluster epoch on
// every process that sends phase reports).
package faultnet

import (
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"star/internal/metrics"
	"star/internal/rt"
	"star/internal/transport"
)

// AnyNode and AnyClass are the wildcard values for plan matchers.
const (
	AnyNode  = -1
	AnyClass = -1
)

// Window keys a fault to a slice of the run: by observed cluster epoch
// (phase commands and reports passing through this decorator carry it),
// by the matched link's send index, or by total sends through the
// decorator. Zero values leave that bound open; a zero Window is always
// active. Until bounds are exclusive.
type Window struct {
	FromEpoch  uint64 `json:"from_epoch,omitempty"`
	UntilEpoch uint64 `json:"until_epoch,omitempty"`
	FromCount  int64  `json:"from_count,omitempty"`
	UntilCount int64  `json:"until_count,omitempty"`
}

func (w Window) active(epoch uint64, count int64) bool {
	if w.FromEpoch > 0 && epoch < w.FromEpoch {
		return false
	}
	if w.UntilEpoch > 0 && epoch >= w.UntilEpoch {
		return false
	}
	if w.FromCount > 0 && count < w.FromCount {
		return false
	}
	if w.UntilCount > 0 && count >= w.UntilCount {
		return false
	}
	return true
}

// zero reports an unbounded (always-on) window.
func (w Window) zero() bool { return w == Window{} }

// Rule scopes loss/duplication/reordering/delay probabilities to a
// directed link (wildcards allowed), a traffic class, and a window.
// The probabilities are evaluated in order drop, dup, reorder, delay
// against one uniform draw, so their sum must stay ≤ 1.
type Rule struct {
	Src   int `json:"src"`   // sending endpoint, or AnyNode
	Dst   int `json:"dst"`   // receiving endpoint, or AnyNode
	Class int `json:"class"` // transport.Class, or AnyClass

	Drop    float64 `json:"drop,omitempty"`    // vanish silently
	Dup     float64 `json:"dup,omitempty"`     // deliver twice
	Reorder float64 `json:"reorder,omitempty"` // hold until ReorderSpan later sends pass
	Delay   float64 `json:"delay,omitempty"`   // hold for DelayFor of wall/virtual time

	// ReorderSpan is how many subsequent sends on the link overtake a
	// held message (default 3).
	ReorderSpan int `json:"reorder_span,omitempty"`
	// DelayFor is the hold duration for delayed messages (default 2ms).
	DelayFor time.Duration `json:"delay_for,omitempty"`

	Window Window `json:"window,omitempty"`
}

func (r Rule) matches(src, dst int, class transport.Class) bool {
	if r.Src != AnyNode && r.Src != src {
		return false
	}
	if r.Dst != AnyNode && r.Dst != dst {
		return false
	}
	if r.Class != AnyClass && transport.Class(r.Class) != class {
		return false
	}
	return true
}

// PartitionSpec drops everything on one direction of a link for a
// window. Listing only src→dst (not dst→src) makes the partition
// asymmetric: A still hears B while B is deaf to A.
type PartitionSpec struct {
	Src    int    `json:"src"` // or AnyNode
	Dst    int    `json:"dst"` // or AnyNode
	Window Window `json:"window,omitempty"`
}

// CrashSpec blackholes all traffic to AND from a node for a window —
// fail-stop as seen from the network, without SetDown: the protocol
// must detect the silence itself. Healing restores traffic; rejoining
// the cluster is the protocol's (or the chaos harness's) job.
type CrashSpec struct {
	Node   int    `json:"node"`
	Window Window `json:"window,omitempty"`
}

// Plan is one seeded fault schedule. The zero plan injects nothing.
type Plan struct {
	// Seed drives every probabilistic decision (per-link streams are
	// derived from it, so the same plan replays the same faults).
	Seed       int64           `json:"seed"`
	Rules      []Rule          `json:"rules,omitempty"`
	Partitions []PartitionSpec `json:"partitions,omitempty"`
	Crashes    []CrashSpec     `json:"crashes,omitempty"`
}

// EpochCarrier is implemented by protocol messages that carry the
// cluster epoch (core's phase commands and reports); faultnet tracks
// the maximum it has seen to key epoch windows.
type EpochCarrier interface{ InjectionEpoch() uint64 }

// held is one message parked by a reorder or delay fault.
type held struct {
	msg      transport.Message
	class    transport.Class
	src, dst int
	afterIdx int64         // release once the link's send index passes this
	deadline time.Duration // ... or once runtime time passes this
}

// linkState is the per-directed-link fault state. One mutex covers the
// RNG and the holdback queue; sends to other links never contend on it.
type linkState struct {
	mu   sync.Mutex
	rng  *rand.Rand
	idx  int64 // sends attempted on this link (fault decisions consumed)
	back []held
}

// Network implements transport.Transport by decorating an inner one:
// it writes Send and Dropped and inherits the rest (fail-stop control
// stays the protocol's own; crash windows are the injected kind). The
// inner transport is embedded as the interface, so optional interfaces
// its concrete type implements stay hidden behind the decorator.
type Network struct {
	transport.Transport
	r    rt.Runtime
	plan Plan

	mu    sync.Mutex
	links map[uint64]*linkState

	epoch  atomic.Uint64 // max epoch observed in EpochCarrier sends
	total  atomic.Int64  // total remote sends attempted
	healed atomic.Bool

	dropped    metrics.Counter
	duplicated metrics.Counter
	reordered  metrics.Counter
	delayed    metrics.Counter
	partDrops  metrics.Counter
	crashDrops metrics.Counter
}

var _ transport.Transport = (*Network)(nil)

// maxHold bounds how long a reorder fault can park a message when the
// link goes quiet: the ticker releases anything older.
const maxHold = 10 * time.Millisecond

// tick is the holdback flush interval.
const tick = time.Millisecond

// Wrap decorates inner with the plan's faults. The runtime schedules
// the holdback ticker (virtual time on rt.Sim keeps it deterministic).
func Wrap(r rt.Runtime, inner transport.Transport, plan Plan) *Network {
	n := &Network{Transport: inner, r: r, plan: plan, links: map[uint64]*linkState{}}
	if len(plan.Rules) > 0 {
		// Only reorder/delay need the ticker; drops and partitions do not
		// hold anything back.
		needs := false
		for _, ru := range plan.Rules {
			if ru.Reorder > 0 || ru.Delay > 0 {
				needs = true
				break
			}
		}
		if needs {
			r.Go("faultnet-ticker", n.tickLoop)
		}
	}
	return n
}

// Heal disables every fault and releases all held messages: subsequent
// traffic flows clean. Used by chaos harnesses before verifying
// convergence (and idempotent).
func (n *Network) Heal() {
	n.healed.Store(true)
	n.flushAll()
}

// Healed reports whether Heal has been called.
func (n *Network) Healed() bool { return n.healed.Load() }

// Injected returns the per-fault-type injection counters.
func (n *Network) Injected() map[string]int64 {
	return map[string]int64{
		"fault_drops":       n.dropped.Load(),
		"fault_dups":        n.duplicated.Load(),
		"fault_reorders":    n.reordered.Load(),
		"fault_delays":      n.delayed.Load(),
		"fault_part_drops":  n.partDrops.Load(),
		"fault_crash_drops": n.crashDrops.Load(),
	}
}

// InjectedTotal sums every injected fault (tests assert a plan bit).
func (n *Network) InjectedTotal() int64 {
	var t int64
	for _, v := range n.Injected() {
		t += v
	}
	return t
}

// Epoch returns the highest cluster epoch observed passing through.
func (n *Network) Epoch() uint64 { return n.epoch.Load() }

// CrashActive reports whether a crash window currently blackholes node
// (the chaos harness polls it to schedule rejoins after heal).
func (n *Network) CrashActive(node int) bool {
	if n.healed.Load() {
		return false
	}
	epoch, count := n.epoch.Load(), n.total.Load()
	for _, c := range n.plan.Crashes {
		if c.Node == node && c.Window.active(epoch, count) {
			return true
		}
	}
	return false
}

func (n *Network) link(src, dst int) *linkState {
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	n.mu.Lock()
	l := n.links[key]
	if l == nil {
		l = &linkState{rng: rand.New(rand.NewSource(n.plan.Seed ^ linkSeed(src, dst)))}
		n.links[key] = l
	}
	n.mu.Unlock()
	return l
}

// linkSeed derives a distinct deterministic RNG stream per (src,dst).
func linkSeed(src, dst int) int64 {
	return int64((uint64(src)<<20 | uint64(dst)) * 0x9e3779b97f4a7c15 >> 1)
}

// Send applies the plan to one message, then forwards the survivors to
// the inner transport. Local sends (src == dst) are in-process function
// calls, not network traffic: they bypass the plan entirely.
func (n *Network) Send(src, dst int, class transport.Class, m transport.Message) {
	if ec, ok := m.(EpochCarrier); ok {
		for {
			cur := n.epoch.Load()
			e := ec.InjectionEpoch()
			if e <= cur || n.epoch.CompareAndSwap(cur, e) {
				break
			}
		}
	}
	if src == dst || n.healed.Load() {
		n.Transport.Send(src, dst, class, m)
		return
	}
	total := n.total.Add(1)
	epoch := n.epoch.Load()

	// Crash windows: the node is silent in both directions.
	for _, c := range n.plan.Crashes {
		if (c.Node == src || c.Node == dst) && c.Window.active(epoch, total) {
			n.crashDrops.Inc()
			return
		}
	}
	// Partitions: directional blackhole.
	for _, p := range n.plan.Partitions {
		if (p.Src == AnyNode || p.Src == src) && (p.Dst == AnyNode || p.Dst == dst) &&
			p.Window.active(epoch, total) {
			n.partDrops.Inc()
			return
		}
	}

	l := n.link(src, dst)
	l.mu.Lock()
	l.idx++
	idx := l.idx
	// First matching active rule wins; one uniform draw decides.
	for i := range n.plan.Rules {
		ru := &n.plan.Rules[i]
		if !ru.matches(src, dst, class) || !ru.Window.active(epoch, idx) {
			continue
		}
		u := l.rng.Float64()
		switch {
		case u < ru.Drop:
			l.mu.Unlock()
			n.dropped.Inc()
			return
		case u < ru.Drop+ru.Dup:
			l.mu.Unlock()
			n.duplicated.Inc()
			n.Transport.Send(src, dst, class, m)
			n.Transport.Send(src, dst, class, m)
			return
		case u < ru.Drop+ru.Dup+ru.Reorder:
			span := ru.ReorderSpan
			if span <= 0 {
				span = 3
			}
			l.back = append(l.back, held{
				msg: m, class: class, src: src, dst: dst,
				afterIdx: idx + int64(span),
				deadline: n.r.Now() + maxHold,
			})
			l.mu.Unlock()
			n.reordered.Inc()
			return
		case u < ru.Drop+ru.Dup+ru.Reorder+ru.Delay:
			d := ru.DelayFor
			if d <= 0 {
				d = 2 * time.Millisecond
			}
			l.back = append(l.back, held{
				msg: m, class: class, src: src, dst: dst,
				afterIdx: 1 << 62, // time-released only
				deadline: n.r.Now() + d,
			})
			l.mu.Unlock()
			n.delayed.Inc()
			return
		}
		break // matched but survived the draw: deliver normally
	}
	due := n.takeDueLocked(l, idx)
	l.mu.Unlock()
	n.Transport.Send(src, dst, class, m)
	for _, h := range due {
		n.Transport.Send(h.src, h.dst, h.class, h.msg)
	}
}

// takeDueLocked removes and returns the held messages that are due at
// this link index or by time. Caller holds l.mu.
func (n *Network) takeDueLocked(l *linkState, idx int64) []held {
	if len(l.back) == 0 {
		return nil
	}
	now := n.r.Now()
	var due []held
	rest := l.back[:0]
	for _, h := range l.back {
		if idx >= h.afterIdx || now >= h.deadline {
			due = append(due, h)
		} else {
			rest = append(rest, h)
		}
	}
	l.back = rest
	return due
}

// tickLoop periodically releases held messages by deadline so a link
// that goes quiet cannot strand its last messages.
func (n *Network) tickLoop() {
	for {
		n.r.Sleep(tick)
		n.flushDue()
	}
}

func (n *Network) flushDue() {
	n.mu.Lock()
	links := make([]*linkState, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		due := n.takeDueLocked(l, l.idx)
		l.mu.Unlock()
		for _, h := range due {
			n.Transport.Send(h.src, h.dst, h.class, h.msg)
		}
	}
}

// flushAll releases every held message immediately (Heal).
func (n *Network) flushAll() {
	n.mu.Lock()
	links := make([]*linkState, 0, len(n.links))
	for _, l := range n.links {
		links = append(links, l)
	}
	n.mu.Unlock()
	for _, l := range links {
		l.mu.Lock()
		due := l.back
		l.back = nil
		l.mu.Unlock()
		for _, h := range due {
			n.Transport.Send(h.src, h.dst, h.class, h.msg)
		}
	}
}

// Dropped implements transport.Transport: the inner transport's
// fail-stop drops plus everything the plan made vanish.
func (n *Network) Dropped() int64 {
	return n.Transport.Dropped() + n.dropped.Load() + n.partDrops.Load() + n.crashDrops.Load()
}
