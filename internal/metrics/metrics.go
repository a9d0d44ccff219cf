// Package metrics provides the counters and latency histograms used by
// every engine to report the quantities the paper's evaluation plots:
// committed/aborted transactions, throughput, p50/p99 latency, and
// replication byte counts.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
	"unsafe"
)

// counterShards is the stripe count of Counter (power of two). Eight
// stripes keep a 12-worker node's hot counters off a single cache line
// while the whole counter still fits in half a KiB.
const counterShards = 8

// counterCell is one stripe, padded to its own cache line so concurrent
// writers on the real runtime don't false-share.
type counterCell struct {
	v atomic.Int64
	_ [56]byte
}

// Counter is a sharded atomic event counter. The zero value is ready to
// use. Engines running on the sim runtime are single-threaded, but the
// same code runs on real goroutines, so increments stripe across padded
// cells instead of contending on one cache line.
type Counter struct{ cells [counterShards]counterCell }

// Add increments the counter by n. The stripe is picked by hashing the
// address of a stack local: goroutines occupy distinct stacks, so
// concurrent writers land on different cells, while one goroutine keeps
// re-hitting the same (cached) cell. This replaces a per-increment
// math/rand/v2 call — a full ChaCha8 step on the zero-allocation commit
// path — with two arithmetic ops.
func (c *Counter) Add(n int64) {
	var pin byte
	h := uint64(uintptr(unsafe.Pointer(&pin))) * 0x9E3779B97F4A7C15
	c.cells[(h>>59)&(counterShards-1)].v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Load returns the current value. Concurrent increments may or may not
// be included, as with a single atomic.
func (c *Counter) Load() int64 {
	var t int64
	for i := range c.cells {
		t += c.cells[i].v.Load()
	}
	return t
}

// Hist is a log-scale latency histogram covering 100ns..100s with ~4%
// relative bucket width. The zero value is ready to use.
type Hist struct {
	buckets [histBuckets]atomic.Int64
	count   atomic.Int64
	sum     atomic.Int64 // nanoseconds
	max     atomic.Int64
}

const (
	histBuckets = 400
	histMinNs   = 100.0 // 100ns
	// growth chosen so bucket 399 is ~100s: 100ns * g^399 = 1e11ns.
)

var histGrowth = math.Pow(1e11/histMinNs, 1.0/float64(histBuckets-1))
var histLogGrowth = math.Log(histGrowth)

func bucketFor(d time.Duration) int {
	ns := float64(d.Nanoseconds())
	if ns <= histMinNs {
		return 0
	}
	b := int(math.Log(ns/histMinNs) / histLogGrowth)
	if b >= histBuckets {
		b = histBuckets - 1
	}
	return b
}

// bucketUpper returns the upper-bound latency of bucket b.
func bucketUpper(b int) time.Duration {
	return time.Duration(histMinNs * math.Pow(histGrowth, float64(b+1)))
}

// Observe records one latency sample.
func (h *Hist) Observe(d time.Duration) {
	if d < 0 {
		d = 0
	}
	h.buckets[bucketFor(d)].Add(1)
	h.count.Add(1)
	h.sum.Add(d.Nanoseconds())
	for {
		m := h.max.Load()
		if int64(d) <= m || h.max.CompareAndSwap(m, int64(d)) {
			break
		}
	}
}

// Count returns the number of samples.
func (h *Hist) Count() int64 { return h.count.Load() }

// Mean returns the mean latency, or 0 with no samples.
func (h *Hist) Mean() time.Duration {
	return HistSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}.Mean()
}

// Max returns the largest observed sample.
func (h *Hist) Max() time.Duration { return time.Duration(h.max.Load()) }

// Quantile returns the latency at quantile q in [0,1] of the
// histogram's current state (HistSnapshot.Quantile has the bucket walk).
func (h *Hist) Quantile(q float64) time.Duration { return h.Snapshot().Quantile(q) }

// Snapshot captures the histogram's current state, sparse over its
// non-empty buckets. Concurrent Observes may land between the field
// reads (count can lag the buckets by a sample or two), exactly as a
// sequence of independent atomic loads would; the copy is internally
// usable regardless because quantile ranks are computed against the
// bucket sum, not the count.
func (h *Hist) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Count: h.count.Load(),
		Sum:   h.sum.Load(),
		Max:   h.max.Load(),
	}
	for b := 0; b < histBuckets; b++ {
		if n := h.buckets[b].Load(); n > 0 {
			if s.Buckets == nil {
				s.Buckets = make(map[int]int64)
			}
			s.Buckets[b] = n
		}
	}
	return s
}

// Merge folds a snapshot into the live histogram. Merging is commutative
// and associative: any merge order over a set of snapshots yields the
// same buckets, count, sum and max, so cluster-wide quantiles do not
// depend on which node answered first. Out-of-range bucket indexes (a
// foreign or corrupt snapshot) are clamped into the overflow bucket.
func (h *Hist) Merge(s HistSnapshot) {
	for b, n := range s.Buckets {
		if n <= 0 {
			continue
		}
		if b < 0 {
			b = 0
		}
		if b >= histBuckets {
			b = histBuckets - 1
		}
		h.buckets[b].Add(n)
	}
	h.count.Add(s.Count)
	h.sum.Add(s.Sum)
	for {
		m := h.max.Load()
		if s.Max <= m || h.max.CompareAndSwap(m, s.Max) {
			break
		}
	}
}

// HistSnapshot is a point-in-time, mergeable copy of a Hist: sparse
// non-empty buckets plus the count/sum/max scalars. It is the unit the
// registry snapshot ships over the admin plane and what star-admin top
// merges across nodes.
type HistSnapshot struct {
	Count int64 `json:"count"`
	Sum   int64 `json:"sum"` // nanoseconds
	Max   int64 `json:"max"` // nanoseconds
	// Buckets maps log-bucket index → sample count (empty buckets
	// omitted). Indexes follow bucketFor: ~4% relative width over
	// 100ns..100s.
	Buckets map[int]int64 `json:"buckets,omitempty"`
}

// Merge folds another snapshot into this one (commutative/associative,
// same semantics as Hist.Merge).
func (s *HistSnapshot) Merge(o HistSnapshot) {
	if len(o.Buckets) > 0 && s.Buckets == nil {
		s.Buckets = make(map[int]int64, len(o.Buckets))
	}
	for b, n := range o.Buckets {
		s.Buckets[b] += n
	}
	s.Count += o.Count
	s.Sum += o.Sum
	if o.Max > s.Max {
		s.Max = o.Max
	}
}

// Mean returns the snapshot's mean latency, or 0 with no samples.
func (s HistSnapshot) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return time.Duration(s.Sum / s.Count)
}

// Quantile returns the latency at quantile q in [0,1], interpolated to
// the bucket upper bound (the largest sample, for the overflow bucket or
// when the bound exceeds it), or 0 with no samples.
func (s HistSnapshot) Quantile(q float64) time.Duration {
	var total int64
	for _, n := range s.Buckets {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := int64(math.Ceil(q * float64(total)))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for b := 0; b < histBuckets; b++ {
		n, ok := s.Buckets[b]
		if !ok {
			continue
		}
		seen += n
		if seen >= rank {
			if b == histBuckets-1 {
				return time.Duration(s.Max)
			}
			u := bucketUpper(b)
			if m := time.Duration(s.Max); u > m {
				return m
			}
			return u
		}
	}
	return time.Duration(s.Max)
}

// Stats is the per-run result bundle every engine returns: a view over
// the engine's registry snapshot (Snapshot.Stats), so a quantity is read
// once, where it is published, and the two cannot disagree.
type Stats struct {
	Engine    string
	Duration  time.Duration // measured (virtual) run time
	Committed int64
	Aborted   int64 // concurrency-control and user aborts
	// Latency of committed transactions from generation to result release
	// (group commit included, matching the paper's measurement).
	Latency HistSnapshot
	// ReplicationBytes is the total bytes shipped on replication streams.
	ReplicationBytes int64
	// ReplicationMsgs is the number of messages those bytes travelled in
	// (batching quality: fewer envelopes per committed transaction).
	ReplicationMsgs int64
	// NetworkBytes is total bytes on the wire, replication included.
	NetworkBytes int64
	// LogBytes is bytes written to the recovery logs (0 if disabled).
	LogBytes int64
	// Extra carries every counter of the snapshot by name (user_aborts,
	// deferred, snapshot_reads, repl_entry_bytes, ...) plus whatever
	// experiment-specific values the engine adds (e.g. fence time share).
	Extra map[string]float64
}

// Stats builds the result bundle from a registry snapshot: the
// "committed", "aborted" and "user_aborts" counters, the "latency"
// histogram and the "repl_bytes", "repl_msgs", "net_bytes" and
// "log_bytes" gauges.
func (s Snapshot) Stats(engine string, d time.Duration) Stats {
	st := Stats{
		Engine:           engine,
		Duration:         d,
		Committed:        s.Counters["committed"],
		Aborted:          s.Counters["aborted"] + s.Counters["user_aborts"],
		Latency:          s.Hists["latency"],
		ReplicationBytes: s.Gauges["repl_bytes"],
		ReplicationMsgs:  s.Gauges["repl_msgs"],
		NetworkBytes:     s.Gauges["net_bytes"],
		LogBytes:         s.Gauges["log_bytes"],
		Extra:            make(map[string]float64, len(s.Counters)),
	}
	for name, v := range s.Counters {
		st.Extra[name] = float64(v)
	}
	return st
}

// Throughput returns committed transactions per second.
func (s Stats) Throughput() float64 {
	if s.Duration <= 0 {
		return 0
	}
	return float64(s.Committed) / s.Duration.Seconds()
}

// ReplMsgsPerCommit returns replication messages per committed
// transaction (the batching figure of merit), or 0 with no commits.
func (s Stats) ReplMsgsPerCommit() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.ReplicationMsgs) / float64(s.Committed)
}

// ReplBytesPerCommit returns replication bytes per committed
// transaction, or 0 with no commits.
func (s Stats) ReplBytesPerCommit() float64 {
	if s.Committed == 0 {
		return 0
	}
	return float64(s.ReplicationBytes) / float64(s.Committed)
}

// AbortRate returns aborted/(committed+aborted).
func (s Stats) AbortRate() float64 {
	t := s.Committed + s.Aborted
	if t == 0 {
		return 0
	}
	return float64(s.Aborted) / float64(t)
}

// String summarises the stats on one line.
func (s Stats) String() string {
	return fmt.Sprintf("%s: %.0f txn/s (committed=%d aborted=%d) p50=%v p99=%v repl=%dB",
		s.Engine, s.Throughput(), s.Committed, s.Aborted,
		s.Latency.Quantile(0.50), s.Latency.Quantile(0.99), s.ReplicationBytes)
}
