package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Gauge is a single atomic level value (as opposed to Counter's
// monotonic, striped event count): per-partition commit totals,
// replication lag, log bytes. The zero value is ready to use.
type Gauge struct{ v atomic.Int64 }

// Set stores v.
func (g *Gauge) Set(v int64) { g.v.Store(v) }

// Add increments the gauge by n.
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Inc increments the gauge by one.
func (g *Gauge) Inc() { g.v.Add(1) }

// Load returns the current value.
func (g *Gauge) Load() int64 { return g.v.Load() }

// Registry is a named metric directory: every subsystem registers (or
// lazily creates) its counters, gauges and histograms under a stable
// name, and Snapshot captures them all for the admin plane and the
// Prometheus endpoint. Lookup takes a read lock; the metrics themselves
// are updated lock-free through the returned pointers, so the hot paths
// resolve their metric once and never touch the registry again.
//
// Names may carry Prometheus-style labels verbatim, e.g.
// `partition_commits{partition="3"}`; the registry treats the whole
// string as the key and the exposition writer passes it through.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Hist
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: map[string]*Counter{},
		gauges:   map[string]*Gauge{},
		hists:    map[string]*Hist{},
	}
}

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	r.mu.RLock()
	c := r.counters[name]
	r.mu.RUnlock()
	if c != nil {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c = r.counters[name]; c == nil {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	r.mu.RLock()
	g := r.gauges[name]
	r.mu.RUnlock()
	if g != nil {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g = r.gauges[name]; g == nil {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Hist returns the named histogram, creating it on first use.
func (r *Registry) Hist(name string) *Hist {
	r.mu.RLock()
	h := r.hists[name]
	r.mu.RUnlock()
	if h != nil {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h = r.hists[name]; h == nil {
		h = &Hist{}
		r.hists[name] = h
	}
	return h
}

// RegisterCounter publishes an existing counter under name — subsystems
// whose hot paths already own a Counter field register it instead of
// double counting. Last registration wins.
func (r *Registry) RegisterCounter(name string, c *Counter) {
	r.mu.Lock()
	r.counters[name] = c
	r.mu.Unlock()
}

// RegisterGauge publishes an existing gauge under name.
func (r *Registry) RegisterGauge(name string, g *Gauge) {
	r.mu.Lock()
	r.gauges[name] = g
	r.mu.Unlock()
}

// RegisterHist publishes an existing histogram under name.
func (r *Registry) RegisterHist(name string, h *Hist) {
	r.mu.Lock()
	r.hists[name] = h
	r.mu.Unlock()
}

// Snapshot captures every registered metric's current value. Each
// metric is read with the same guarantees as its own Load/Snapshot;
// the set is not a cluster-wide consistent cut (none is needed: the
// consumers compute rates and quantiles, both robust to a sample of
// skew).
func (r *Registry) Snapshot() Snapshot {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s := Snapshot{}
	if len(r.counters) > 0 {
		s.Counters = make(map[string]int64, len(r.counters))
		for n, c := range r.counters {
			s.Counters[n] = c.Load()
		}
	}
	if len(r.gauges) > 0 {
		s.Gauges = make(map[string]int64, len(r.gauges))
		for n, g := range r.gauges {
			s.Gauges[n] = g.Load()
		}
	}
	if len(r.hists) > 0 {
		s.Hists = make(map[string]HistSnapshot, len(r.hists))
		for n, h := range r.hists {
			s.Hists[n] = h.Snapshot()
		}
	}
	return s
}

// Snapshot is one node's metric state at a point in time: what
// AdminStats ships, what /metrics renders, and what star-admin top
// merges across the cluster.
type Snapshot struct {
	Counters map[string]int64        `json:"counters,omitempty"`
	Gauges   map[string]int64        `json:"gauges,omitempty"`
	Hists    map[string]HistSnapshot `json:"hists,omitempty"`
}

// Merge folds another node's snapshot into this one: counters and
// gauges sum (per-partition commit gauges from different masters add to
// the cluster total), histograms merge bucket-wise. Commutative and
// associative, so the cluster aggregate is independent of answer order.
func (s *Snapshot) Merge(o Snapshot) {
	if len(o.Counters) > 0 && s.Counters == nil {
		s.Counters = make(map[string]int64, len(o.Counters))
	}
	for n, v := range o.Counters {
		s.Counters[n] += v
	}
	if len(o.Gauges) > 0 && s.Gauges == nil {
		s.Gauges = make(map[string]int64, len(o.Gauges))
	}
	for n, v := range o.Gauges {
		s.Gauges[n] += v
	}
	if len(o.Hists) > 0 && s.Hists == nil {
		s.Hists = make(map[string]HistSnapshot, len(o.Hists))
	}
	for n, h := range o.Hists {
		cur := s.Hists[n]
		cur.Merge(h)
		s.Hists[n] = cur
	}
}

// Encode renders the snapshot as the admin-plane blob (JSON: the
// control plane is off the hot path, and a self-describing encoding
// lets old tools skip fields new nodes add).
func (s Snapshot) Encode() []byte {
	b, err := json.Marshal(s)
	if err != nil {
		// Maps of scalars and HistSnapshots cannot fail to marshal.
		panic("metrics: encode snapshot: " + err.Error())
	}
	return b
}

// DecodeSnapshot parses an Encode blob.
func DecodeSnapshot(b []byte) (Snapshot, error) {
	var s Snapshot
	if len(b) == 0 {
		return s, nil
	}
	if err := json.Unmarshal(b, &s); err != nil {
		return Snapshot{}, fmt.Errorf("metrics: decode snapshot: %w", err)
	}
	return s, nil
}

// WritePrometheus renders the snapshot in Prometheus text exposition
// format: counters and gauges as-is (label suffixes in the name pass
// through), histograms as summaries with p50/p90/p99 in seconds. Output
// is sorted by name so scrapes diff cleanly.
func WritePrometheus(w io.Writer, s Snapshot) error {
	emit := func(kind string, m map[string]int64) error {
		lastBase := ""
		for _, n := range slices.Sorted(maps.Keys(m)) {
			if b, _, _ := strings.Cut(n, "{"); b != lastBase { // label suffix off
				if _, err := fmt.Fprintf(w, "# TYPE star_%s %s\n", b, kind); err != nil {
					return err
				}
				lastBase = b
			}
			if _, err := fmt.Fprintf(w, "star_%s %d\n", n, m[n]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := emit("counter", s.Counters); err != nil {
		return err
	}
	if err := emit("gauge", s.Gauges); err != nil {
		return err
	}
	for _, n := range slices.Sorted(maps.Keys(s.Hists)) {
		h := s.Hists[n]
		if _, err := fmt.Fprintf(w, "# TYPE star_%s summary\n", n); err != nil {
			return err
		}
		for _, q := range []float64{0.5, 0.9, 0.99} {
			if _, err := fmt.Fprintf(w, "star_%s{quantile=\"%g\"} %g\n", n, q, h.Quantile(q).Seconds()); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "star_%s_sum %g\nstar_%s_count %d\n", n, float64(h.Sum)/1e9, n, h.Count); err != nil {
			return err
		}
	}
	return nil
}
