package metrics

import (
	"math/rand"
	"sort"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	if c.Load() != 42 {
		t.Fatalf("got %d, want 42", c.Load())
	}
}

func TestCounterShardedConcurrent(t *testing.T) {
	var c Counter
	const goroutines, perG = 8, 10000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				c.Inc()
			}
		}()
	}
	wg.Wait()
	if c.Load() != goroutines*perG {
		t.Fatalf("lost updates: got %d, want %d", c.Load(), goroutines*perG)
	}
	// The stripes must actually spread load: with 80k increments over 8
	// cells, all landing in one cell is (1/8)^80k — i.e., a broken shard
	// picker.
	nonzero := 0
	for i := range c.cells {
		if c.cells[i].v.Load() > 0 {
			nonzero++
		}
	}
	if nonzero < 2 {
		t.Fatalf("increments all landed in %d cell(s); sharding inert", nonzero)
	}
}

func TestHistQuantileAccuracy(t *testing.T) {
	h := &Hist{}
	rng := rand.New(rand.NewSource(1))
	var samples []time.Duration
	for i := 0; i < 20000; i++ {
		// Log-uniform between 1µs and 100ms.
		d := time.Duration(float64(time.Microsecond) * pow10(rng.Float64()*5))
		samples = append(samples, d)
		h.Observe(d)
	}
	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	for _, q := range []float64{0.5, 0.9, 0.99} {
		exact := samples[int(q*float64(len(samples)))-1]
		got := h.Quantile(q)
		ratio := float64(got) / float64(exact)
		if ratio < 0.90 || ratio > 1.12 {
			t.Errorf("q=%.2f: got %v, exact %v (ratio %.3f)", q, got, exact, ratio)
		}
	}
	if h.Count() != 20000 {
		t.Fatalf("count=%d", h.Count())
	}
}

func pow10(x float64) float64 {
	r := 1.0
	for x >= 1 {
		r *= 10
		x--
	}
	// linear remainder is fine for test data
	return r * (1 + 9*x/1)
}

func TestHistEdgeCases(t *testing.T) {
	h := &Hist{}
	if h.Quantile(0.5) != 0 || h.Mean() != 0 {
		t.Fatal("empty hist must report zeros")
	}
	h.Observe(-5) // clamped
	h.Observe(0)
	h.Observe(200 * time.Second) // beyond range: clamped to last bucket
	if h.Count() != 3 {
		t.Fatalf("count=%d", h.Count())
	}
	if h.Max() != 200*time.Second {
		t.Fatalf("max=%v", h.Max())
	}
	if q := h.Quantile(1.0); q != 200*time.Second {
		t.Fatalf("p100=%v, want max", q)
	}
}

func TestHistQuantileMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		h := &Hist{}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < 500; i++ {
			h.Observe(time.Duration(rng.Int63n(int64(time.Second))))
		}
		prev := time.Duration(0)
		for q := 0.01; q <= 1.0; q += 0.01 {
			v := h.Quantile(q)
			if v < prev {
				return false
			}
			prev = v
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestStatsDerived(t *testing.T) {
	s := Stats{Engine: "x", Duration: 2 * time.Second, Committed: 100, Aborted: 25}
	if s.Throughput() != 50 {
		t.Fatalf("throughput=%v", s.Throughput())
	}
	if s.AbortRate() != 0.2 {
		t.Fatalf("abort rate=%v", s.AbortRate())
	}
	var zero Stats
	if zero.Throughput() != 0 || zero.AbortRate() != 0 {
		t.Fatal("zero stats must not divide by zero")
	}
	if zero.String() == "" {
		t.Fatal("String must work with nil Latency")
	}
}

// Stats is a view over a registry snapshot: every field comes from the
// named metric, aborts of both kinds add up, and every counter is also
// reachable by name through Extra.
func TestStatsFromSnapshot(t *testing.T) {
	r := NewRegistry()
	r.Counter("committed").Add(90)
	r.Counter("aborted").Add(7)
	r.Counter("user_aborts").Add(3)
	r.Counter("deferred").Add(12)
	r.Gauge("repl_bytes").Set(4096)
	r.Gauge("repl_msgs").Set(8)
	r.Gauge("net_bytes").Set(5000)
	r.Gauge("log_bytes").Set(777)
	r.Hist("latency").Observe(3 * time.Millisecond)
	st := r.Snapshot().Stats("x", time.Second)
	if st.Engine != "x" || st.Duration != time.Second || st.Committed != 90 || st.Aborted != 10 ||
		st.ReplicationBytes != 4096 || st.ReplicationMsgs != 8 || st.NetworkBytes != 5000 || st.LogBytes != 777 {
		t.Fatalf("stats %+v", st)
	}
	if st.Latency.Count != 1 || st.Latency.Quantile(0.5) != 3*time.Millisecond {
		t.Fatalf("latency %+v", st.Latency)
	}
	if st.Extra["user_aborts"] != 3 || st.Extra["deferred"] != 12 {
		t.Fatalf("extra %v", st.Extra)
	}
	if empty := (Snapshot{}).Stats("y", 0); empty.Committed != 0 || empty.Extra == nil {
		t.Fatalf("empty snapshot: %+v", empty)
	}
}
