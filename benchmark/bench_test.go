package main

import (
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"star/internal/metrics"
	"star/internal/workload/ycsb"
)

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// fullSweep opts into the tests that run every workload through both
// modes (about 10 s of two saturated cores). They stay out of the default
// suite because `go test ./...` runs packages side by side and
// cmd/star-node's kill/restart tests time out when starved.
var fullSweep = os.Getenv("STAR_BENCH_FULL_TESTS") != ""

func testOpts(t *testing.T, traced bool) benchOpts {
	return benchOpts{
		sz:      smallSizes,
		seed:    7,
		window:  300 * time.Millisecond,
		warmup:  50 * time.Millisecond,
		traced:  traced,
		scratch: t.TempDir(),
	}
}

// TestContractMatchesHarness holds BENCHMARK.json and the harness
// together: same workloads, and exactly the metric names an untraced and
// a traced run are checked against before they print anything.
func TestContractMatchesHarness(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Workloads) != len(specs) {
		t.Errorf("BENCHMARK.json lists %d workloads, the harness has %d", len(c.Workloads), len(specs))
	}
	for _, w := range c.Workloads {
		if _, ok := specByName(w.Name); !ok {
			t.Errorf("BENCHMARK.json workload %q is unknown to the harness", w.Name)
		}
	}
	for _, pair := range []struct {
		kind     string
		contract []contractMetric
		harness  []string
	}{{"end_to_end", c.EndToEnd, endToEndNames}, {"per_layer", c.PerLayer, perLayerNames}} {
		declared := map[string]bool{}
		for _, n := range pair.harness {
			declared[n] = true
		}
		if len(declared) != len(pair.harness) || len(pair.contract) != len(pair.harness) {
			t.Errorf("%s: contract has %d names, the harness %d (%d distinct)", pair.kind, len(pair.contract), len(pair.harness), len(declared))
		}
		for _, m := range pair.contract {
			if !nameRE.MatchString(m.Name) {
				t.Errorf("%s: metric name %q is malformed", pair.kind, m.Name)
			}
			if !declared[m.Name] {
				t.Errorf("%s: %s is in BENCHMARK.json but the harness does not emit it", pair.kind, m.Name)
			}
		}
	}
}

// checkOutput checks one run's printed result against the contract's
// names and units, and that the run left only its span file behind.
func checkOutput(t *testing.T, s spec, opts benchOpts, want []contractMetric) metricSet {
	t.Helper()
	out, err := runBenchmark(s, opts)
	if err != nil {
		t.Fatalf("%s traced=%v: %v", s.name, opts.traced, err)
	}
	if !out.result.Correct || out.result.Attempted < 1 || len(out.result.Metrics) != len(want) {
		t.Errorf("%s traced=%v: correct=%v attempted=%d, %d metrics for %d in the contract", s.name, opts.traced,
			out.result.Correct, out.result.Attempted, len(out.result.Metrics), len(want))
	}
	for _, m := range want {
		if got, ok := out.result.Metrics[m.Name]; !ok || got.Unit != m.Unit || math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
			t.Errorf("%s traced=%v: metric %s = %+v (present %v), contract unit %q", s.name, opts.traced, m.Name, got, ok, m.Unit)
		}
	}
	if opts.traced {
		if _, err := os.Stat(out.detail["span_file"].(string)); err != nil {
			t.Errorf("%s: span file: %v", s.name, err)
		}
	}
	left, _ := filepath.Glob(filepath.Join(opts.scratch, "*"))
	for _, f := range left {
		if !strings.HasPrefix(filepath.Base(f), "spans-") {
			t.Errorf("%s traced=%v: left %s behind", s.name, opts.traced, f)
		}
	}
	return out.all
}

// TestBothModes runs tpcc_full, the workload that reaches every layer,
// scaled down, through the untraced and the traced mode.
func TestBothModes(t *testing.T) {
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := specByName("tpcc_full")
	checkOutput(t, s, testOpts(t, false), c.EndToEnd)
	layers := checkOutput(t, s, testOpts(t, true), c.PerLayer)
	for _, name := range []string{"storage.insert_ns", "storage.delete_ns", "storage.oindex_lookup_ns", "occ.commit_ns", "occ.commit_serial_ns"} {
		if layers[name].Samples == 0 {
			t.Errorf("tpcc_full drilled no %s", name)
		}
	}
}

// TestEveryWorkloadBothModes is TestBothModes over all four workloads,
// plus the interaction table's cheapest predictions.
func TestEveryWorkloadBothModes(t *testing.T) {
	if !fullSweep {
		t.Skip("set STAR_BENCH_FULL_TESTS=1 to run every workload through both modes")
	}
	c, err := loadContract("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	layers := map[string]metricSet{}
	for _, s := range specs {
		checkOutput(t, s, testOpts(t, false), c.EndToEnd)
		layers[s.name] = checkOutput(t, s, testOpts(t, true), c.PerLayer)
	}
	checkPredictions(t, layers)
}

// checkPredictions checks the interaction table's cheapest claims on
// the untouched code.
func checkPredictions(t *testing.T, layers map[string]metricSet) {
	part, cross, tpcc := layers["ycsb_part"], layers["ycsb_cross"], layers["tpcc_full"]
	// The master generates its own cross-partition work once its queue
	// is drained, so even ycsb_cross defers only the share generated in
	// the partitioned probe slice; ycsb_part defers client writes alone.
	if p, c := part["core.deferred_per_txn"].Value, cross["core.deferred_per_txn"].Value; p > 0.02 || c < 0.05 {
		t.Errorf("deferred per txn: ycsb_part %.4f (want ~0), ycsb_cross %.4f (want well above)", p, c)
	}
	if p, c := part["core.committed_partitioned_share"].Value, cross["core.committed_partitioned_share"].Value; p < 0.9 || c > 0.1 {
		t.Errorf("committed in the partitioned phase: ycsb_part %.3f (want ~1), ycsb_cross %.3f (want ~0)", p, c)
	}
	if n := part["occ.commit_ns"].Samples; n != 0 {
		t.Errorf("ycsb_part drilled %d validated commits, want none", n)
	}
	if n := cross["occ.commit_serial_ns"].Samples; n != 0 {
		t.Errorf("ycsb_cross drilled %d serial commits, want none", n)
	}
	for _, name := range []string{"storage.insert_ns", "storage.delete_ns", "storage.oindex_lookup_ns"} {
		if part[name].Samples != 0 || tpcc[name].Samples == 0 {
			t.Errorf("%s: %d samples on ycsb_part, %d on tpcc_full; want none and some", name, part[name].Samples, tpcc[name].Samples)
		}
	}
}

// TestGateTripsOnDivergedReplica overwrites one row on node 1 after the
// replicas settled: the run must fail and return no metrics.
func TestGateTripsOnDivergedReplica(t *testing.T) {
	s, _ := specByName("ycsb_part")
	o := testOpts(t, false)
	ro := o.cluster(o.seed, o.window)
	ro.tamper = func(c *cluster) {
		w := s.newWorkload(o.sz).(*ycsb.Workload)
		rec := c.eng[1].DB(1).Table(ycsb.TableID).Get(0, w.Key(0, 11))
		rec.Lock()
		rec.ValueLocked()[0] ^= 0xff
		rec.Unlock()
	}
	res, err := runCluster(s, ro)
	if err == nil || res != nil || !strings.Contains(err.Error(), "diverged") {
		t.Fatalf("tampered run returned (%v, %v), want a divergence error and no result", res, err)
	}
}

// TestHistBucketsMatchEngine pins this package's copy of the latency
// histogram's bucket layout against internal/metrics itself.
func TestHistBucketsMatchEngine(t *testing.T) {
	for _, d := range []time.Duration{150, 7 * time.Microsecond, 9 * time.Millisecond, 1300 * time.Millisecond, 40 * time.Second} {
		var h metrics.Hist
		h.Observe(d)
		h.Observe(90 * time.Second) // keeps Max above d's bucket, so Quantile returns the bucket bound
		b := histBuckets
		for k := range h.Snapshot().Buckets {
			b = min(b, k)
		}
		lo, hi := histMinNs*math.Pow(histGrowth, float64(b)), histMinNs*math.Pow(histGrowth, float64(b+1))
		if ns := float64(d); ns <= lo || ns > hi*1.000001 {
			t.Errorf("%v landed in bucket %d = (%.0f, %.0f] ns", d, b, lo, hi)
		}
		if got := float64(h.Quantile(0.5)); math.Abs(got-hi) > 1 {
			t.Errorf("%v: engine's bucket bound %.0f ns, ours %.0f ns", d, got, hi)
		}
		q, n := histQuantile(map[int]int64{b: 1}, 0.5)
		if n != 1 || q <= lo || q > hi {
			t.Errorf("interpolated quantile %.0f outside (%.0f, %.0f]", q, lo, hi)
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(v, n=4)
	for _, c := range []struct {
		v    []float64
		want [3]float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{5, 9, 1, 7, 3}, [3]float64{2, 5, 8}},
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
	} {
		q1, q2, q3 := quartiles(c.v)
		if got := [3]float64{q1, q2, q3}; got != c.want {
			t.Errorf("quartiles(%v) = %v, want %v", c.v, got, c.want)
		}
	}
}

func TestCompareVerdicts(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, p50 []float64) string {
		var b strings.Builder
		for _, v := range p50 {
			b.WriteString(`{"header":{"workload":"ycsb_part"}}` + "\n")
			b.WriteString(`{"correct":true,"attempted":1,"failed":0,"metrics":{"commit_p50_ms":{"value":` +
				strconv.FormatFloat(v, 'f', -1, 64) + `,"unit":"ms"}}}` + "\n")
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	base := write("a", []float64{100, 101, 99, 100, 102})
	same := write("b", []float64{99, 100, 101, 100, 98})
	slow := write("c", []float64{150, 151, 149, 150, 152})
	wide := write("d", []float64{40, 100, 160, 70, 130})
	for _, c := range []struct {
		b    string
		want int
	}{{same, 0}, {slow, 1}, {wide, 1}} {
		if got := runCompare("../BENCHMARK.json", base, c.b); got != c.want {
			t.Errorf("compare(a, %s) exited %d, want %d", filepath.Base(c.b), got, c.want)
		}
	}
}
