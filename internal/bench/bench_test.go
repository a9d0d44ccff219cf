package bench

import (
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestOptionDefaults(t *testing.T) {
	paper := Options{}
	if paper.workers() != 12 {
		t.Fatalf("paper workers=%d, want 12 (§7.1)", paper.workers())
	}
	if paper.duration() != 250*time.Millisecond {
		t.Fatalf("paper duration=%v", paper.duration())
	}
	if paper.bandwidth() != 2.4e9 {
		t.Fatalf("paper bandwidth=%v", paper.bandwidth())
	}

	short := Options{Short: true}
	if short.workers() != 4 {
		t.Fatalf("short workers=%d, want 4", short.workers())
	}
	if short.duration() != 60*time.Millisecond {
		t.Fatalf("short duration=%v", short.duration())
	}
	if short.bandwidth() != 800e6 {
		t.Fatalf("short bandwidth=%v", short.bandwidth())
	}

	over := Options{Short: true, Duration: 5 * time.Millisecond}
	if over.duration() != 5*time.Millisecond {
		t.Fatalf("duration override=%v, want 5ms", over.duration())
	}

	net := short.netCfg(4)
	if net.Nodes != 5 {
		t.Fatalf("netCfg nodes=%d, want nodes+1 for the coordinator", net.Nodes)
	}
	if net.Latency != 50*time.Microsecond || net.Jitter != 10*time.Microsecond {
		t.Fatalf("netCfg latency=%v jitter=%v", net.Latency, net.Jitter)
	}
	if net.Bandwidth != short.bandwidth() {
		t.Fatalf("netCfg bandwidth=%v", net.Bandwidth)
	}

	y := short.ycsbRecords()
	if y != 4096 {
		t.Fatalf("short ycsb records=%d", y)
	}
	tc := short.tpccCfg(8)
	if tc.Warehouses != 8 || tc.Districts != 4 || tc.Items != 512 {
		t.Fatalf("short tpcc cfg=%+v", tc)
	}
}

func TestSweepConfigDefaults(t *testing.T) {
	cfg := SweepConfig{}.withDefaults(Options{Short: true})
	if cfg.Nodes != 4 {
		t.Fatalf("nodes=%d", cfg.Nodes)
	}
	if len(cfg.Workloads) != 3 || len(cfg.Engines) != 5 {
		t.Fatalf("defaults: workloads=%v engines=%v", cfg.Workloads, cfg.Engines)
	}
	if len(cfg.CrossPcts) == 0 {
		t.Fatal("no cross points")
	}
}

func TestUnknownSweepEngineErrors(t *testing.T) {
	o := Options{Out: io.Discard, Short: true, Duration: time.Millisecond, Seed: 1}
	_, err := RunSweep(o, SweepConfig{Engines: []string{"bogus"}, CrossPcts: []int{0}, Workloads: []string{"ycsb"}})
	if err == nil {
		t.Fatal("unknown engine must error, not silently skip")
	}
	_, err = RunSweep(o, SweepConfig{Engines: []string{"STAR"}, CrossPcts: []int{0}, Workloads: []string{"YCSB"}})
	if err == nil {
		t.Fatal("unknown workload must error, not fall through to TPC-C")
	}
}

// Smoke sweep at tiny duration: the full engine lineup must produce a
// well-formed BENCH_results.json.
func TestSweepSmokeWritesWellFormedJSON(t *testing.T) {
	o := Options{Out: io.Discard, Short: true, Duration: 6 * time.Millisecond, Seed: 7}
	cfg := SweepConfig{CrossPcts: []int{0, 100}}
	res, err := RunSweep(o, cfg)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "BENCH_results.json")
	if err := WriteResultsFile(path, res); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back SweepResults
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatalf("results file is not valid JSON: %v", err)
	}

	if back.Schema != ResultsSchema {
		t.Fatalf("schema=%q, want %q", back.Schema, ResultsSchema)
	}
	wantPoints := len(SweepWorkloads) * len(SweepEngines) * len(cfg.CrossPcts)
	if len(back.Results) != wantPoints {
		t.Fatalf("got %d sweep points, want %d", len(back.Results), wantPoints)
	}
	seen := map[string]bool{}
	for _, pt := range back.Results {
		seen[pt.Workload+"/"+pt.Engine] = true
		if pt.Workload == "" || pt.Engine == "" || pt.Nodes == 0 {
			t.Fatalf("point missing identity fields: %+v", pt)
		}
		if pt.ThroughputTxnS < 0 || pt.AbortRate < 0 || pt.AbortRate > 1 {
			t.Fatalf("implausible point: %+v", pt)
		}
	}
	if len(seen) != len(SweepWorkloads)*len(SweepEngines) {
		t.Fatalf("workload×engine coverage incomplete: %v", seen)
	}
	// STAR must actually commit and replicate even in a 6ms run.
	for _, pt := range back.Results {
		if pt.Engine == "STAR" && pt.CrossPct == 0 && pt.Committed == 0 {
			t.Fatalf("STAR committed nothing: %+v", pt)
		}
	}
}
