package main

import (
	"path/filepath"
	"testing"

	"star/internal/bench"
)

// Comparing two files runs nothing: within the threshold is exit 0, a
// point that fell past it exit 1, no matched point exit 2, and the
// -workloads/-engines filters narrow the current file.
func TestCompareTwoFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, pts ...bench.SweepPoint) string {
		path := filepath.Join(dir, name)
		if err := bench.WriteResultsFile(path, bench.SweepResults{
			Schema: bench.ResultsSchema, Workloads: []string{"ycsb", "tpcc"}, Engines: []string{"STAR"}, Results: pts,
		}); err != nil {
			t.Fatal(err)
		}
		return path
	}
	pt := func(wl string, tput float64) bench.SweepPoint {
		return bench.SweepPoint{Workload: wl, Engine: "STAR", ThroughputTxnS: tput}
	}
	base := write("base.json", pt("ycsb", 1000), pt("tpcc", 1000))
	same := write("same.json", pt("ycsb", 950), pt("tpcc", 1000))
	worse := write("worse.json", pt("ycsb", 1000), pt("tpcc", 800))
	other := write("other.json", bench.SweepPoint{Workload: "ycsb", Engine: "Calvin", ThroughputTxnS: 1})

	for _, c := range []struct {
		name      string
		current   string
		workloads []string
		want      int
	}{
		{"within threshold", same, nil, 0},
		{"regression", worse, nil, 1},
		{"regression filtered out", worse, []string{"ycsb"}, 0},
		{"no matching point", other, nil, 2},
		{"missing file", filepath.Join(dir, "absent.json"), nil, 2},
	} {
		if got := compare(base, c.current, c.workloads, nil, 15, false); got != c.want {
			t.Errorf("%s: exit %d, want %d", c.name, got, c.want)
		}
	}
}
