package bench

import (
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// mkResults builds a bundle from "workload/engine/crossPct" → throughput.
func mkResults(t *testing.T, tputs map[string]float64) SweepResults {
	t.Helper()
	res := SweepResults{Schema: ResultsSchema}
	for k, v := range tputs {
		f := strings.Split(k, "/")
		cross, err := strconv.Atoi(f[2])
		if err != nil {
			t.Fatal(err)
		}
		res.Results = append(res.Results, SweepPoint{
			Workload: f[0], Engine: f[1], CrossPct: cross, ThroughputTxnS: v,
		})
	}
	return res
}

func TestDiffResultsFlagsRegressions(t *testing.T) {
	base := mkResults(t, map[string]float64{
		"ycsb/STAR/0":  1000,
		"ycsb/STAR/50": 500,
		"tpcc/STAR/0":  2000,
	})
	cur := mkResults(t, map[string]float64{
		"ycsb/STAR/0":   1010, // +1%: fine
		"ycsb/STAR/50":  400,  // -20%: regression at 15%
		"tpcc/Calvin/0": 1,    // not in baseline: skipped
	})
	deltas := DiffResults(base, cur, 15)
	if len(deltas) != 2 {
		t.Fatalf("got %d deltas, want 2 (intersection only): %+v", len(deltas), deltas)
	}
	regs := Regressions(deltas)
	if len(regs) != 1 || regs[0].CrossPct != 50 {
		t.Fatalf("regressions: %+v", regs)
	}
	if regs[0].DeltaPct > -19 || regs[0].DeltaPct < -21 {
		t.Fatalf("delta %f, want about -20", regs[0].DeltaPct)
	}
	if !strings.Contains(FormatDelta(regs[0]), "!") {
		t.Fatal("regressed delta must carry the ! marker")
	}
	// A looser threshold clears it.
	if r := Regressions(DiffResults(base, cur, 25)); len(r) != 0 {
		t.Fatalf("25%% threshold must pass, got %+v", r)
	}
}

func TestReadResultsFileRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "r.json")
	res := mkResults(t, map[string]float64{"ycsb/STAR/0": 123})
	res.Seed = 42
	if err := WriteResultsFile(path, res); err != nil {
		t.Fatal(err)
	}
	got, err := ReadResultsFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Seed != 42 || len(got.Results) != 1 || got.Results[0].ThroughputTxnS != 123 {
		t.Fatalf("round trip lost data: %+v", got)
	}
	// Schema mismatch must fail loudly.
	bad := res
	bad.Schema = "other/v9"
	if err := WriteResultsFile(path, bad); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadResultsFile(path); err == nil {
		t.Fatal("schema mismatch must error")
	}
}

// The committed baseline `star-bench -baseline` compares against still
// loads: the key of the retired batching comparison in it is ignored.
func TestReadResultsFileLoadsCommittedBaseline(t *testing.T) {
	res, err := ReadResultsFile(filepath.Join("..", "..", "BENCH_results.json"))
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Results) == 0 {
		t.Fatal("committed baseline has no sweep points")
	}
}
