package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"text/tabwriter"
)

// contract mirrors the parts of BENCHMARK.json -compare needs.
type contract struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []contractMetric `json:"end_to_end"`
	PerLayer []contractMetric `json:"per_layer"`
}

type contractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

func loadContract(path string) (*contract, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var c contract
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// resultSet is one set of runs: values[workload][metric] in run order.
type resultSet map[string]map[string][]float64

// loadSet reads captured benchmark output: any number of runs, each a
// header line naming the workload followed by its result line.
func loadSet(path string) (resultSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	set := resultSet{}
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		var line struct {
			Header *struct {
				Workload string `json:"workload"`
			} `json:"header"`
			Correct *bool                  `json:"correct"`
			Metrics map[string]metricValue `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Header != nil:
			workload = line.Header.Workload
		case line.Correct != nil && *line.Correct && workload != "":
			if set[workload] == nil {
				set[workload] = map[string][]float64{}
			}
			for name, m := range line.Metrics {
				set[workload][name] = append(set[workload][name], m.Value)
			}
		}
	}
	return set, sc.Err()
}

// quartiles returns the cut points Python's statistics.quantiles(v, n=4)
// gives (the exclusive method), which is what the acceptance check uses.
func quartiles(v []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(2), cut(3)
}

// runCompare prints, per metric and workload, each set's median and
// quartiles and B's change against A, and judges end-to-end metrics
// against their bound: ok, worse, or unresolved when a set's own
// inter-quartile spread exceeds the bound. It returns the exit code.
func runCompare(contractPath, pathA, pathB string) int {
	c, err := loadContract(contractPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: -compare reads the bounds from BENCHMARK.json:", err)
		return 2
	}
	a, err := loadSet(pathA)
	if err == nil && len(a) == 0 {
		err = fmt.Errorf("%s: no results", pathA)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	b, err := loadSet(pathB)
	if err == nil && len(b) == 0 {
		err = fmt.Errorf("%s: no results", pathB)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		return 2
	}
	tw := tabwriter.NewWriter(os.Stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "metric\tworkload\tunit\tA median [q1..q3] (n)\tB median [q1..q3] (n)\tB vs A (base: A median)\tbound\tverdict")
	bad := 0
	row := func(m contractMetric, bounded bool) {
		for _, w := range c.Workloads {
			va, vb := a[w.Name][m.Name], b[w.Name][m.Name]
			if len(va) == 0 || len(vb) == 0 {
				continue
			}
			a1, a2, a3 := quartiles(va)
			b1, b2, b3 := quartiles(vb)
			change := ratio(b2-a2, a2)
			worse := change
			if m.Better == "higher" {
				worse = -change
			}
			verdict, bound := "-", "-"
			if bounded {
				bound = fmt.Sprintf("%.0f%%", 100*m.Bound)
				switch {
				case ratio(a3-a1, a2) > m.Bound || ratio(b3-b1, b2) > m.Bound:
					verdict = "unresolved"
					bad++
				case worse > m.Bound:
					verdict = "worse"
					bad++
				default:
					verdict = "ok"
				}
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4g [%.4g..%.4g] (%d)\t%.4g [%.4g..%.4g] (%d)\t%+.1f%% of %.4g\t%s\t%s\n",
				m.Name, w.Name, m.Unit, a2, a1, a3, len(va), b2, b1, b3, len(vb), 100*change, a2, bound, verdict)
		}
	}
	for _, m := range c.EndToEnd {
		row(m, true)
	}
	for _, m := range c.PerLayer {
		row(m, false)
	}
	tw.Flush()
	if bad > 0 {
		return 1
	}
	return 0
}
