package bench

import (
	"io"
	"testing"
	"time"

	"star/internal/workload"
)

// A simulated run is a function of its seed. The simulated network
// reserves a sender's egress in send order, so an engine that fans a round
// out in map order draws its own schedule on every run, and the sweep the
// CI guardrail compares stops being reproducible. Each sweep engine, and
// STAR with synchronous replication, runs twice here and must report the
// same numbers.
func TestSimulatedRunsRepeat(t *testing.T) {
	o := Options{Out: io.Discard, Short: true, Duration: 30 * time.Millisecond, Seed: 3}
	const nodes, cross = 4, 100
	type spec struct {
		engine string
		wl     func(nodes, crossPct int) workload.Workload
		v      variant
	}
	runs := []spec{{"STAR", o.tpccWorkload, variant{sync: true}}}
	for _, engine := range SweepEngines {
		runs = append(runs, spec{engine, o.ycsbWorkload, variant{}})
	}
	for _, r := range runs {
		point := func() SweepPoint {
			st, n := o.run(r.engine, nodes, r.wl, cross, r.v)
			return toPoint("", r.engine, cross, n, st)
		}
		if a, b := point(), point(); a != b {
			t.Errorf("%s (sync=%v): two runs at one seed differ:\n  %+v\n  %+v", r.engine, r.v.sync, a, b)
		}
	}
}
