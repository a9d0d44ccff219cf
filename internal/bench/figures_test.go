package bench

import (
	"bytes"
	"strings"
	"testing"
	"time"
)

// Every figure runs, at two milliseconds of virtual time per engine
// run, and prints its title, its column line and one row per x-axis
// point. Figures 14a and 14b fix their own run lengths (several 200 ms
// iterations per point), so -short skips them. The race detector skips
// the whole test: its ~170 engine builds, mostly data loading, take
// minutes there, and TestSweepSmokeWritesWellFormedJSON already
// race-runs every engine.
func TestEveryFigurePrintsItsRows(t *testing.T) {
	if raceEnabled {
		t.Skip("engine builds are slow under the race detector; the sweep smoke test race-runs every engine")
	}
	rows := map[string]int{
		"fig3": 16, "fig10": 11,
		"fig11a": 5, "fig11b": 5, "fig11c": 5, "fig11d": 5, // the -short cross points
		"fig12":  9, // three sync engines on two workloads, three async rows
		"fig13a": 5, "fig13b": 5,
		"fig14a": 8, "fig14b": 3,
		"fig15a": 5, "fig15b": 2,
		"fig16a": 3, "fig16b": 3, // the -short cluster sizes
	}
	long := map[string]bool{"fig14a": true, "fig14b": true}
	if len(rows) != len(Order) || len(Experiments) != len(Order) {
		t.Fatalf("%d expected row counts, %d experiments, %d ids in Order", len(rows), len(Experiments), len(Order))
	}
	for _, id := range Order {
		t.Run(id, func(t *testing.T) {
			if testing.Short() && long[id] {
				t.Skip("fixes its own run length; skipped under -short")
			}
			var buf bytes.Buffer
			Experiments[id](Options{Out: &buf, Short: true, Seed: 1, Duration: 2 * time.Millisecond})
			lines := strings.Split(strings.TrimSuffix(buf.String(), "\n"), "\n")
			if !strings.HasPrefix(lines[0], "# Figure") {
				t.Fatalf("first line %q is not the figure's title", lines[0])
			}
			if got := len(lines) - 2; got != rows[id] {
				t.Fatalf("%d rows under the title and column line, want %d:\n%s", got, rows[id], buf.String())
			}
		})
	}
}
