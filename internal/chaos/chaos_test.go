package chaos

import (
	"bytes"
	"encoding/json"
	"flag"
	"reflect"
	"strconv"
	"testing"

	"star/internal/core"
)

// chaosSeed reruns the soak on one specific seed — the one-command
// reproduction path for a CI failure:
//
//	go test ./internal/chaos -run TestChaosSoak -v -args -chaos.seed=42
var chaosSeed = flag.Int64("chaos.seed", 0, "run the chaos soak on this single seed instead of the default matrix")

// chaosSeeds reports the seed matrix for this invocation.
func chaosSeeds() []int64 {
	if *chaosSeed != 0 {
		return []int64{*chaosSeed}
	}
	return []int64{1, 2}
}

// TestChaosSoakConvergesFixedSeed is the pinned acceptance run: a soak
// with drops, duplicates, reorders, an asymmetric partition and a
// crash/heal window on fixed seeds must keep committing, keep the
// session-token freshness invariant, and converge to byte-identical
// replica checksums after heal.
func TestChaosSoakConvergesFixedSeed(t *testing.T) {
	for _, seed := range chaosSeeds() {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			var trace bytes.Buffer
			res, err := RunSoak(seed, Options{Logf: t.Logf, Trace: &trace})
			if err != nil {
				t.Fatal(err)
			}
			checkTimeline(t, &trace, res)
			t.Logf("seed %d: committed=%d epoch=%d digest=%016x injected=%v probe served=%d fallbacks=%d",
				seed, res.Committed, res.Epoch, res.Digest, res.Injected, res.ProbeServed, res.ProbeFallbacks)
			if res.Committed == 0 {
				t.Fatal("soak committed nothing")
			}
			if res.ProbeServed == 0 {
				t.Fatal("read-your-own-writes probe was never served — the invariant was not exercised")
			}
			// Every requested fault family must actually have fired, or the
			// soak silently tested less than it claims.
			for _, k := range []string{"fault_drops", "fault_dups", "fault_reorders", "fault_part_drops", "fault_crash_drops"} {
				if res.Injected[k] == 0 {
					t.Errorf("fault family %s never fired (injected=%v)", k, res.Injected)
				}
			}
			// The engine publishes the injector's counters under their own
			// names.
			if got, want := res.Published["fault_drops"], res.Injected["fault_drops"]; got != want {
				t.Errorf("engine snapshot fault_drops=%d, injector counted %d", got, want)
			}
			// Faults drop, repeat and reorder frames; none of them makes a
			// frame one the entry check refuses.
			if n := res.Published["frames_refused"]; n != 0 {
				t.Errorf("the cluster refused %d of its own frames", n)
			}
		})
	}
}

// TestChaosSoakDeterministicReplay pins that a soak is a pure function
// of its seed: two runs must agree on the committed count, the database
// digest, and every injection counter. This is what makes a failing CI
// seed reproducible with one command.
func TestChaosSoakDeterministicReplay(t *testing.T) {
	seed := chaosSeeds()[0]
	a, err := RunSoak(seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSoak(seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if a.Committed != b.Committed {
		t.Errorf("committed diverged across replays: %d vs %d", a.Committed, b.Committed)
	}
	if a.Digest != b.Digest {
		t.Errorf("database digest diverged across replays: %016x vs %016x", a.Digest, b.Digest)
	}
	if !reflect.DeepEqual(a.Injected, b.Injected) {
		t.Errorf("injection counters diverged across replays: %v vs %v", a.Injected, b.Injected)
	}
}

// TestGeneratePlanDeterministic pins that the plan generator is seed-pure
// and that different seeds actually vary the schedule.
func TestGeneratePlanDeterministic(t *testing.T) {
	a := GeneratePlan(7, Options{})
	b := GeneratePlan(7, Options{})
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed produced different plans")
	}
	c := GeneratePlan(8, Options{})
	if reflect.DeepEqual(a.Rules, c.Rules) {
		t.Fatal("different seeds produced identical rule sets")
	}
	if err := a.Validate(); err != nil {
		t.Fatalf("generated plan does not validate: %v", err)
	}
	// Fault-family switches prune the plan.
	d := GeneratePlan(7, Options{NoDrops: true, NoDups: true, NoReorders: true, NoPartition: true, NoCrash: true})
	if len(d.Rules) != 0 || len(d.Partitions) != 0 || len(d.Crashes) != 0 {
		t.Fatalf("all families disabled but plan non-empty: %+v", d)
	}
}

func seedName(seed int64) string {
	return "seed=" + strconv.FormatInt(seed, 10)
}

// checkTimeline asserts the coordinator's per-epoch trace is usable as a
// flight recorder: every line is a well-formed core.TraceEvent, epochs
// ascend monotonically, phases alternate over legal names, the traced
// commits account for work the soak actually did, and the fault counters
// show up once injection starts.
func checkTimeline(t *testing.T, trace *bytes.Buffer, res Result) {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(trace.Bytes()), []byte("\n"))
	if len(lines) == 0 || len(lines[0]) == 0 {
		t.Fatal("soak emitted no timeline trace")
	}
	var last uint64
	var traced int64
	sawFaults := false
	for i, line := range lines {
		var ev core.TraceEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			t.Fatalf("trace line %d does not parse: %v\n%s", i, err, line)
		}
		if ev.Epoch <= last {
			t.Fatalf("trace line %d: epoch %d not ascending (prev %d)", i, ev.Epoch, last)
		}
		last = ev.Epoch
		if ev.Phase != "partitioned" && ev.Phase != "single-master" {
			t.Fatalf("trace line %d: unknown phase %q", i, ev.Phase)
		}
		traced += ev.Committed
		if len(ev.Faults) > 0 {
			sawFaults = true
		}
	}
	if traced == 0 || traced > res.Committed {
		t.Errorf("traced commits %d inconsistent with soak committed %d", traced, res.Committed)
	}
	if !sawFaults {
		t.Error("no trace event carried fault-injection counters")
	}
	t.Logf("timeline: %d epochs traced, %d commits accounted", len(lines), traced)
}
