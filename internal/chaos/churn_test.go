package chaos

import (
	"bytes"
	"flag"
	"reflect"
	"testing"
)

// churnSeed reruns the membership-churn soak on one specific seed — the
// one-command reproduction path for a nightly-matrix failure:
//
//	go test ./internal/chaos -run TestChurnSoak -v -args -churn.seed=42
var churnSeed = flag.Int64("churn.seed", 0, "run the membership-churn soak on this single seed instead of the default matrix")

func churnSeeds() []int64 {
	if *churnSeed != 0 {
		return []int64{*churnSeed}
	}
	return []int64{1, 2}
}

// TestChurnSoakConvergesFixedSeed is the pinned acceptance run for
// elastic membership under fire: a join submitted while the fault
// schedule is still dropping, duplicating, reordering, partitioning and
// crashing must land after heal, the enlarged cluster must keep
// committing, and the subsequent drain must leave every surviving
// replica byte-identical. The coordinator's timeline must be as usable
// a flight recorder as the plain soak's.
func TestChurnSoakConvergesFixedSeed(t *testing.T) {
	for _, seed := range churnSeeds() {
		seed := seed
		t.Run(seedName(seed), func(t *testing.T) {
			var trace bytes.Buffer
			res, err := RunChurnSoak(seed, Options{Logf: t.Logf, Trace: &trace})
			if err != nil {
				t.Fatal(err)
			}
			checkTimeline(t, &trace, res)
			t.Logf("seed %d: committed=%d epoch=%d digest=%016x injected=%v",
				seed, res.Committed, res.Epoch, res.Digest, res.Injected)
			if res.Committed == 0 {
				t.Fatal("churn soak committed nothing")
			}
			for _, k := range []string{"fault_drops", "fault_dups", "fault_reorders", "fault_part_drops", "fault_crash_drops"} {
				if res.Injected[k] == 0 {
					t.Errorf("fault family %s never fired (injected=%v)", k, res.Injected)
				}
			}
		})
	}
}

// TestChurnSoakDeterministicReplay pins that the churn soak is a pure
// function of its seed, join/drain fences included.
func TestChurnSoakDeterministicReplay(t *testing.T) {
	seed := churnSeeds()[0]
	a, err := RunChurnSoak(seed, Options{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunChurnSoak(seed, Options{})
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
