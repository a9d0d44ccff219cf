package core

import (
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/transport"
)

// replEnvelopes is the replication-class message count less the
// end-of-epoch markers that ride the same class (one per ordered pair of
// members per epoch; the frozen settle spins through hundreds of empty
// epochs). The +1 covers an epoch in flight.
func replEnvelopes(e *Engine) int64 {
	n := int64(len(e.Topology().Members()))
	epochs := e.StatsSnapshot().Counters["epochs"] + 1
	return e.net.Messages(transport.Replication) - epochs*n*(n-1)
}

// The replication fence reconciles per-entry counts (§4.3) while the
// wire carries coalesced msgReplBatch envelopes: after a quiesced
// boundary, every node must have applied exactly the entries each
// source claims to have sent it, and the envelopes must still hold
// several entries each (the adaptive thresholds move per destination,
// the per-entry accounting must not). What a fixed threshold coalesces
// is pinned on the stream itself (replication's
// TestStreamFixedThresholdHoldsAcrossEpochs).
func TestFenceReconcilesUnderAdaptiveFlushing(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 20, nil)
	s.Run(60 * time.Millisecond)
	if e.Stats().Committed == 0 {
		t.Fatal("no commits")
	}
	settle(s, e, 30*time.Millisecond)
	var totalEntries int64
	for _, src := range e.nodes {
		for dst, want := range src.tracker.SentVector() {
			totalEntries += want
			if got := e.nodes[dst].tracker.Applied(src.id); got != want {
				t.Fatalf("node %d applied %d/%d entries from node %d", dst, got, want, src.id)
			}
		}
	}
	msgs := replEnvelopes(e)
	if msgs <= 0 || totalEntries == 0 {
		t.Fatal("no replication traffic")
	}
	if perMsg := totalEntries / msgs; perMsg < 4 {
		t.Fatalf("only %d entries per envelope under adaptive flushing; batching inert", perMsg)
	}
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	s.Stop()
}

// Soak: interleave partial-replica failures and rejoins with frozen
// consistency checks on a seeded simulation. Batched envelopes in
// flight at a crash must never leave replicas diverged after the
// revert/recovery machinery runs.
func TestSTARSoakFailRecoverConsistencyUnderBatching(t *testing.T) {
	cycles := 3
	if testing.Short() {
		cycles = 1
	}
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 15, func(c *Config) { c.Seed = 99 })
	s.Run(20 * time.Millisecond)
	for cycle := 0; cycle < cycles; cycle++ {
		victim := 1 + (cycle % 3) // partial replicas only; node 0 is the full copy
		e.FailNode(victim)
		s.Run(s.Now() + 80*time.Millisecond)
		if halted, reason := e.Halted(); halted {
			t.Fatalf("cycle %d: cluster halted after partial failure: %s", cycle, reason)
		}
		before := e.Stats().Committed
		e.RequestJoin(victim)
		s.Run(s.Now() + 120*time.Millisecond)
		if e.Stats().Committed <= before {
			t.Fatalf("cycle %d: no progress after node %d rejoined", cycle, victim)
		}
		settle(s, e, 40*time.Millisecond)
		if err := e.CheckReplicaConsistency(); err != nil {
			t.Fatalf("cycle %d: replicas diverged after fail/recover of node %d: %v",
				cycle, victim, err)
		}
		e.Unfreeze()
	}
	s.Stop()
}
