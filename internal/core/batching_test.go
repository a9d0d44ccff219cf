package core

import (
	"testing"
	"time"

	"star/internal/rt"
	"star/internal/transport"
)

// The replication fence reconciles per-entry counts (§4.3) while the
// wire carries coalesced msgReplBatch envelopes: after a quiesced
// boundary, every node must have applied exactly the entries each
// source claims to have sent it, and the envelope count must be far
// below the entry count (otherwise batching is inert). Pinned to the
// fixed flush policy: the adaptive default deliberately shrinks
// low-volume streams' envelopes to overlap application with the phase.
func TestFenceEntryCountsReconcileUnderBatching(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 20, func(c *Config) { c.FlushPolicy = FlushFixed })
	s.Run(60 * time.Millisecond)
	if e.Stats().Committed == 0 {
		t.Fatal("no commits")
	}
	settle(s, e, 30*time.Millisecond)

	var totalEntries int64
	for _, src := range e.nodes {
		sent := src.tracker.SentVector()
		for dst, want := range sent {
			totalEntries += want
			if got := e.nodes[dst].tracker.Applied(src.id); got != want {
				t.Fatalf("node %d applied %d entries from node %d, but source sent %d",
					dst, got, src.id, want)
			}
		}
	}
	if totalEntries == 0 {
		t.Fatal("no replication entries shipped")
	}
	msgs := replEnvelopes(e)
	if msgs <= 0 {
		t.Fatal("no replication envelopes")
	}
	// Byte-bounded batching must coalesce entries well beyond the seed's
	// 16-entry flushing even though fence-tail flushing deliberately
	// ships a few small envelopes at each phase boundary to shorten the
	// drain (bulk envelopes alone average 2x higher).
	if perMsg := totalEntries / msgs; perMsg < 20 {
		t.Fatalf("only %d entries per envelope (%d entries in %d messages); delta batching inert",
			perMsg, totalEntries, msgs)
	}
	s.Stop()
}

// replEnvelopes is the replication-class message count less the
// end-of-epoch markers that ride the same class (one per ordered pair of
// members per epoch; the frozen settle spins through hundreds of empty
// epochs). The +1 covers an epoch in flight.
func replEnvelopes(e *Engine) int64 {
	n := int64(len(e.topo.Load().Members()))
	epochs := e.StatsSnapshot().Counters["epochs"] + 1
	return e.net.Messages(transport.Replication) - epochs*n*(n-1)
}

// The adaptive default must also reconcile exactly at the fence, and
// still coalesce entries into multi-entry envelopes (the thresholds move
// per destination, the per-entry accounting must not).
func TestFenceReconcilesUnderAdaptiveFlushing(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 4, 2, 20, nil) // FlushAdaptive is the default
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

// An entry-bounded stream (the seed's configuration) must still
// reconcile — the fence accounting is per entry regardless of packing.
func TestFenceReconcilesWithEntryBoundedFlushing(t *testing.T) {
	s := rt.NewSim()
	e := ycsbCluster(t, s, 3, 2, 10, func(c *Config) {
		c.FlushEvery = 16
		c.FlushBytes = -1
	})
	s.Run(40 * time.Millisecond)
	settle(s, e, 20*time.Millisecond)
	for _, src := range e.nodes {
		for dst, want := range src.tracker.SentVector() {
			if got := e.nodes[dst].tracker.Applied(src.id); got != want {
				t.Fatalf("node %d applied %d/%d entries from node %d", dst, got, want, src.id)
			}
		}
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
		e.RecoverNode(victim)
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
