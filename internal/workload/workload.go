// Package workload defines the interface every benchmark workload
// implements, plus the two workloads the paper evaluates (subpackages
// ycsb and tpcc).
package workload

import (
	"cmp"
	"math/rand"
	"slices"

	"star/internal/storage"
	"star/internal/txn"
)

// Workload builds and populates a database and produces generators.
type Workload interface {
	// Name returns the workload name ("ycsb", "tpcc").
	Name() string
	// BuildDB creates the schema for a node holding the given partitions
	// (nil holds = full replica).
	BuildDB(nparts int, holds []bool) *storage.DB
	// Load deterministically populates the partitions the node holds —
	// each one never written, emitted through Table.Fill — and the
	// replicated tables; replicas of a partition load byte-identical data.
	// Partitions may be filled concurrently (storage.DB.FillHeld), so a
	// partition's rows, TIDs and index entries must depend on the
	// partition alone, never on what was filled before it.
	Load(db *storage.DB)
	// NewGen returns a transaction generator. Generators with the same
	// seed produce the same sequence (Calvin replays inputs).
	NewGen(seed int64) Gen
}

// Gen produces transaction instances. One generator per worker thread.
type Gen interface {
	// Mixed returns the next transaction for a client homed at partition
	// `home`: cross-partition with the workload's configured probability.
	Mixed(home int) txn.Procedure
	// Single returns a single-partition transaction for `home`.
	Single(home int) txn.Procedure
	// Cross returns a cross-partition transaction homed at `home`.
	Cross(home int) txn.Procedure
}

// WorkerSeed is the generator seed of worker on node in a run seeded by
// base; every engine's workers (and Calvin's per-node sequencer streams)
// draw from it, so runs at one seed generate the same transactions.
func WorkerSeed(base int64, node, worker int) int64 {
	return base*1_000_003 + int64(node)*257 + int64(worker) + 1
}

// WorkerRNG is the worker's own random stream (home partitions, backoff),
// seeded apart from its generator.
func WorkerRNG(base int64, node, worker int) *rand.Rand {
	return rand.New(rand.NewSource(WorkerSeed(base, node, worker) ^ 0x5eed))
}

// BuildDBs builds and fills one committed database per node: holds[i] is
// node i's residency mask, and a nil mask builds none. Each partition is
// generated by Load for the first node that holds it and copied into
// every later holder (storage.DB.FillFrom), so a cluster build generates
// each partition once and its replicas are identical, slot for slot. A
// node that generates no partition runs no Load: it copies the
// replicated tables from the first node built too. A node's partitions
// are generated, and then copied, concurrently (storage.DB.FillHeld).
func BuildDBs(w Workload, nparts int, holds [][]bool) []*storage.DB {
	dbs := make([]*storage.DB, len(holds))
	first := make([]*storage.DB, nparts)
	var src *storage.DB // the first node built, whose replicated tables are copied
	for i, mask := range holds {
		if mask == nil {
			continue
		}
		gen := make([]bool, nparts)
		for p, h := range mask {
			gen[p] = h && first[p] == nil
		}
		db := w.BuildDB(nparts, gen)
		if src == nil || slices.Contains(gen, true) {
			w.Load(db)
		} else {
			db.FillFrom(storage.Replicated, src)
		}
		for p, h := range mask {
			if gen[p] {
				first[p] = db
			} else if h {
				db.SetHolds(p, true)
			}
		}
		db.FillHeld(func(p int) {
			if !gen[p] {
				db.FillFrom(p, first[p])
			}
		})
		db.CommitEpoch()
		dbs[i], src = db, cmp.Or(src, db)
	}
	return dbs
}
