package main

import (
	"fmt"
	"math/rand"

	"star/internal/txn"
	"star/internal/workload"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

// sizes scales the tables. The benchmark always runs fullSizes; the
// package test runs smallSizes so it fits inside the tier-1 suite.
type sizes struct {
	ycsbRecords int // per partition
	tpcc        tpcc.Config
}

var (
	fullSizes  = sizes{ycsbRecords: 200_000} // tpcc zero value = standard sizes
	smallSizes = sizes{ycsbRecords: 2000, tpcc: tpcc.Config{Districts: 2, CustomersPerDistrict: 300, Items: 2000}}
)

// clientOps is how many rows one front-door YCSB transaction touches.
const clientOps = 2

// spec is one benchmark workload: how to build the engine's workload and
// what a front-door session sends. Only generated inputs reach the
// engine; the name never leaves this package.
type spec struct {
	name string
	// newWorkload returns a fresh workload instance (one per node and
	// per codec, as separate processes would construct them).
	newWorkload func(sz sizes) workload.Workload
	// newSession returns the request source of front-door session idx.
	newSession func(w workload.Workload, idx int, seed int64) session
}

// session produces a front-door session's transactions: an update
// transaction, then a read-only transaction carrying the token the
// update returned.
type session interface {
	nextWrite() txn.Procedure
	nextRead() txn.Procedure
}

func ycsbSpec(name string, crossPct int) spec {
	return spec{
		name: name,
		newWorkload: func(sz sizes) workload.Workload {
			return ycsb.New(ycsb.Config{
				Partitions:          numPartitions,
				RecordsPerPartition: sz.ycsbRecords,
				CrossPct:            crossPct,
			})
		},
		newSession: func(w workload.Workload, idx int, seed int64) session {
			return &ycsbSession{
				w:     w.(*ycsb.Workload),
				rng:   rand.New(rand.NewSource(seed*7919 + int64(idx) + 1)),
				home:  idx % numPartitions,
				cross: crossPct,
			}
		},
	}
}

// ycsbSession walks a seeded key sequence: each step writes clientOps
// rows and then reads the same rows back. A step is cross-partition with
// the workload's own cross share, so ycsb_part sessions stay on their
// home partition and ycsb_cross sessions always span both.
type ycsbSession struct {
	w           *ycsb.Workload
	rng         *rand.Rand
	home, cross int
	parts, rows []int
	n           uint64
}

func (s *ycsbSession) nextWrite() txn.Procedure {
	cross := s.rng.Intn(100) < s.cross
	records := s.w.Config().RecordsPerPartition
	s.parts, s.rows = s.parts[:0], s.rows[:0]
	for i := 0; i < clientOps; i++ {
		p := s.home
		if cross && i > 0 {
			p = (s.home + i) % numPartitions
		}
		s.parts = append(s.parts, p)
		s.rows = append(s.rows, s.rng.Intn(records))
	}
	s.n++
	return s.w.WriteTxn(s.parts, s.rows, []byte(fmt.Sprintf("c%09d", s.n)))
}

func (s *ycsbSession) nextRead() txn.Procedure { return s.w.ReadTxn(s.parts, s.rows) }

// tpccGenSeed returns a generator seed whose history-key id (seed mod
// 255, see tpcc.NewGen) differs from both engine workers' and from the
// other sessions': Payment inserts history rows keyed by that id, so a
// shared id would collide.
func tpccGenSeed(engineSeed int64, idx int) int64 {
	id := func(s int64) uint64 { return uint64(s) % 255 }
	taken := map[uint64]bool{}
	for node := 0; node < numNodes; node++ {
		// core.newWorker: Seed*1_000_003 + node*257 + worker + 1.
		taken[id(engineSeed*1_000_003+int64(node)*257+1)] = true
	}
	s := engineSeed*31 + 1000
	for found := 0; ; s++ {
		if taken[id(s)] {
			continue
		}
		taken[id(s)] = true
		if found == idx {
			return s
		}
		found++
	}
}

var tpccSpec = spec{
	name: "tpcc_full",
	newWorkload: func(sz sizes) workload.Workload {
		cfg := sz.tpcc
		cfg.Warehouses = numPartitions
		cfg.SetFullMix()
		cfg.TrimPct = 4
		return tpcc.New(cfg)
	},
	newSession: func(w workload.Workload, idx int, seed int64) session {
		return &tpccSession{gen: w.NewGen(tpccGenSeed(seed, idx)), home: idx % numPartitions}
	},
}

// tpccSession draws the standard mix for its home warehouse from a
// harness-side generator. Deferred classes (Delivery, Trim) are skipped:
// a terminal does not wait for them.
type tpccSession struct {
	gen  workload.Gen
	home int
}

func (s *tpccSession) next(readOnly bool) txn.Procedure {
	for {
		p := s.gen.Mixed(s.home)
		if !txn.IsDeferred(p) && txn.IsReadOnly(p) == readOnly {
			return p
		}
	}
}

func (s *tpccSession) nextWrite() txn.Procedure { return s.next(false) }
func (s *tpccSession) nextRead() txn.Procedure  { return s.next(true) }

// specs are the benchmark's workloads; BENCHMARK.json and README.md say
// why each exists.
var specs = []spec{
	ycsbSpec("ycsb_part", 0),    // only the partitioned phase runs
	ycsbSpec("ycsb_mix", 10),    // the paper's default: both phases, two fences per iteration
	ycsbSpec("ycsb_cross", 100), // the single-master phase does all the work
	tpccSpec,                    // inserts, deletes, ordered indexes, fence GC, large rows
}

func specByName(name string) (spec, bool) {
	for _, s := range specs {
		if s.name == name {
			return s, true
		}
	}
	return spec{}, false
}
