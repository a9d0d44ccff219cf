// Package star is a Go implementation of STAR (Lu, Yu, Madden — VLDB
// 2019): a distributed, replicated in-memory OLTP database with
// asymmetric replication. One set of nodes keeps full replicas, the rest
// keep partial replicas, and a phase-switching protocol alternates
// between a partitioned phase (single-partition transactions run with no
// concurrency control on every node) and a single-master phase (cross-
// partition transactions run under Silo-style OCC on a full replica),
// eliminating two-phase commit while preserving f+1-way replication.
//
// The package runs a whole cluster in one process. Two runtimes are
// available: the real runtime (goroutines + wall clock — the default)
// and a deterministic discrete-event simulation (Virtual: true) used to
// reproduce the paper's multi-node experiments on a small machine.
//
// Workloads follow the stored-procedure model (see Workload, Procedure):
// the built-in YCSB and TPC-C generators mirror §7.1.1, and custom
// workloads implement the same interfaces (see examples/bank). A
// procedure that can be deferred — any cross-partition one — crosses to
// the master as its encoding, so it needs a codec: a WireSize method and
// the workload's RegisterWire, as examples/bank/wire.go writes them.
package star

import (
	"errors"
	"time"

	"star/internal/core"
	"star/internal/metrics"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/txn"
	"star/internal/workload"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

// Re-exported workload-building types: custom workloads implement
// Workload/Gen/Procedure against these (they are stable aliases of the
// internal packages).
type (
	// Workload builds, loads and generates transactions for a database.
	Workload = workload.Workload
	// Gen produces transaction instances for one worker.
	Gen = workload.Gen
	// Procedure is one transaction: declared footprint plus logic.
	Procedure = txn.Procedure
	// Ctx is the data-access interface handed to procedures.
	Ctx = txn.Ctx
	// Access declares one element of a procedure's footprint.
	Access = txn.Access
	// IndexSpec declares an ordered secondary index on a table
	// (Table.AddIndex); procedures query it via Ctx.LookupIndex.
	IndexSpec = storage.IndexSpec
	// Stats is a snapshot of cluster metrics.
	Stats = metrics.Stats
)

// ErrUserAbort rolls back the calling procedure (e.g. TPC-C's invalid
// item id).
var ErrUserAbort = txn.ErrUserAbort

// ErrConflict signals a concurrency-control abort; the engine retries.
var ErrConflict = txn.ErrConflict

// Config describes a STAR cluster.
type Config struct {
	// Nodes is the cluster size f+k (default 4, as in the paper).
	Nodes int
	// FullReplicas is f, the number of nodes holding the entire
	// database (default 1).
	FullReplicas int
	// WorkersPerNode is the worker-thread count per node (default 4;
	// the paper uses 12). Partitions = Nodes × WorkersPerNode.
	WorkersPerNode int
	// Workload supplies schema, data and transactions (required).
	Workload Workload
	// Iteration is the phase-switching iteration time e = τp+τs
	// (default 10ms, §4.3).
	Iteration time.Duration
	// LogDir turns on value logging with fence flushes: every thread
	// writes a recovery log under this directory (see internal/wal for
	// the recovery path). A cluster logs iff it has one.
	LogDir string
	// Virtual runs the cluster on the deterministic simulation runtime;
	// use Cluster.RunVirtual to advance time.
	Virtual bool
	// Seed drives all deterministic randomness.
	Seed int64
}

// Cluster is a running STAR cluster.
type Cluster struct {
	cfg    Config
	real   *rt.Real
	sim    *rt.Sim
	engine *core.Engine
}

// New builds, loads and starts a cluster.
func New(cfg Config) (*Cluster, error) {
	if cfg.Workload == nil {
		return nil, errors.New("star: Config.Workload is required")
	}
	if cfg.Nodes == 0 {
		cfg.Nodes = 4
	}
	if cfg.Nodes < 2 {
		return nil, errors.New("star: need at least 2 nodes (one full replica + one partial)")
	}
	ccfg := core.Config{
		Nodes:          cfg.Nodes,
		FullReplicas:   cfg.FullReplicas,
		WorkersPerNode: cfg.WorkersPerNode,
		Workload:       cfg.Workload,
		Iteration:      cfg.Iteration,
		LogDir:         cfg.LogDir,
		Seed:           cfg.Seed,
	}
	if err := ccfg.Topology().Validate(); err != nil {
		return nil, errors.New("star: " + err.Error())
	}
	c := &Cluster{cfg: cfg}
	if cfg.Virtual {
		c.sim = rt.NewSim()
		ccfg.RT = c.sim
	} else {
		c.real = rt.NewReal()
		ccfg.RT = c.real
	}
	c.engine = core.New(ccfg)
	return c, nil
}

// Run lets the cluster execute for d: wall-clock time on the real
// runtime, virtual time on the simulation runtime.
func (c *Cluster) Run(d time.Duration) {
	if c.sim != nil {
		c.sim.Run(c.sim.Now() + d)
		return
	}
	time.Sleep(d)
}

// Stats snapshots throughput, latency and replication metrics.
func (c *Cluster) Stats() Stats { return c.engine.Stats() }

// FailNode crash-stops a node; the coordinator detects it at the next
// replication fence, reverts the in-flight epoch, and re-masters the
// node's partitions onto surviving replicas (§4.5).
func (c *Cluster) FailNode(id int) { c.engine.FailNode(id) }

// RecoverNode rejoins a failed node. A rejoin is a join of a member:
// at the next committed fence the node copies partition state from
// healthy holders under the Thomas write rule and resumes mastering its
// partitions.
func (c *Cluster) RecoverNode(id int) { c.engine.RequestJoin(id) }

// Halted reports whether the cluster lost availability (no complete
// replica remains — §4.5.3 cases 2 and 4) and why.
func (c *Cluster) Halted() (bool, string) { return c.engine.Halted() }

// Freeze pauses workload generation (replication and fences continue),
// letting in-flight work settle — used before consistency checks.
func (c *Cluster) Freeze() { c.engine.Freeze() }

// Unfreeze resumes workload generation.
func (c *Cluster) Unfreeze() { c.engine.Unfreeze() }

// CheckConsistency verifies that all live replicas of every partition
// hold identical data. Call after Freeze + a settling Run.
func (c *Cluster) CheckConsistency() error { return c.engine.CheckReplicaConsistency() }

// DB exposes node i's database copy for read-only inspection (invariant
// checks in examples and tests). Freeze the cluster first.
func (c *Cluster) DB(i int) *DB { return c.engine.DB(i) }

// Close shuts the cluster down and releases its goroutines.
func (c *Cluster) Close() {
	if c.sim != nil {
		c.sim.Stop()
		return
	}
	c.real.Stop()
}

// YCSBConfig mirrors the paper's YCSB setup (§7.1.1).
type YCSBConfig = ycsb.Config

// YCSB builds the YCSB workload: 10 columns × 10 bytes, 10 accesses per
// transaction with a 90/10 read/write mix, uniform keys.
func YCSB(cfg YCSBConfig) Workload { return ycsb.New(cfg) }

// TPCCConfig mirrors the paper's TPC-C setup (§7.1.1).
type TPCCConfig = tpcc.Config

// TPCC builds the TPC-C workload (NewOrder + Payment, partitioned by
// warehouse, ITEM replicated everywhere).
func TPCC(cfg TPCCConfig) Workload { return tpcc.New(cfg) }

// Schema/field helpers for custom workloads.
type (
	// DB is one node's set of tables and partitions.
	DB = storage.DB
	// Table is a partitioned hash table.
	Table = storage.Table
	// Schema describes a table's fixed-width row layout.
	Schema = storage.Schema
	// Field is one column definition.
	Field = storage.Field
	// Key is the composite record key.
	Key = storage.Key
	// FieldOp is a field-level write (the unit of operation replication).
	FieldOp = storage.FieldOp
)

// Field type enumeration for custom schemas.
const (
	FieldUint64  = storage.FieldUint64
	FieldInt64   = storage.FieldInt64
	FieldFloat64 = storage.FieldFloat64
	FieldBytes   = storage.FieldBytes
)

// NewSchema builds a schema from column definitions.
func NewSchema(fields ...Field) *Schema { return storage.NewSchema(fields...) }

// NewDB creates an empty database (custom Workload.BuildDB implementations).
func NewDB(nparts int, holds []bool) *DB { return storage.NewDB(nparts, holds) }

// K1 and K2 build one- and two-component keys.
func K1(a uint64) Key { return storage.K1(a) }

// K2 builds a two-component key.
func K2(a, b uint64) Key { return storage.K2(a, b) }

// Field-op constructors for procedure writes.
var (
	// AddInt64Op adds a delta to an integer column.
	AddInt64Op = storage.AddInt64Op
	// AddFloat64Op adds a delta to a float column.
	AddFloat64Op = storage.AddFloat64Op
	// PrependOp prepends bytes to a byte column, truncating at capacity.
	PrependOp = storage.PrependOp
	// SetFieldOp replaces one column with the value from a template row.
	SetFieldOp = storage.SetFieldOp
)
