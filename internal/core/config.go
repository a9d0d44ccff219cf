// Package core implements the STAR engine itself: a cluster of f full
// replicas and k partial replicas that alternates between a partitioned
// phase (single-partition transactions run serially on every partition's
// master, no concurrency control) and a single-master phase (deferred
// cross-partition transactions run under Silo-style OCC on one full
// replica), separated by replication fences that make every phase switch
// an epoch boundary and a group commit (paper §3–§5).
package core

import (
	"io"
	"time"

	"star/internal/replication"
	"star/internal/rt"
	"star/internal/transport"
	"star/internal/workload"
)

// The cost table: virtual CPU costs of engine actions, so the simulation
// runtime reproduces compute/communication ratios (on the real runtime
// Compute is a no-op: real work takes real time). They are constants,
// not configuration — calibrated so 4-node sim throughput lands near the
// paper's absolute numbers (§7.1), and the baselines charge the same
// table, which is what makes their simulated numbers comparable.
const (
	// CostRead is one record read (hash probe + copy).
	CostRead = 900 * time.Nanosecond
	// CostWrite is one buffered write's commit application.
	CostWrite = 350 * time.Nanosecond
	// CostTxnOverhead is per-transaction bookkeeping (generation, TID, ...).
	CostTxnOverhead = 1200 * time.Nanosecond
	// CostMsgHandling is handling one network message.
	CostMsgHandling = 1500 * time.Nanosecond
	// CostApplyEntry is applying one replication entry.
	CostApplyEntry = 400 * time.Nanosecond
	// CostLogPerKB is the CPU+IO cost per KiB written to the recovery log.
	CostLogPerKB = 2 * time.Microsecond
)

// ExecCost is the virtual CPU cost of executing one transaction that
// performed the given record reads and buffered writes.
func ExecCost(reads, writes int) time.Duration {
	return CostTxnOverhead + time.Duration(reads)*CostRead + time.Duration(writes)*CostWrite
}

// Config parameterises a STAR cluster.
type Config struct {
	RT             rt.Runtime
	Nodes          int // f + k
	FullReplicas   int // f (≥1); node ids [0,f) hold full copies
	WorkersPerNode int
	Workload       workload.Workload

	// Transport is the network the engine sends and receives on
	// (endpoints 0..Nodes-1 are the nodes, endpoint Nodes is the
	// coordinator). Nil selects the default simulated network,
	// simnet.DefaultConfig(Nodes+1, Seed); multi-process clusters pass a
	// tcpnet.Network, and a caller that wants another simulated network
	// builds it and passes it here.
	Transport transport.Transport

	// LocalNodes restricts which node ids this process hosts (nil =
	// all of them, the single-process default). Remote nodes are
	// reachable only through Transport; Engine methods that inspect
	// node state (DB, Node, CheckReplicaConsistency, LogFiles) cover
	// local nodes only.
	LocalNodes []int

	// LocalCoordinator runs the phase coordinator in this process.
	// Ignored (always true) when LocalNodes is nil; exactly one process
	// of a multi-process cluster must set it.
	LocalCoordinator bool

	// Members lists the node ids that are live cluster members at boot
	// (nil = every id in [0,Nodes)). Nodes is the provisioned capacity:
	// every id gets a transport endpoint, but only members hold data,
	// master partitions, and run phases. Dark slots join later through
	// the admin API (AdminJoin) and catch up at an epoch fence.
	Members []int

	// ClientAddrs lists every slot's client front-door address
	// (host:port), indexed by node id, for AdminTopologyGet responses —
	// how clients discover the doors of nodes added after they dialed.
	// Empty entries mean "no front door on that slot".
	ClientAddrs []string

	// Iteration is the phase-switch iteration time e (τp+τs); the paper
	// defaults to 10ms.
	Iteration time.Duration

	// SyncRepl makes the single-master phase hold write locks until all
	// replicas ack each transaction's writes (the SYNC STAR baseline of
	// Fig 15a). Default is asynchronous replication + fence. What ships
	// is not configurable: ops or rows by worker.emitEntries' rule, or
	// under SyncRepl the rows (commitSync's replication.ValueEntries).
	SyncRepl bool

	// LogDir, when non-empty, turns on value logging with fence flushes:
	// every worker, applier and router writes a recovery log (§4.5.1)
	// under this directory, charged at CostLogPerKB of virtual time
	// (Fig 15b), from which wal.Recover can rebuild a node's database
	// (§4.5.3 case 4). A node logs iff it has a log directory.
	LogDir string

	// Checkpoint enables a dedicated checkpointing process per node
	// (§4.5.1): every checkpointEvery iterations it writes a fuzzy
	// snapshot to LogDir, rotates every logger onto a fresh segment, and
	// deletes segments (and the superseded checkpoint) covered by the new
	// snapshot — restart replay stays bounded by checkpoint cadence
	// instead of run length. Requires LogDir.
	Checkpoint bool

	// ReadCommitted runs single-master transactions under READ COMMITTED
	// instead of serializability (§3: read validation is skipped).
	ReadCommitted bool

	// SnapshotReads executes read-only transactions (txn.IsReadOnly)
	// against the latest epoch-fenced replica state on whatever node
	// generated them, instead of routing them to the master: each read
	// resolves to the record's pre-epoch version when the record was
	// written in the in-flight epoch, which is exactly the consistent
	// snapshot the last replication fence installed on every replica
	// (SCAR-style consistent reads from asynchronously replicated state).
	// A node that does not hold every partition the transaction touches
	// falls back to master routing (counted in Stats as
	// snapshot_fallbacks). Results release immediately — snapshot reads
	// observe only group-committed state, so they skip the group-commit
	// wait entirely.
	SnapshotReads bool

	// Trace, when non-nil, receives one JSON line per committed epoch
	// from the coordinator (core.TraceEvent: epoch, phase kind, phase and
	// fence durations, per-node commit deltas, backlog, fault-injection
	// counters, topology version). Only the process hosting the
	// coordinator emits; writes happen on the coordinator goroutine
	// between fences, off every hot path. star-node -trace points this at
	// a file; the chaos/gc soaks at an in-memory buffer.
	Trace io.Writer

	Seed int64
}

// DefaultFlushBytes is where every destination's replication byte
// threshold starts: large enough to amortise per-message routing cost
// over dozens of entries (paper-scale TPC-C ships ~8x fewer messages per
// commit than 16-entry flushing), small enough that replica application
// keeps overlapping the phase instead of bursting into the fence drain.
// Every epoch re-sizes it from the previous epoch's measured write volume
// (growth only; see replication.Limits.Adaptive). With the fence flush
// this makes a partitioned-phase epoch ship O(destinations) envelopes
// instead of O(writes) messages.
const DefaultFlushBytes = 16 << 10

// DefaultFlushEntries is the entry bound: what a replica still owes at
// the fence is apply and log work per entry, not per byte. 16 KiB is ~110
// YCSB rows but ~380 operation entries, 3-4× the work buffered at the
// sender when a phase ends (measured: +4 % commit p50 without it).
const DefaultFlushEntries = 128

func (c Config) withDefaults() Config {
	if c.FullReplicas == 0 {
		c.FullReplicas = 1
	}
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = 4
	}
	if c.Iteration == 0 {
		c.Iteration = 10 * time.Millisecond
	}
	return c
}

// streamLimits bounds every worker's replication stream: an adaptive byte
// threshold starting at DefaultFlushBytes, and DefaultFlushEntries.
func streamLimits() replication.Limits {
	return replication.Limits{Entries: DefaultFlushEntries, Bytes: DefaultFlushBytes, Adaptive: true}
}

// NumPartitions returns the cluster partition count (workers == owned
// partitions per node, matching §7.1: "the number of partitions equal to
// the total number of worker threads").
func (c Config) NumPartitions() int { return c.Nodes * c.WorkersPerNode }

// coordID is the simnet endpoint index used by the phase coordinator.
func (c Config) coordID() int { return c.Nodes }
