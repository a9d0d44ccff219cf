// Package baseline implements the comparison systems of the paper's
// evaluation (§7.1.2): PB. OCC (primary/backup non-partitioned Silo),
// Dist. OCC (distributed OCC), Dist. S2PL (distributed strict 2PL with
// NO_WAIT), and Calvin (deterministic execution with Calvin-x lock
// managers) — each under synchronous replication or asynchronous
// replication + epoch-based group commit.
package baseline

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"time"

	"star/internal/metrics"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/workload"
)

// groupCommitEvery is the asynchronous engines' group-commit interval
// (the paper's 10 ms epoch).
const groupCommitEvery = 10 * time.Millisecond

// Config parameterises a baseline cluster.
type Config struct {
	RT             rt.Runtime
	Nodes          int
	WorkersPerNode int
	Workload       workload.Workload
	Net            simnet.Config

	// SyncRepl selects synchronous replication (with 2PC for the
	// distributed engines); otherwise asynchronous replication with an
	// epoch-based group commit every groupCommitEvery.
	SyncRepl bool

	// LockManagers is Calvin-x's x (ignored by other engines).
	LockManagers int
	// BatchSize is Calvin's per-node sequencer batch (0 = auto).
	BatchSize int

	Seed int64
}

func (c Config) withDefaults() Config {
	if c.WorkersPerNode == 0 {
		c.WorkersPerNode = 4
	}
	if c.LockManagers == 0 {
		c.LockManagers = 2
	}
	if c.Net.Nodes == 0 {
		c.Net = simnet.DefaultConfig(c.Nodes+1, c.Seed) // +1 endpoint for the sequencer/ticker
	}
	return c
}

// NumPartitions mirrors §7.1: partitions == total workers.
func (c Config) NumPartitions() int { return c.Nodes * c.WorkersPerNode }

// MasterOf maps partitions to nodes block-wise.
func (c Config) MasterOf(p int) int { return p / c.WorkersPerNode }

// BackupOf is the partition's replica node (replication factor 2,
// primary and secondary on different nodes, §7.1.3).
func (c Config) BackupOf(p int) int { return (c.MasterOf(p) + 1) % c.Nodes }

// HoldsMask returns the partitions node materialises (masters + backups).
func (c Config) HoldsMask(node int) []bool {
	mask := make([]bool, c.NumPartitions())
	for p := range mask {
		mask[p] = c.MasterOf(p) == node || c.BackupOf(p) == node
	}
	return mask
}

func (c Config) tickerID() int { return c.Nodes }

// stats is the shared metrics bundle.
type stats struct {
	committed  metrics.Counter
	aborted    metrics.Counter
	userAborts metrics.Counter
	latency    *metrics.Hist
	frozen     atomic.Bool
}

// pause sleeps briefly when the engine is frozen, returning true if the
// caller should skip generating work (tests quiesce engines this way).
func (s *stats) pause(r rt.Runtime) bool {
	if s.frozen.Load() {
		r.Sleep(time.Millisecond)
		return true
	}
	return false
}

// snapshot publishes the bundle under the names the STAR engine's
// registry uses, so one constructor (metrics.Snapshot.Stats) reads both.
func (s *stats) snapshot(name string, r rt.Runtime, net transport.Transport) metrics.Stats {
	return metrics.Snapshot{
		Counters: map[string]int64{
			"committed":   s.committed.Load(),
			"aborted":     s.aborted.Load(),
			"user_aborts": s.userAborts.Load(),
		},
		Gauges: map[string]int64{
			"repl_bytes": net.Bytes(transport.Replication),
			"repl_msgs":  net.Messages(transport.Replication),
			"net_bytes":  net.TotalBytes(),
		},
		Hists: map[string]metrics.HistSnapshot{"latency": s.latency.Snapshot()},
	}.Stats(name, r.Now())
}

// bnode is the per-node state shared by the distributed baselines.
type bnode struct {
	id      int
	db      *storage.DB
	tracker *replication.Tracker
	net     transport.Transport
	// onDrainMsg handles engine-specific messages that arrive while the
	// node is blocked in a group-commit drain.
	onDrainMsg func(any)

	// mu guards pendingLat on the real runtime.
	mu         sync.Mutex
	pendingLat []int64
}

func (n *bnode) addPending(genAt int64) {
	n.mu.Lock()
	n.pendingLat = append(n.pendingLat, genAt)
	n.mu.Unlock()
}

func (n *bnode) release(now time.Duration, lat *metrics.Hist) {
	n.mu.Lock()
	pend := n.pendingLat
	n.pendingLat = nil
	n.mu.Unlock()
	for _, g := range pend {
		lat.Observe(time.Duration(int64(now) - g))
	}
}

// ---- common wire messages ----

type rpcKind uint8

const (
	rpcRead rpcKind = iota
	rpcLockRead
	rpcLockValidate
	rpcCommitWrites
	rpcAbort
	rpcPrepare
	rpcIndexLookup
)

// rpcReq is a generic engine RPC. Payload is the wire-encoded,
// kind-specific payload (see payloads.go) — no in-process pointers, so
// the message set is wire-encodable; Size derives from the actual
// encoded length.
type rpcReq struct {
	Kind    rpcKind
	From    int // node
	Worker  int
	Seq     uint64
	Payload []byte
}

func (m *rpcReq) Size() int { return 16 + len(m.Payload) }

type rpcResp struct {
	Worker  int
	Seq     uint64
	OK      bool
	Payload []byte
}

func (m *rpcResp) Size() int { return 16 + len(m.Payload) }

// mustDecode unwraps an RPC payload decode. The baselines run their
// RPCs in-process, so a malformed payload is a programming error, not
// input: fail loudly.
func mustDecode[T any](v T, err error) T {
	if err != nil {
		panic("baseline: decode rpc payload: " + err.Error())
	}
	return v
}

// tickMsgs drive the epoch-based group commit for async variants.
type msgTickDone struct {
	Node  int
	Epoch uint64
	Sent  []int64
}

func (m msgTickDone) Size() int { return 24 + 8*len(m.Sent) }

type msgTickDrain struct {
	Epoch    uint64
	Expected []int64
}

func (m msgTickDrain) Size() int { return 16 + 8*len(m.Expected) }

type msgTickAck struct {
	Node  int
	Epoch uint64
}

func (msgTickAck) Size() int { return 16 }

type msgTick struct{ Epoch uint64 }

func (msgTick) Size() int { return 16 }

// epochTicker runs the group-commit protocol for the async baselines: a
// fence every groupCommitEvery (drain replication streams, then release
// results), mirroring Silo's epoch design as the paper's baselines do.
type epochTicker struct {
	cfg   Config
	net   transport.Transport
	nodes []*bnode
	lat   *metrics.Hist
	// epochNow is read by workers to stamp TIDs.
	mu    sync.Mutex
	epoch uint64
}

func newEpochTicker(cfg Config, net transport.Transport, nodes []*bnode, lat *metrics.Hist) *epochTicker {
	return &epochTicker{cfg: cfg, net: net, nodes: nodes, lat: lat, epoch: 2}
}

func (t *epochTicker) Epoch() uint64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.epoch
}

func (t *epochTicker) bump() uint64 {
	t.mu.Lock()
	t.epoch++
	e := t.epoch
	t.mu.Unlock()
	return e
}

// loop drives ticks from the dedicated ticker endpoint. The node routers
// answer the fence messages (see nodeFence).
func (t *epochTicker) loop() {
	r := t.cfg.RT
	in := t.net.Inbox(t.cfg.tickerID())
	for {
		r.Sleep(groupCommitEvery)
		epoch := t.Epoch()
		for i := range t.nodes {
			t.net.Send(t.cfg.tickerID(), i, transport.Control, msgTick{Epoch: epoch})
		}
		// Gather sent vectors.
		done := map[int]msgTickDone{}
		deadline := r.Now() + 10*groupCommitEvery
		for len(done) < len(t.nodes) && r.Now() < deadline {
			m, ok := in.RecvTimeout(deadline - r.Now())
			if !ok {
				break
			}
			if d, isDone := m.(msgTickDone); isDone && d.Epoch == epoch {
				done[d.Node] = d
			}
		}
		// Drain phase.
		for i := range t.nodes {
			expected := make([]int64, len(t.nodes))
			for src, d := range done {
				expected[src] = d.Sent[i]
			}
			t.net.Send(t.cfg.tickerID(), i, transport.Control, msgTickDrain{Epoch: epoch, Expected: expected})
		}
		acks := 0
		deadline = r.Now() + 10*groupCommitEvery
		for acks < len(t.nodes) && r.Now() < deadline {
			m, ok := in.RecvTimeout(deadline - r.Now())
			if !ok {
				break
			}
			if a, isAck := m.(msgTickAck); isAck && a.Epoch == epoch {
				acks++
			}
		}
		t.bump()
	}
}

// rpcPort is a worker's private response channel registry entry.
type rpcPort struct {
	resp rt.Chan
	seq  uint64
}

func newRPCPort(r rt.Runtime) *rpcPort { return &rpcPort{resp: r.NewChan(16)} }

// call performs a blocking RPC from worker w on node src to node dst.
// Handling happens in the destination's router process.
func (p *rpcPort) call(net transport.Transport, src, dst, worker int, kind rpcKind, payload []byte) *rpcResp {
	p.seq++
	net.Send(src, dst, transport.Data, &rpcReq{
		Kind: kind, From: src, Worker: worker, Seq: p.seq, Payload: payload,
	})
	for {
		v, ok := p.resp.RecvTimeout(time.Second)
		if !ok {
			return &rpcResp{OK: false}
		}
		resp := v.(*rpcResp)
		if resp.Seq == p.seq {
			return resp
		}
	}
}

// workerSeed derives a deterministic per-worker seed.
func workerSeed(base int64, node, worker int) int64 {
	return base*1_000_003 + int64(node)*257 + int64(worker) + 1
}

func newRNG(base int64, node, worker int) *rand.Rand {
	return rand.New(rand.NewSource(workerSeed(base, node, worker) ^ 0x5eed))
}

func procName(kind string, node, worker int) string {
	return fmt.Sprintf("%s-%d-%d", kind, node, worker)
}
