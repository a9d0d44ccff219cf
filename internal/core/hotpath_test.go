package core

import (
	"testing"
	"time"

	"star/internal/replication"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/txn"
	"star/internal/workload/ycsb"
)

// newHotPathHarness builds an unstarted 2-node cluster on the real
// runtime so a test can drive node 0's worker 0 synchronously: no
// coordinator, no phase switching — just the per-transaction execution
// path the workers run in steady state. Node 1 is marked down so flushed
// envelopes are dropped at the network instead of piling up in an
// undrained inbox (the send path is still fully exercised).
func newHotPathHarness(records int) (*Engine, *worker) {
	wl := ycsb.New(ycsb.Config{
		Partitions:          2, // Nodes × WorkersPerNode
		RecordsPerPartition: records,
	})
	r := rt.NewReal()
	e := build(Config{
		RT:             r,
		Nodes:          2,
		FullReplicas:   1,
		WorkersPerNode: 1,
		Workload:       wl,
		Seed:           1,
		Transport:      simnet.New(r, simnet.Config{Nodes: 3}),
	})
	e.net.SetDown(1, true)
	w := e.nodes[0].workers[0]
	w.strm.SetEpoch(2)
	return e, w
}

// singleReq pre-builds a single-partition request on partition 0 (the
// partition node 0's worker masters).
func singleReq(w *worker) *txn.Request {
	return txn.NewRequest(w.gen.Single(0), 0)
}

// TestExecSerialZeroAllocs pins the tentpole claim: a steady-state
// single-partition commit (no insert) allocates nothing — not in the
// context, the read/write set, the commit, the replication append, or
// the monitor bookkeeping. Request generation is measured separately
// (it builds a fresh procedure by design).
func TestExecSerialZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newHotPathHarness(1024)
	req := singleReq(w)
	w.execSerial(req, 2) // warm the scratch buffers
	allocs := testing.AllocsPerRun(10_000, func() {
		w.execSerial(req, 2)
	})
	if allocs != 0 {
		t.Fatalf("execSerial allocates %v per committed transaction, want 0", allocs)
	}
	if w.committed == 0 {
		t.Fatal("no commits — the measurement exercised nothing")
	}
}

// TestExecOCCAllocBudget pins the single-master path: with the write-set
// sort, validation, apply and replication all reusing worker scratch, a
// steady-state OCC commit stays within a one-allocation budget
// (AllocsPerRun floors the average, so this allows only stray amortised
// growth, not per-commit allocation).
func TestExecOCCAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	_, w := newHotPathHarness(1024)
	cmd := msgStartPhase{Phase: SingleMaster, Epoch: 2, Deadline: time.Hour}
	reqs := make([]*txn.Request, 64)
	for i := range reqs {
		reqs[i] = txn.NewRequest(w.gen.Cross(i%2), 0)
	}
	for _, r := range reqs {
		w.execOCC(r, cmd)
	}
	i := 0
	allocs := testing.AllocsPerRun(10_000, func() {
		w.execOCC(reqs[i%len(reqs)], cmd)
		i++
	})
	if allocs > 1 {
		t.Fatalf("execOCC allocates %v per committed transaction, budget 1", allocs)
	}
}

// TestFullMasterQueueRejectsRequeue: an attempt that aborts past the
// phase deadline goes back to the master queue through admission, so on
// a queue the routers have filled it is rejected instead of blocking
// the worker — one of the queue's only consumers — for good.
func TestFullMasterQueueRejectsRequeue(t *testing.T) {
	e, w := newHotPathHarness(16)
	filler := singleReq(w)
	for w.n.masterQ.TrySend(filler) {
	}
	rejected := e.rejected.Load()
	// A read of a row past the table aborts every attempt, and deadline 0
	// has passed at the first.
	req := txn.NewRequest(e.cfg.Workload.(*ycsb.Workload).ReadTxn([]int{0}, []int{16}), 0)
	done := make(chan struct{})
	go func() {
		w.execOCC(req, msgStartPhase{Phase: SingleMaster, Epoch: 2})
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("execOCC blocked requeueing onto a full master queue")
	}
	if got := e.rejected.Load() - rejected; got != 1 {
		t.Fatalf("requeue onto a full master queue rejected %d requests, want 1", got)
	}
}

// TestPartitionedPhaseFlushesItsTail: in the last two one-way latencies
// of a timed phase the worker ships what it has buffered while the phase
// still runs. The worker's stream here has no flush threshold, so only
// that tail flush can put entries on the tracker's sent vector before
// runPartitioned returns (the fence flush comes after, in loop).
func TestPartitionedPhaseFlushesItsTail(t *testing.T) {
	e, w := newHotPathHarness(1024)
	w.strm = replication.NewStream(e.net, w.n.tracker, w.n.id, replication.Limits{})
	w.strm.SetEpoch(2)
	now := e.cfg.RT.Now()
	w.runPartitioned(msgStartPhase{Phase: Partitioned, Epoch: 2, Deadline: now + 50*time.Millisecond, Lat: 20 * time.Millisecond}, 0)
	if w.committed == 0 {
		t.Fatal("the phase committed nothing")
	}
	if sent := w.n.tracker.SentVector()[1]; sent == 0 {
		t.Fatal("nothing was shipped to node 1 before the phase returned: no fence-tail flush")
	}
}

// BenchmarkExecSerial measures the partitioned-phase commit path:
// generate-free, steady-state, single-partition YCSB transactions
// against the real runtime. Run with -benchmem; the acceptance bar is
// 0 allocs/op.
func BenchmarkExecSerial(b *testing.B) {
	_, w := newHotPathHarness(8192)
	reqs := make([]*txn.Request, 128)
	for i := range reqs {
		reqs[i] = singleReq(w)
	}
	for _, r := range reqs {
		w.execSerial(r, 2) // warm scratch + first-touch dirty marks
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.execSerial(reqs[i%len(reqs)], 2)
		if i%4096 == 4095 {
			w.strm.Flush() // bounded buffering; envelopes drop at the downed link
		}
	}
}

// BenchmarkExecSerialWithGen includes request generation and routing —
// the full runPartitioned loop body for a single-partition transaction.
func BenchmarkExecSerialWithGen(b *testing.B) {
	_, w := newHotPathHarness(8192)
	w.execSerial(singleReq(w), 2)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.req.ResetFor(w.gen.Single(0), 0)
		w.execSerial(&w.req, 2)
		if i%4096 == 4095 {
			w.strm.Flush()
		}
	}
}

// BenchmarkExecOCC measures the single-master OCC commit path (lock,
// validate, apply, release, replicate) on pre-generated cross-partition
// transactions with no concurrent conflicts.
func BenchmarkExecOCC(b *testing.B) {
	_, w := newHotPathHarness(8192)
	cmd := msgStartPhase{Phase: SingleMaster, Epoch: 2, Deadline: time.Hour}
	reqs := make([]*txn.Request, 128)
	for i := range reqs {
		reqs[i] = txn.NewRequest(w.gen.Cross(i%2), 0)
	}
	for _, r := range reqs {
		w.execOCC(r, cmd)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.execOCC(reqs[i%len(reqs)], cmd)
		if i%4096 == 4095 {
			w.strm.Flush()
		}
	}
}
