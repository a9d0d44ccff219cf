package core

import (
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"star/internal/occ"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/txn"
	"star/internal/wal"
	"star/internal/workload/tpcc"
)

// Operation replication carries every partitioned-phase update and a
// record's first single-master write of an epoch. Its deltas (AddInt64,
// AddFloat64, Prepend) are not idempotent by themselves; only the Thomas
// rule's TID guard keeps a re-delivered or overtaken one from landing.
// These tests walk it through the fault paths — revert and retry, log
// recovery, fence reads, master failover, envelopes of the master's OCC
// workers crossing — on TPC-C, whose Payment and NewOrder carry all three
// delta kinds.

func opReplTPCC(nparts int) *tpcc.Workload {
	return tpcc.New(tpcc.Config{
		Warehouses:           nparts,
		Districts:            2,
		CustomersPerDistrict: 32,
		Items:                64,
	})
}

// newOpReplHarness builds an unstarted 2-node TPC-C cluster on the real
// runtime (as newFenceHarness does): the test drives node 0's worker —
// the master of partition 0 — synchronously and plays node 1's router,
// feeding it the envelopes node 0's stream shipped. Node 1 is the partial
// replica holding partition 0 as a secondary. The worker's stream flushes
// every four entries, so an epoch is many envelopes.
func newOpReplHarness(t *testing.T) (master *worker, replica *node) {
	t.Helper()
	r := rt.NewReal()
	e := build(Config{
		RT:             r,
		Nodes:          2,
		WorkersPerNode: 1,
		Workload:       opReplTPCC(2),
		Seed:           7,
		Transport:      simnet.New(r, simnet.Config{Nodes: 3}),
	})
	t.Cleanup(e.cfg.RT.(*rt.Real).Stop)
	w := e.nodes[0].workers[0]
	w.strm = replication.NewStream(e.net, w.n.tracker, w.n.id, replication.Limits{Entries: 4})
	return w, e.nodes[1]
}

// applyNow plays one of n's appliers on the calling goroutine: the
// harness's nodes are unstarted, so no applier loop is there to take the
// envelope from the router.
func applyNow(n *node, b *msgReplBatch) {
	n.applyEntries(&applier{}, b.From, b.Epoch, b.Entries)
}

// singlePartitionTxns draws n single-partition update transactions for
// the worker's partition.
func singlePartitionTxns(w *worker, n int) []*txn.Request {
	reqs := make([]*txn.Request, n)
	for i := range reqs {
		reqs[i] = txn.NewRequest(w.gen.Single(w.n.ownedPartitions(w.idx)[0]), 0)
	}
	return reqs
}

// runEpoch commits reqs on the master in epoch and returns the envelopes
// its stream shipped to the replica, in link order.
func runEpoch(t *testing.T, w *worker, replica *node, epoch uint64, reqs []*txn.Request) []*msgReplBatch {
	t.Helper()
	before := w.n.tracker.SentVector()[replica.id]
	w.strm.SetEpoch(epoch)
	for _, r := range reqs {
		w.execSerial(r, epoch)
	}
	w.strm.Flush()
	want := w.n.tracker.SentVector()[replica.id] - before
	var out []*msgReplBatch
	for got := int64(0); got < want; {
		m, ok := replica.inbox().RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("replica received %d of %d entries", got, want)
		}
		b := m.(*msgReplBatch)
		out = append(out, b)
		got += int64(len(b.Entries))
	}
	return out
}

func countOpEntries(batches []*msgReplBatch) (ops, deltas int) {
	for _, b := range batches {
		for i := range b.Entries {
			if !b.Entries[i].IsOp() {
				continue
			}
			ops++
			for _, op := range b.Entries[i].Ops {
				if op.Kind == storage.OpAddInt64 || op.Kind == storage.OpAddFloat64 || op.Kind == storage.OpPrepend {
					deltas++
				}
			}
		}
	}
	return ops, deltas
}

// (a) A partitioned epoch whose deltas were partly applied on the replica
// is reverted and retried: the revert must take the replica back to
// exactly the pre-epoch state (deltas undone, not merely overwritten),
// and the retry must apply every delta once. The last step applies one
// envelope a second time to show the checksums would tell.
func TestOpReplicationRevertAndRetryAppliesDeltasOnce(t *testing.T) {
	w, replica := newOpReplHarness(t)
	master := w.n
	sum := func(n *node) uint64 { return n.db.PartitionChecksum(0) }
	base := sum(master)
	if sum(replica) != base {
		t.Fatal("replicas differ after load")
	}

	reqs := singlePartitionTxns(w, 40)
	batches := runEpoch(t, w, replica, 2, reqs)
	if ops, deltas := countOpEntries(batches); ops == 0 || deltas == 0 || len(batches) < 4 {
		t.Fatalf("epoch shipped %d envelopes, %d operation entries, %d deltas: too few to exercise the path", len(batches), ops, deltas)
	}
	// The failure: the replica applied the first half of the stream.
	for _, b := range batches[:len(batches)/2] {
		applyNow(replica, b)
	}
	if sum(replica) == base {
		t.Fatal("half an epoch applied and the replica's checksum did not move")
	}
	revert := msgRevert{Epoch: 2}
	master.handle(revert)
	replica.handle(revert)
	if sum(master) != base || sum(replica) != base {
		t.Fatalf("revert did not restore the pre-epoch state: master %x replica %x want %x", sum(master), sum(replica), base)
	}

	// The retry re-executes the same transactions under fresh TIDs.
	retried := runEpoch(t, w, replica, 2, reqs)
	for _, b := range retried {
		applyNow(replica, b)
	}
	if sum(master) == base {
		t.Fatal("the retried epoch changed nothing")
	}
	if sum(replica) != sum(master) {
		t.Fatalf("replica diverged after revert and retry: %x vs master %x", sum(replica), sum(master))
	}

	// A re-delivered envelope is refused: an operation entry lands only
	// over an older TID, so deltas are idempotent on the replica.
	var redo *msgReplBatch
	var delta *replication.Entry
	for _, b := range retried {
		for i := range b.Entries {
			if _, d := countOpEntries([]*msgReplBatch{{Entries: b.Entries[i : i+1]}}); d > 0 && delta == nil {
				redo, delta = b, &b.Entries[i]
			}
		}
	}
	applyNow(replica, redo)
	if sum(replica) != sum(master) {
		t.Fatalf("a re-delivered envelope changed the replica: %x vs master %x", sum(replica), sum(master))
	}
	// Negative control: the same delta landed a second time past the
	// Thomas rule, straight through Table.Land, is visible.
	tbl := replica.db.Table(delta.Table)
	rec := tbl.Get(int(delta.Part), delta.Key)
	rec.Lock()
	_, err := tbl.Land(int(delta.Part), delta.Key, rec, 2, delta.TID, delta.Write())
	rec.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	if sum(replica) == sum(master) {
		t.Fatal("a double-applied delta left the checksum unchanged: this test cannot see what it guards")
	}
}

// (e) One envelope with operation entries for two applier shards goes
// through the real codec and node.applyBatch: the decoder carves every
// entry's Ops from one shared slice, applyBatch copies the entries into
// per-shard slices, and each shard must still apply exactly its own ops.
func TestOpReplicationMultiShardBatchThroughCodec(t *testing.T) {
	r := rt.NewReal()
	e := build(Config{
		RT:             r,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       opReplTPCC(4),
		Seed:           7,
		Transport:      simnet.New(r, simnet.Config{Nodes: 3}),
	})
	t.Cleanup(e.cfg.RT.(*rt.Real).Stop)
	master, replica := e.nodes[0], e.nodes[1]
	// Node 0's two workers master partitions 0 and 1; interleave their
	// epochs' entries into one envelope (each partition's order kept).
	var perWorker [2][]replication.Entry
	for i, w := range master.workers {
		for _, b := range runEpoch(t, w, replica, 2, singlePartitionTxns(w, 20)) {
			perWorker[i] = append(perWorker[i], b.Entries...)
		}
	}
	merged := &msgReplBatch{From: 0, Epoch: 2}
	for i := 0; i < len(perWorker[0]) || i < len(perWorker[1]); i++ {
		for _, es := range perWorker {
			if i < len(es) {
				merged.Entries = append(merged.Entries, es[i])
			}
		}
	}
	decoded, err := replication.DecodeBatch(replication.AppendBatch(nil, merged))
	if err != nil {
		t.Fatal(err)
	}

	replica.appliers = []rt.Chan{e.cfg.RT.NewChan(4), e.cfg.RT.NewChan(4)}
	replica.applyBatch(decoded)
	for sh, ch := range replica.appliers {
		v, ok := ch.TryRecv()
		if !ok {
			t.Fatalf("applier shard %d got no share of the envelope", sh)
		}
		ab := v.(applierBatch)
		if ops, _ := countOpEntries([]*msgReplBatch{{Entries: ab.entries}}); ops == 0 {
			t.Fatalf("applier shard %d got no operation entries", sh)
		}
		replica.applyEntries(&applier{}, ab.from, ab.epoch, ab.entries)
	}
	for p := 0; p < 2; p++ {
		if got, want := replica.db.PartitionChecksum(p), master.db.PartitionChecksum(p); got != want {
			t.Fatalf("partition %d: replica %x != master %x", p, got, want)
		}
	}
}

// (c) A snapshot read at fence E on the replica, racing the appliers that
// install epoch E+1's operation entries on the same records, returns E's
// value every time: the first delta of the epoch saves the fence version
// under the record latch before it touches the row.
func TestOpReplicationSnapshotReadAtFenceDuringApply(t *testing.T) {
	w, replica := newOpReplHarness(t)
	for _, b := range runEpoch(t, w, replica, 2, singlePartitionTxns(w, 20)) {
		applyNow(replica, b)
	}
	// Fence: epoch 2 commits on both nodes.
	for _, n := range []*node{w.n, replica} {
		n.db.CommitEpochBefore(3)
		n.epoch.Store(3)
	}
	// Epoch 3 keeps writing the same few rows (warehouse, districts).
	batches := runEpoch(t, w, replica, 3, singlePartitionTxns(w, 60))

	type fenceRow struct {
		e   *msgReplBatch
		i   int
		val []byte
	}
	// What fence 2 holds for every row epoch 3 updates, read before any of
	// epoch 3 is applied here.
	var rows []fenceRow
	seen := map[storage.Key]bool{}
	for _, b := range batches {
		for i := range b.Entries {
			en := &b.Entries[i]
			if !en.IsOp() || seen[en.Key] {
				continue
			}
			seen[en.Key] = true
			v, _, _ := replica.db.Table(en.Table).Get(int(en.Part), en.Key).ReadStable(nil)
			rows = append(rows, fenceRow{b, i, append([]byte(nil), v...)})
		}
	}
	if len(rows) == 0 {
		t.Fatal("epoch 3 shipped no operation entries")
	}

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for _, b := range batches {
			applyNow(replica, b)
		}
	}()
	sctx := &replica.workers[0].lctx
	for round := 0; round < 200; round++ {
		sctx.Reset()
		sctx.Fence = 3
		for _, r := range rows {
			en := &r.e.Entries[r.i]
			got, ok := sctx.Read(en.Table, int(en.Part), en.Key)
			if !ok || string(got) != string(r.val) {
				t.Fatalf("round %d: fence-2 read of %v saw a different row while epoch 3 was applying", round, en.Key)
			}
		}
	}
	wg.Wait()
	// Applied in full, the current version has moved on and the fence
	// read still has not.
	sctx.Reset()
	sctx.Fence = 3
	moved := false
	for _, r := range rows {
		en := &r.e.Entries[r.i]
		cur, _, _ := replica.db.Table(en.Table).Get(int(en.Part), en.Key).ReadStable(nil)
		moved = moved || string(cur) != string(r.val)
		if got, _ := sctx.Read(en.Table, int(en.Part), en.Key); string(got) != string(r.val) {
			t.Fatalf("fence-2 read of %v changed once epoch 3 was applied", en.Key)
		}
	}
	if !moved {
		t.Fatal("epoch 3 changed none of the rows it shipped operations for")
	}
	if replica.db.PartitionChecksum(0) != w.n.db.PartitionChecksum(0) {
		t.Fatal("replica diverged from the master")
	}
}

// (b) The partial replica logs whole records although it was fed deltas
// (§5's op→value transformation), so its log replays in ANY order: every
// entry of node 1's log files, shuffled into one file, recovers a database
// equal to the live one.
func TestOpReplicationLogRecoversInAnyOrder(t *testing.T) {
	dir := t.TempDir()
	s := rt.NewSim()
	wl := opReplTPCC(4)
	e := New(Config{
		RT:             s,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		LogDir:         dir,
		Seed:           11,
	})
	s.Run(40 * time.Millisecond)
	settle(s, e, 20*time.Millisecond)
	s.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	if c := e.StatsSnapshot().Counters; c["repl_op_entries"] == 0 {
		t.Fatal("the run replicated no operation entries")
	}

	var entries []replication.Entry
	var marks []uint64
	for _, path := range e.LogFiles(1) {
		frames, err := readLog(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range frames {
			if len(b.Entries) == 0 {
				marks = append(marks, b.Epoch)
			}
			entries = append(entries, b.Entries...)
		}
	}
	rand.New(rand.NewSource(5)).Shuffle(len(entries), func(i, j int) { entries[i], entries[j] = entries[j], entries[i] })
	shuffled := filepath.Join(dir, "node1-shuffled.log")
	lg, err := wal.Create(shuffled)
	if err != nil {
		t.Fatal(err)
	}
	writes := 0
	for i, en := range entries {
		if !en.Absent {
			writes++
		}
		if err := lg.AppendWrite(en.Table, en.Part, en.Key, en.TID, en.Absent, en.Row); err != nil {
			t.Fatal(err)
		}
		if i%64 == 63 {
			lg.Flush(false)
		}
	}
	for _, m := range marks {
		if err := lg.AppendEpochMark(m); err != nil {
			t.Fatal(err)
		}
	}
	if err := lg.Close(); err != nil {
		t.Fatal(err)
	}
	if writes == 0 {
		t.Fatal("node 1 logged no writes")
	}

	holds := e.Topology().HoldsMask(1)
	recovered := wl.BuildDB(4, holds)
	wl.Load(recovered)
	if _, applied, err := wal.Recover(recovered, "", []string{shuffled}); err != nil || applied == 0 {
		t.Fatalf("recover: applied=%d err=%v", applied, err)
	}
	for p, h := range holds {
		if !h {
			continue
		}
		if got, want := recovered.PartitionChecksum(p), e.DB(1).PartitionChecksum(p); got != want {
			t.Fatalf("partition %d: shuffled recovery %x != live replica %x", p, got, want)
		}
	}
}

// (d) A partition's master fails mid-run: the epoch is reverted, the
// secondary — whose copy was built from deltas — takes over mastership and
// keeps committing on top of it, and once the failed node rejoins (a
// snapshot taken at a quiesced fence, then deltas again) every holder
// agrees.
func TestOpReplicationMasterFailoverContinuesFromAppliedState(t *testing.T) {
	s := rt.NewSim()
	defer s.Stop()
	e := New(Config{
		RT:             s,
		Nodes:          3,
		WorkersPerNode: 1,
		Workload:       opReplTPCC(3),
		Iteration:      2 * time.Millisecond,
		Seed:           13,
	})
	// Node 2 masters partition 2; node 0 holds its other copy.
	commits := func() int64 {
		return e.StatsSnapshot().Gauges[`partition_commits{partition="2"}`]
	}
	s.Run(20 * time.Millisecond)
	if commits() == 0 {
		t.Fatal("node 2's partition committed nothing before the failure")
	}
	e.FailNode(2)
	s.Run(s.Now() + 50*time.Millisecond)
	if halted, why := e.Halted(); halted {
		t.Fatalf("cluster halted: %s", why)
	}
	atFailover := commits()
	s.Run(s.Now() + 20*time.Millisecond)
	if commits() <= atFailover {
		t.Fatalf("the re-mastered partition stopped committing at %d", atFailover)
	}

	e.RequestJoin(2)
	s.Run(s.Now() + 60*time.Millisecond)
	if f := e.FailedNodes(); len(f) != 0 {
		t.Fatalf("node 2 did not rejoin: failed=%v", f)
	}
	settle(s, e, 20*time.Millisecond)
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	if c := e.StatsSnapshot().Counters; c["repl_op_entries"] == 0 {
		t.Fatal("the run replicated no operation entries")
	}
}

// (f) §5's hybrid rule on one record: two of the master's OCC workers
// update warehouse 0's YTD in one single-master epoch. The first write
// ships as a field op, the second as its row, and the replica converges
// whichever envelope arrives first — the row overtaking the op refuses it,
// because it already holds its delta. Built by hand as an op, the second
// write diverges when it overtakes the first: that is why it ships a row.
func TestReorderedWritesOfOneRecordConverge(t *testing.T) {
	r := rt.NewReal()
	e := build(Config{
		RT:             r,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       opReplTPCC(4),
		Seed:           7,
		Transport:      simnet.New(r, simnet.Config{Nodes: 3}),
	})
	t.Cleanup(r.Stop)
	master, replica := e.nodes[0], e.nodes[1]
	if !replica.db.Holds(0) {
		t.Fatal("node 1 does not hold partition 0")
	}
	const epoch = 2
	var sent [2]*msgReplBatch
	for i, w := range master.workers {
		w.strm.SetEpoch(epoch)
		w.set.Reset()
		w.set.AddWrite(tpcc.TWarehouse, 0, tpcc.WKey(0), storage.AddFloat64Op(tpcc.WYtd, float64(10*(i+1))))
		tid, ok := occ.Commit(master.db, &w.set, epoch, &w.tid, true)
		if !ok {
			t.Fatalf("worker %d's update did not commit", i)
		}
		w.emitEntries(tid, false)
		w.strm.Flush()
		m, ok := replica.inbox().RecvTimeout(5 * time.Second)
		if !ok {
			t.Fatalf("worker %d shipped nothing", i)
		}
		sent[i] = m.(*msgReplBatch)
	}
	first, second := sent[0], sent[1]
	if !first.Entries[0].IsOp() || second.Entries[0].IsOp() {
		t.Fatalf("first write op=%v, second op=%v: want ops, then a row", first.Entries[0].IsOp(), second.Entries[0].IsOp())
	}
	want := master.db.PartitionChecksum(0)
	deliver := func(order ...*msgReplBatch) uint64 {
		for _, b := range order {
			applyNow(replica, b)
		}
		got := replica.db.PartitionChecksum(0)
		replica.db.RevertEpoch(epoch)
		return got
	}
	if got := deliver(first, second); got != want {
		t.Fatalf("in commit order the replica holds %x, master %x", got, want)
	}
	if got := deliver(second, first); got != want {
		t.Fatalf("with the row first the replica holds %x, master %x", got, want)
	}
	if n := e.StatsSnapshot().Counters["repl_ops_refused"]; n != 1 {
		t.Fatalf("%d op entries refused, want the one the row overtook", n)
	}
	// Negative control: the second write as the delta it was committed with.
	asOp := &msgReplBatch{From: second.From, Epoch: epoch, Entries: []replication.Entry{second.Entries[0]}}
	asOp.Entries[0].Row, asOp.Entries[0].Ops = nil, master.workers[1].set.Writes[0].Ops
	if got := deliver(asOp, first); got == want {
		t.Fatal("the second write shipped as ops and delivered first still converged: this test cannot see what it guards")
	}
}

// (g) The rule under a real multi-worker master: four OCC workers per node,
// each holding its entries in its own stream until a flush bound, so the
// envelopes carrying one record's writes cross between workers for real
// (hundreds of times a run; with every entry shipped at commit, a crossing
// needs a preemption between commit and send, and most runs see none). The
// replicas converge, the TID guard refused at least one overtaken op (so
// crossing happened), no refused op reached the replica's log, and that
// log replays to the master's state.
func TestReorderedSingleMasterOpsConvergeUnderMultiWorkerMaster(t *testing.T) {
	dir := t.TempDir()
	r := rt.NewReal()
	cfg := tpcc.Config{Warehouses: 8, Districts: 2, CustomersPerDistrict: 8, Items: 32}
	cfg.SetCrossPct(60)
	cfg.SetFullMix()
	wl := tpcc.New(cfg)
	e := New(Config{
		RT:             r,
		Nodes:          2,
		WorkersPerNode: 4,
		Workload:       wl,
		LogDir:         dir,
		Seed:           3,
	})
	time.Sleep(400 * time.Millisecond)
	e.Freeze()
	time.Sleep(200 * time.Millisecond) // a dozen fences: every shipped entry applied
	r.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}
	c := e.StatsSnapshot().Counters
	t.Logf("committed=%d op entries=%d value entries=%d refused=%d", c["committed"], c["repl_op_entries"], c["repl_value_entries"], c["repl_ops_refused"])
	if c["repl_ops_refused"] == 0 {
		t.Fatal("no op entry was refused: nothing crossed, so this run tested nothing")
	}

	holds := e.Topology().HoldsMask(1)
	for _, path := range e.LogFiles(1) {
		frames, err := readLog(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range frames {
			for _, en := range b.Entries {
				if !en.Absent && len(en.Row) == 0 {
					t.Fatalf("%s: an empty row image for %v at %s", filepath.Base(path), en.Key, storage.FormatTID(en.TID))
				}
			}
		}
	}
	recovered := wl.BuildDB(8, holds)
	wl.Load(recovered)
	if _, applied, err := wal.Recover(recovered, "", e.LogFiles(1)); err != nil || applied == 0 {
		t.Fatalf("recover: applied=%d err=%v", applied, err)
	}
	for p, h := range holds {
		if got, want := recovered.PartitionChecksum(p), e.DB(0).PartitionChecksum(p); h && got != want {
			t.Fatalf("partition %d: node 1's log recovers %x, master holds %x", p, got, want)
		}
	}
}
