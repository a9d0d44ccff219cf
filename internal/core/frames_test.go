package core

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"star/internal/replication"
	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/wire"
	"star/internal/workload/ycsb"
)

// routerSeeds are cluster frames that name what newFenceHarness's node 1
// does not have or does not serve, each named for what that is. Node 1
// holds partitions 0 and 1 of three; the one table is YCSB's, ten columns
// wide. The last four each panicked the router, or moved node state, before
// the entry check refused them.
func routerSeeds(n *node) map[string]transport.Message {
	key, rowSize := storage.Key{}, n.db.Table(0).Schema().RowSize()
	n.db.Table(0).Partition(1).Range(func(k storage.Key, _ uint64, _ []byte) bool { key = k; return false })
	entry := func(table storage.TableID, part int32) replication.Entry {
		return replication.Entry{Table: table, Part: part, Key: key, TID: storage.MakeTID(2, 9), Row: make([]byte, rowSize)}
	}
	batch := func(from int, ents ...replication.Entry) *msgReplBatch {
		return &msgReplBatch{From: from, Epoch: 1, Entries: ents}
	}
	synced := func(b *msgReplBatch) syncBatch { return syncBatch{Batch: b, ReplyTo: 0} }
	op := func(part int32, ops ...storage.FieldOp) replication.Entry {
		en := entry(0, part)
		en.Row, en.Ops = nil, ops
		return en
	}
	narrow, wide := entry(0, 1), entry(0, 1)
	narrow.Row, wide.Row = narrow.Row[:3], make([]byte, rowSize+5)
	return map[string]transport.Message{
		"snapshot-request-partition-past-the-end":         msgSnapshotReq{From: 0, Part: 3},
		"snapshot-request-negative-partition":             msgSnapshotReq{From: 0, Part: -1},
		"snapshot-request-unknown-requester":              msgSnapshotReq{From: 7, Part: 1},
		"snapshot-partition-past-the-end":                 &msgSnapshot{Part: 3, Rows: batch(0, entry(0, 3))},
		"snapshot-unknown-table":                          &msgSnapshot{Part: 1, Rows: batch(0, entry(9, 1))},
		"recovery-order-partition-past-the-end":           msgStartRecovery{Parts: []int32{3}, From: []int32{0}},
		"recovery-order-unknown-donor":                    msgStartRecovery{Parts: []int32{1}, From: []int32{-2}},
		"recovery-order-donors-missing":                   msgStartRecovery{Parts: []int32{0, 1}, From: []int32{0}},
		"envelope-partition-past-the-end":                 batch(0, entry(0, 3)),
		"envelope-wrapped-partition":                      batch(0, entry(0, -1<<31)),
		"envelope-unknown-table":                          batch(0, entry(9, 1)),
		"sync-envelope-unknown-table":                     synced(batch(0, entry(9, 1))),
		"sync-envelope-unknown-reply-to":                  syncBatch{Batch: batch(0, entry(0, 1)), ReplyTo: 5},
		"envelope-unknown-sender":                         batch(48, entry(0, 1)),
		"envelope-unstamped":                              &msgReplBatch{From: 0, Entries: []replication.Entry{entry(0, 1)}},
		"sync-envelope-unstamped":                         synced(&msgReplBatch{From: 0, Entries: []replication.Entry{entry(0, 1)}}),
		"sync-envelope-unknown-sender":                    synced(batch(48, entry(0, 1))),
		"phase-report-the-coordinators":                   msgPhaseDone{Node: 0, Epoch: 1},
		"replication-ack-unknown-worker":                  msgReplAck{Worker: 9, Seq: 1},
		"install-no-member-in-range":                      msgTopology{Version: 2, Members: []int32{-1, 3, 7}},
		"install-one-member":                              msgTopology{Version: 2, Members: []int32{1}},
		"install-no-full-member":                          msgTopology{Version: 2, Members: []int32{1, 2}},
		"sync-envelope-op-on-a-column-the-table-lacks":    synced(batch(0, op(1, storage.AddInt64Op(99, 1)))),
		"sync-envelope-row-narrower-than-the-tables":      synced(batch(0, narrow)),
		"sync-envelope-op-for-a-partition-the-node-lacks": synced(batch(0, op(2, storage.AddInt64Op(1, 1)))),
		"snapshot-row-wider-than-the-tables":              &msgSnapshot{Part: 1, Rows: batch(0, wide)},
	}
}

// seedFrames encodes seeds with codec as the committed corpus of target
// and returns them keyed by their bytes, naming each.
func seedFrames(f *testing.F, target string, codec *wire.Codec, seeds map[string]transport.Message) map[string]string {
	names := map[string]string{}
	for name, m := range seeds {
		b, err := codec.Append(nil, m)
		if err == nil {
			_, err = codec.Decode(b)
		}
		if err != nil {
			f.Fatalf("seed %s does not cross the wire: %v", name, err)
		}
		names[string(b)] = name
		namedSeed(f, target, name, b)
	}
	return names
}

// intake runs one intake step on its own goroutine and fails t if the step
// panics or is still running after 2 s. The one panic it lets through is
// the state check the entry check leaves in place: field ops for a row
// that is not there, which on a replica signals divergence.
func intake(t *testing.T, m transport.Message, step func()) {
	t.Helper()
	done := make(chan any, 1)
	go func() {
		defer func() { done <- recover() }()
		step()
	}()
	select {
	case p := <-done:
		if p != nil && !strings.Contains(fmt.Sprint(p), "field ops for") {
			t.Fatalf("%T %+v: panic: %v", m, m, p)
		}
	case <-time.After(2 * time.Second):
		t.Fatalf("%T %+v: intake still busy after 2 s", m, m)
	}
}

// refusedMovesNothing is the assertion both fuzz targets share: a frame
// the entry check refused (frames_refused rose) left state as it was, and
// every seed is one it refuses.
func refusedMovesNothing(t *testing.T, e *Engine, m transport.Message, seed string, refused int64, before, after string) {
	t.Helper()
	switch {
	case e.refused.Load() != refused && before != after:
		t.Fatalf("refused %T %+v: state went from %s to %s", m, m, before, after)
	case e.refused.Load() == refused && seed != "":
		t.Fatalf("seed %s was not refused", seed)
	}
}

// FuzzRouter hands one decoded cluster frame to an unstarted node's router
// (newFenceHarness's node 1). No frame panics the router or blocks it for
// 2 s, and a frame the entry check refuses moves no node state — storage,
// residency, catch-up, view, link counters, queues — and sends nothing.
// The seeds are frames it refuses (routerSeeds).
func FuzzRouter(f *testing.F) {
	_, n := newFenceHarness(f)
	codec := NewWireCodec(n.e.cfg.Workload)
	seeds := seedFrames(f, "FuzzRouter", codec, routerSeeds(n))
	state := func(e *Engine, n *node) string {
		v := n.view.Load()
		s := fmt.Sprint(e.net.TotalBytes(), n.snapPending, n.caughtUp, n.epoch.Load(), v.Version, v.failed, n.marks,
			n.inbox().Len(), n.appliers[0].Len(), n.masterQ.Len(), e.frozen.Load(), len(e.drainedCh))
		for p := 0; p < n.db.NumPartitions(); p++ {
			s += fmt.Sprint(" ", n.db.Holds(p))
			if n.db.Holds(p) {
				s += fmt.Sprintf("=%x", n.db.PartitionChecksum(p))
			}
		}
		for src := 0; src < 3; src++ {
			s += fmt.Sprint(" ", n.tracker.Applied(src), n.tracker.SentVector()[src])
		}
		return s
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := codec.Decode(frame)
		if err != nil {
			return // the transport drops what does not decode
		}
		e, n := newFenceHarness(t)
		before, refused := state(e, n), e.refused.Load()
		intake(t, m, func() { n.handle(m) })
		refusedMovesNothing(t, e, m, seeds[string(frame)], refused, before, state(e, n))
	})
}

// newIntakeHarness builds an unstarted 3-node cluster with slot 2 dark on
// the real runtime: the test plays the coordinator's loop, feeding its
// inbox directly. A join's snapshot catch-up gives up after 20 ms.
func newIntakeHarness(t testing.TB) *coordinator {
	t.Helper()
	r := rt.NewReal()
	e := build(Config{
		RT:             r,
		Nodes:          3,
		Members:        []int{0, 1},
		WorkersPerNode: 1,
		Workload:       ycsb.New(ycsb.Config{Partitions: 3, RecordsPerPartition: 64}),
		Seed:           1,
		Transport:      simnet.New(r, simnet.Config{Nodes: 4}),
	})
	t.Cleanup(r.Stop)
	e.coord.recoveryGrace = 20 * time.Millisecond
	return e.coord
}

// FuzzCoordinatorIntake does for the coordinator what FuzzRouter does for
// a node: one decoded frame, then an end marker (a fence ack of an epoch
// never run), go into the coordinator's inbox; gather takes them in, and
// processAdmin serves what it parked — a join, a drain, a reply. Nothing
// panics or blocks for 2 s, and a refused frame moves no view, parks
// nothing, flips no link and sends nothing.
func FuzzCoordinatorIntake(f *testing.F) {
	c := newIntakeHarness(f)
	codec := NewWireCodec(c.e.cfg.Workload)
	seeds := seedFrames(f, "FuzzCoordinatorIntake", codec, map[string]transport.Message{
		"phase-report-unknown-node":    msgPhaseDone{Node: 7, Epoch: 2},
		"fence-ack-negative-node":      msgFenceAck{Node: -1, Epoch: 2},
		"recovery-done-unknown-node":   msgRecoveryDone{Node: 3},
		"join-from-an-unknown-origin":  AdminReq{V: AdminProtoVersion, Op: AdminJoin, From: 9, Ticket: 1, Node: 2},
		"drain-from-a-negative-origin": AdminReq{V: AdminProtoVersion, Op: AdminDrain, From: -4, Ticket: 1, Node: 1},
		"envelope-a-node-serves":       &msgReplBatch{From: 0, Epoch: 1},
		"install-a-node-serves":        msgTopology{Version: 2, Members: []int32{0, 1, 2}},
	})
	end := msgFenceAck{Node: 0, Epoch: math.MaxUint64}
	state := func(c *coordinator) string {
		v, e := c.view.Load(), c.e
		return fmt.Sprint(e.net.TotalBytes(), v.Version, v.Members(), v.failed, len(c.pendingAdmin), c.epoch,
			c.graceBoost, e.halted.Load(), e.net.IsDown(0), e.net.IsDown(1), e.net.IsDown(2))
	}
	f.Fuzz(func(t *testing.T, frame []byte) {
		m, err := codec.Decode(frame)
		if err != nil {
			return
		}
		c := newIntakeHarness(t)
		before, refused := state(c), c.e.refused.Load()
		in := c.e.net.Inbox(c.id())
		in.Send(m)
		in.Send(end)
		intake(t, m, func() {
			c.gather(time.Second, func(m any) bool { a, ok := m.(msgFenceAck); return ok && a == end })
			c.processAdmin()
		})
		refusedMovesNothing(t, c.e, m, seeds[string(frame)], refused, before, state(c))
	})
}
