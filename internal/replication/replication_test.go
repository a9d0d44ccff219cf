package replication

import (
	"bytes"
	"math/rand"
	"testing"
	"testing/quick"
	"time"

	"star/internal/rt"
	"star/internal/simnet"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire/prim"
)

func bankSchema() *storage.Schema {
	return storage.NewSchema(
		storage.Field{Name: "balance", Type: storage.FieldInt64},
		storage.Field{Name: "note", Type: storage.FieldBytes, Cap: 32},
	)
}

func newDB() *storage.DB {
	db := storage.NewDB(2, nil)
	tbl := db.AddTable("acct", bankSchema(), false)
	s := tbl.Schema()
	for p := 0; p < 2; p++ {
		for i := uint64(0); i < 10; i++ {
			row := s.NewRow()
			s.SetInt64(row, 0, 100)
			tbl.Insert(p, storage.K1(i), 1, storage.MakeTID(1, i+1), row)
		}
	}
	return db
}

func TestApplyValueEntryThomasRule(t *testing.T) {
	db := newDB()
	tbl := db.Table(0)
	s := tbl.Schema()
	row := s.NewRow()
	s.SetInt64(row, 0, 777)

	e := &Entry{Table: 0, Part: 0, Key: storage.K1(3), TID: storage.MakeTID(2, 5), Row: row}
	if _, err := Apply(db, 2, e, false); err != nil {
		t.Fatal(err)
	}
	v, tid, _ := tbl.Get(0, storage.K1(3)).ReadStable(nil)
	if s.GetInt64(v, 0) != 777 || tid != storage.MakeTID(2, 5) {
		t.Fatalf("value apply failed: %d %s", s.GetInt64(v, 0), storage.FormatTID(tid))
	}
	// A stale entry must be ignored.
	old := s.NewRow()
	s.SetInt64(old, 0, 1)
	stale := &Entry{Table: 0, Part: 0, Key: storage.K1(3), TID: storage.MakeTID(2, 4), Row: old}
	if _, err := Apply(db, 2, stale, false); err != nil {
		t.Fatal(err)
	}
	v, _, _ = tbl.Get(0, storage.K1(3)).ReadStable(nil)
	if s.GetInt64(v, 0) != 777 {
		t.Fatal("stale value overwrote newer one: Thomas rule broken")
	}
}

func TestApplyOpEntryAndRowTransform(t *testing.T) {
	db := newDB()
	tbl := db.Table(0)
	s := tbl.Schema()
	e := &Entry{
		Table: 0, Part: 1, Key: storage.K1(2), TID: storage.MakeTID(2, 9),
		Ops: []storage.FieldOp{storage.AddInt64Op(0, -25)},
	}
	row, err := Apply(db, 2, e, true)
	if err != nil {
		t.Fatal(err)
	}
	// §5: before logging, op entries are transformed into full rows.
	if row == nil || s.GetInt64(row, 0) != 75 {
		t.Fatalf("row transform: %v", row)
	}
	v, _, _ := tbl.Get(1, storage.K1(2)).ReadStable(nil)
	if s.GetInt64(v, 0) != 75 {
		t.Fatalf("op apply: %d", s.GetInt64(v, 0))
	}
}

func TestApplyInsertAndDelete(t *testing.T) {
	db := newDB()
	tbl := db.Table(0)
	s := tbl.Schema()
	row := s.NewRow()
	s.SetInt64(row, 0, 5)
	ins := &Entry{Table: 0, Part: 0, Key: storage.K1(55), TID: storage.MakeTID(2, 1), Row: row}
	if _, err := Apply(db, 2, ins, false); err != nil {
		t.Fatal(err)
	}
	if tbl.Get(0, storage.K1(55)) == nil {
		t.Fatal("insert not applied")
	}
	del := &Entry{Table: 0, Part: 0, Key: storage.K1(55), TID: storage.MakeTID(2, 2), Absent: true}
	if _, err := Apply(db, 2, del, false); err != nil {
		t.Fatal(err)
	}
	if _, _, present := tbl.Get(0, storage.K1(55)).ReadStable(nil); present {
		t.Fatal("delete not applied")
	}
}

func TestApplyUnheldPartitionErrors(t *testing.T) {
	db := storage.NewDB(2, []bool{true, false})
	db.AddTable("acct", bankSchema(), false)
	// Partition 1 exists but is not held; the others came off a corrupt
	// wire and exist nowhere.
	for _, at := range []struct {
		table storage.TableID
		part  int32
	}{{0, 1}, {0, 2}, {0, -1}, {1, 0}, {255, 0}} {
		e := &Entry{Table: at.table, Part: at.part, Key: storage.K1(1), TID: 5, Row: bankSchema().NewRow()}
		if _, err := Apply(db, 1, e, false); err == nil {
			t.Fatalf("applying to table %d partition %d must error", at.table, at.part)
		}
	}
}

func TestEntrySizesOpMuchSmallerThanValue(t *testing.T) {
	// The §5 claim behind hybrid replication: a Payment-style delta is an
	// order of magnitude smaller than the full record.
	big := storage.NewSchema(
		storage.Field{Name: "ytd", Type: storage.FieldFloat64},
		storage.Field{Name: "data", Type: storage.FieldBytes, Cap: 500},
	)
	row := big.NewRow()
	for i := range row {
		row[i] = byte(1 + i%251) // a filled record: nothing to zero-pack
	}
	size := func(e *Entry) int {
		var s EntryCoder
		header, payload, _ := s.Next(e)
		return header + payload
	}
	val := Entry{Table: 0, Part: 0, Key: storage.K1(1), TID: 1, Row: row}
	op := Entry{Table: 0, Part: 0, Key: storage.K1(1), TID: 1,
		Ops: []storage.FieldOp{storage.AddFloat64Op(0, 1.0)}}
	if size(&val) < 500 {
		t.Fatalf("value entry suspiciously small: %d", size(&val))
	}
	if size(&op)*10 > size(&val) {
		t.Fatalf("op entry %dB not ≥10x smaller than value entry %dB", size(&op), size(&val))
	}
}

func TestValueAndOpEntryBuilders(t *testing.T) {
	var set txn.RWSet
	set.AddWrite(0, 1, storage.K1(5), storage.AddInt64Op(0, 3))
	set.Writes[0].Row = []byte{1, 2, 3} // as collected by occ commit
	set.AddInsert(0, 1, storage.K1(6), []byte{9, 9})

	ve := ValueEntries(&set, 42)
	if len(ve) != 2 || ve[0].IsOp() || ve[1].IsOp() {
		t.Fatalf("value entries: %+v", ve)
	}
	oe := OpEntries(&set, 42)
	if len(oe) != 2 || !oe[0].IsOp() || oe[1].IsOp() {
		t.Fatal("op entries: updates as ops, inserts as values")
	}
	if oe[0].TID != 42 || !bytes.Equal(oe[1].Row, []byte{9, 9}) {
		t.Fatal("entry payloads wrong")
	}
}

func TestStreamBatchingAndTracker(t *testing.T) {
	s := rt.NewSim()
	net := simnet.New(s, simnet.Config{Nodes: 2, Latency: 10 * time.Microsecond})
	tr0 := NewTracker(2)
	tr1 := NewTracker(2)
	db1 := newDB()

	s.Go("worker0", func() {
		st := NewStream(net, tr0, 0, Limits{Entries: 4})
		row := bankSchema().NewRow()
		for i := uint64(0); i < 10; i++ {
			st.Append(1, Entry{Table: 0, Part: 0, Key: storage.K1(i), TID: storage.MakeTID(2, i+10), Row: row})
		}
		st.Append(0, Entry{}) // self-append must be dropped
		st.Flush()
	})
	s.Go("applier1", func() {
		for {
			b := net.Inbox(1).Recv().(*Batch)
			for i := range b.Entries {
				if _, err := Apply(db1, 2, &b.Entries[i], false); err != nil {
					t.Error(err)
				}
			}
			tr1.AddApplied(b.From, int64(len(b.Entries)))
		}
	})
	s.Run(time.Second)
	if got := tr0.SentVector(); got[1] != 10 || got[0] != 0 {
		t.Fatalf("sent vector %v", got)
	}
	if tr1.Applied(0) != 10 {
		t.Fatalf("applied %d", tr1.Applied(0))
	}
	if !tr1.Drained([]int64{10, 0}) {
		t.Fatal("tracker must report drained")
	}
	if tr1.Drained([]int64{11, 0}) {
		t.Fatal("tracker must not report drained early")
	}
	// Batching: 10 entries with an entry limit of 4 → 3 messages.
	if n := net.Messages(transport.Replication); n != 3 {
		t.Fatalf("messages=%d, want 3 batches", n)
	}
	s.Stop()
}

// A byte-bounded stream coalesces an entire burst of writes into
// O(destinations) envelopes: this is the delta-batching the partitioned
// phase relies on (§4.3 — writes ship in bulk behind the epoch fence).
func TestStreamByteBoundCoalesces(t *testing.T) {
	s := rt.NewSim()
	net := simnet.New(s, simnet.Config{Nodes: 3, Latency: 10 * time.Microsecond})
	tr := NewTracker(3)
	row := bankSchema().NewRow()
	const writes = 100
	entry := func(i uint64) Entry {
		return Entry{Table: 0, Part: 0, Key: storage.K1(i), TID: storage.MakeTID(2, i+1), Row: row}
	}
	// A byte bound one over what the first half of the burst encodes to in
	// an envelope, so each destination ships its first 51 entries when the
	// 51st arrives and keeps the other 49 buffered until the explicit Flush.
	var sz EntryCoder
	sz.Reset(7)
	half := 0
	for i := uint64(0); i < writes/2; i++ {
		e := entry(i)
		header, payload, _ := sz.Next(&e)
		half += header + payload
	}

	s.Go("worker0", func() {
		st := NewStream(net, tr, 0, Limits{Bytes: half + 1})
		st.SetEpoch(7)
		for i := uint64(0); i < writes; i++ {
			st.Append(1, entry(i))
			st.Append(2, entry(i))
		}
		if n := net.Messages(transport.Replication); n != 2 {
			t.Errorf("%d envelopes shipped before Flush, want one per destination with a partial batch still buffered", n)
		}
		st.Flush()
		if v := tr.SentVector(); v[1] != writes || v[2] != writes {
			t.Errorf("Flush left entries behind: sent %v", v)
		}
	})
	drained := make([]int, 3)
	for _, dst := range []int{1, 2} {
		dst := dst
		s.Go("applier", func() {
			for {
				b := net.Inbox(dst).Recv().(*Batch)
				if b.Epoch != 7 {
					t.Errorf("batch epoch %d, want 7", b.Epoch)
				}
				drained[dst] += len(b.Entries)
			}
		})
	}
	s.Run(time.Second)
	if drained[1] != writes || drained[2] != writes {
		t.Fatalf("delivered %v, want %d per destination", drained, writes)
	}
	// 100 writes × 2 destinations, byte bound at ~50 entries → 4 envelopes
	// (2 per destination), not 200.
	if n := net.Messages(transport.Replication); n != 4 {
		t.Fatalf("messages=%d, want 4 byte-bounded envelopes", n)
	}
	if v := tr.SentVector(); v[1] != writes || v[2] != writes {
		t.Fatalf("sent vector %v must count entries, not envelopes", v)
	}
	s.Stop()
}

// SetEpoch must not let an envelope mix epochs: leftovers flush first.
func TestStreamEpochRolloverFlushes(t *testing.T) {
	s := rt.NewSim()
	net := simnet.New(s, simnet.Config{Nodes: 2})
	tr := NewTracker(2)
	row := bankSchema().NewRow()
	var epochs []uint64
	s.Go("worker", func() {
		st := NewStream(net, tr, 0, Limits{})
		st.SetEpoch(3)
		st.Append(1, Entry{Table: 0, Part: 0, Key: storage.K1(1), TID: 1, Row: row})
		st.SetEpoch(4) // must ship the epoch-3 entry before relabeling
		st.Append(1, Entry{Table: 0, Part: 0, Key: storage.K1(2), TID: 2, Row: row})
		st.Flush()
	})
	s.Go("recv", func() {
		for {
			epochs = append(epochs, net.Inbox(1).Recv().(*Batch).Epoch)
		}
	})
	s.Run(100 * time.Millisecond)
	if len(epochs) != 2 || epochs[0] != 3 || epochs[1] != 4 {
		t.Fatalf("batch epochs %v, want [3 4]", epochs)
	}
	s.Stop()
}

// Property: replicas that receive the same set of value entries in
// different orders converge to identical partition checksums.
func TestReplicaConvergenceAnyOrder(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		s := bankSchema()
		var entries []Entry
		for i := 0; i < 40; i++ {
			row := s.NewRow()
			storage.NewSchema().RowSize() // no-op keepalive for coverage
			sc := bankSchema()
			sc.SetInt64(row, 0, rng.Int63n(1000))
			entries = append(entries, Entry{
				Table: 0, Part: 0,
				Key: storage.K1(uint64(rng.Intn(8))),
				TID: storage.MakeTID(2, uint64(i+1)),
				Row: row,
			})
		}
		mkReplica := func(order []int) *storage.DB {
			db := storage.NewDB(1, nil)
			db.AddTable("acct", bankSchema(), false)
			for _, idx := range order {
				e := entries[idx]
				if _, err := Apply(db, 2, &e, false); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}
		orderA := rng.Perm(len(entries))
		orderB := rng.Perm(len(entries))
		a, b := mkReplica(orderA), mkReplica(orderB)
		return a.PartitionChecksum(0) == b.PartitionChecksum(0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// The stream must copy entry payloads into its own arenas: callers reuse
// their Row/Ops buffers immediately after Append (the zero-allocation
// commit path), and the buffered entries must not see those mutations.
func TestStreamCopiesPayloads(t *testing.T) {
	s := rt.NewSim()
	net := simnet.New(s, simnet.Config{Nodes: 2})
	tr := NewTracker(2)
	var got []Entry
	s.Go("worker", func() {
		st := NewStream(net, tr, 0, Limits{})
		row := []byte{1, 2, 3}
		arg := []byte{7}
		st.Append(1, Entry{Table: 0, Part: 0, Key: storage.K1(1), TID: 1, Row: row})
		st.Append(1, Entry{Table: 0, Part: 0, Key: storage.K1(2), TID: 2,
			Ops: []storage.FieldOp{{Field: 0, Kind: storage.OpAddInt64, Arg: arg}}})
		row[0] = 99 // caller reuses its buffers
		arg[0] = 99
		st.Flush()
	})
	s.Go("recv", func() {
		for {
			b := net.Inbox(1).Recv().(*Batch)
			got = append(got, b.Entries...)
		}
	})
	s.Run(100 * time.Millisecond)
	s.Stop()
	if len(got) != 2 {
		t.Fatalf("got %d entries, want 2", len(got))
	}
	if !bytes.Equal(got[0].Row, []byte{1, 2, 3}) {
		t.Fatalf("row mutated through the stream: %v", got[0].Row)
	}
	if got[0].IsOp() || !got[1].IsOp() {
		t.Fatal("entry kinds lost in arena copy")
	}
	if !bytes.Equal(got[1].Ops[0].Arg, []byte{7}) {
		t.Fatalf("op arg mutated through the stream: %v", got[1].Ops[0].Arg)
	}
}

// Adaptive mode re-derives each destination's byte threshold at the
// epoch boundary from the measured volume: growth-only past the
// configured bound, capped at AdaptiveMaxBytes, falling back to the
// configured bound on quiet epochs.
func TestStreamAdaptiveThreshold(t *testing.T) {
	s := rt.NewSim()
	net := simnet.New(s, simnet.Config{Nodes: 2})
	tr := NewTracker(2)
	row := bytes.Repeat([]byte{7}, 1000) // no zero byte: it crosses whole
	s.Go("worker", func() {
		const configured = 4 << 10
		st := NewStream(net, tr, 0, Limits{Bytes: configured, Adaptive: true})
		st.SetEpoch(2)
		e := Entry{Table: 0, Part: 0, Key: storage.K1(1), TID: 1, Row: row}
		// ~640KB this epoch → next threshold ≈ 640KB/64 = 10KB.
		for i := 0; i < 640; i++ {
			st.Append(1, e)
		}
		st.SetEpoch(3)
		grown := st.bufs[1].limit
		if grown <= configured || grown > AdaptiveMaxBytes {
			t.Errorf("epoch-3 threshold %d, want grown above the configured %d", grown, configured)
		}
		// Epochs alternate phases, so one idle epoch (the other phase)
		// must not collapse the threshold...
		st.Append(1, e)
		st.SetEpoch(4)
		if lim := st.bufs[1].limit; lim != grown {
			t.Errorf("epoch-4 threshold %d, want still %d after one idle epoch", lim, grown)
		}
		// ...but two consecutive quiet epochs return it to the
		// configured bound — adaptation never shrinks below that.
		st.Append(1, e)
		st.SetEpoch(5)
		if lim := st.bufs[1].limit; lim != configured {
			t.Errorf("epoch-5 threshold %d, want configured %d", lim, configured)
		}
	})
	s.Go("recv", func() {
		for {
			net.Inbox(1).Recv()
		}
	})
	s.Run(100 * time.Millisecond)
	s.Stop()
}

// A fixed threshold (Adaptive unset) stays where it was configured
// however the volume moves: at 16 KiB / 128 entries — the engine's
// defaults — a 640-entry burst of 200-byte rows (which do not pack, so the
// byte bound is the one that binds) ships the same envelopes after a heavy
// epoch as after an idle one, well above the 20 entries per envelope that
// make batching worth having, and the tracker still counts entries, not
// envelopes.
func TestStreamFixedThresholdHoldsAcrossEpochs(t *testing.T) {
	s := rt.NewSim()
	net := simnet.New(s, simnet.Config{Nodes: 2})
	tr := NewTracker(2)
	s.Go("worker", func() {
		st := NewStream(net, tr, 0, Limits{Bytes: 16 << 10, Entries: 128})
		e := Entry{Table: 0, Part: 0, Key: storage.K1(1), TID: 1, Row: bytes.Repeat([]byte{7}, 200)}
		burst := func(epoch uint64, n int) int64 {
			before := net.Messages(transport.Replication)
			st.SetEpoch(epoch)
			for i := 0; i < n; i++ {
				st.Append(1, e)
			}
			st.Flush()
			return net.Messages(transport.Replication) - before
		}
		first := burst(2, 640)
		burst(3, 64000) // a hundred times the volume: an adaptive stream would grow
		burst(4, 0)
		if again := burst(5, 640); again != first {
			t.Errorf("640 entries shipped in %d envelopes, then in %d after a heavy epoch: the fixed threshold moved", first, again)
		}
		if lim := st.bufs[1].limit; lim != 16<<10 {
			t.Errorf("threshold %d, want the configured %d", lim, 16<<10)
		}
		if per := 640 / first; per < 20 || per >= 128 {
			t.Errorf("%d entries per envelope (640 in %d); want batching by the byte bound", per, first)
		}
		if sent := tr.SentVector()[1]; sent != 640+64000+640 {
			t.Errorf("tracker counted %d entries sent, want %d", sent, 640+64000+640)
		}
	})
	s.Go("recv", func() {
		for {
			net.Inbox(1).Recv()
		}
	})
	s.Run(time.Second)
	s.Stop()
}

// An operation entry is a delta against a row the replica must already
// have: one that finds no row (or a tombstone older than itself) is a
// divergence, reported as an error and leaving nothing behind — not a row
// invented from zeros. One older than the tombstone was overtaken by the
// delete: the Thomas rule refuses it, and that is no error.
func TestApplyOpEntryWithoutBaseRowErrors(t *testing.T) {
	db := newDB()
	tbl := db.Table(0)
	before := db.PartitionChecksum(0)
	op := &Entry{Table: 0, Part: 0, Key: storage.K1(77), TID: storage.MakeTID(2, 1),
		Ops: []storage.FieldOp{storage.AddInt64Op(0, 5)}}
	if _, err := Apply(db, 2, op, true); err == nil {
		t.Fatal("operation entry for a row the replica never had must error")
	}
	if tbl.Get(0, storage.K1(77)) != nil || db.PartitionChecksum(0) != before {
		t.Fatal("the failed apply fabricated a record")
	}
	del := &Entry{Table: 0, Part: 0, Key: storage.K1(3), TID: storage.MakeTID(2, 2), Absent: true}
	if _, err := Apply(db, 2, del, false); err != nil {
		t.Fatal(err)
	}
	op.Key, op.TID = storage.K1(3), storage.MakeTID(2, 1)
	if row, landed, err := ApplyInto(db, 2, op, nil, true); err != nil || landed || row != nil {
		t.Fatalf("operation entry older than the tombstone: landed=%v row=%v err=%v, want refused", landed, row, err)
	}
	op.TID = storage.MakeTID(2, 3)
	if _, err := Apply(db, 2, op, true); err == nil {
		t.Fatal("operation entry for a deleted row must error")
	}
	if _, _, present := tbl.Get(0, storage.K1(3)).ReadStable(nil); present {
		t.Fatal("the failed apply resurrected a deleted row")
	}
}

// TestApplyIntoZeroAllocs pins the applier's side of allocation-free
// operation replication: applying a delta and copying its post-image into
// the caller's scratch (the §5 op→value transformation) allocates nothing
// once the scratch and the record's revert snapshot exist. Every apply
// carries the next sequence number, so the Thomas rule lands each one.
func TestApplyIntoZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	db := newDB()
	s := db.Table(0).Schema()
	e := &Entry{Table: 0, Part: 1, Key: storage.K1(2), TID: storage.MakeTID(2, 0), Ops: []storage.FieldOp{
		storage.AddInt64Op(0, -1),
		storage.PrependOp(1, []byte("n")),
	}}
	var scratch []byte
	apply := func() {
		e.TID += storage.MakeTID(0, 1)
		row, landed, err := ApplyInto(db, 2, e, scratch, true)
		if err != nil || !landed {
			t.Fatalf("apply at %s: landed=%v err=%v", storage.FormatTID(e.TID), landed, err)
		}
		scratch = row
	}
	apply()
	if allocs := testing.AllocsPerRun(1000, apply); allocs != 0 {
		t.Fatalf("ApplyInto allocates %v per operation entry, want 0", allocs)
	}
	if got := s.GetInt64(scratch, 0); got != 100-1002 {
		t.Fatalf("post-image balance %d after 1002 applies of -1 to 100", got)
	}
}

// TestStreamEnvelopeAllocBudget pins the send side: a flush hands its
// buffers to the envelope and starts the next batch in buffers of the
// size that one reached, so a steady stream of same-sized envelopes costs
// four allocations each — the envelope, its entries, the payload arena
// and the op headers — however many entries it carries, instead of
// regrowing all three buffers from nil by doubling.
func TestStreamEnvelopeAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	st := NewStream(discardNet{}, NewTracker(2), 0, Limits{})
	ops := []storage.FieldOp{storage.AddInt64Op(0, 1), storage.PrependOp(1, []byte("note"))}
	row := bankSchema().NewRow()
	envelope := func() {
		for i := uint64(0); i < 200; i++ {
			st.Append(1, Entry{Table: 0, Part: 0, Key: storage.K1(i), TID: i + 1, Ops: ops})
			st.Append(1, Entry{Table: 0, Part: 0, Key: storage.K1(i), TID: i + 1, Row: row})
		}
		st.Flush()
	}
	envelope()
	if allocs := testing.AllocsPerRun(100, envelope); allocs > 4 {
		t.Fatalf("a 400-entry envelope allocates %v times, want 4", allocs)
	}
}

// discardNet is a transport that drops everything (send-path tests).
type discardNet struct{ transport.Transport }

func (discardNet) Send(int, int, transport.Class, transport.Message) {}

// captureNet keeps what a stream ships (send-path tests).
type captureNet struct {
	transport.Transport
	sent []*Batch
}

func (c *captureNet) Send(_, _ int, _ transport.Class, m transport.Message) {
	c.sent = append(c.sent, m.(*Batch))
}

// TestStreamByteBoundCountsEncodedBytes: the byte bound counts entries as
// their envelope encodes them. Whatever the mix — operation entries,
// random and mostly-zero rows, tombstones, changes of table and
// partition — a stream under a small Limits.Bytes ships an envelope at
// the Append that takes the encoded size of its entries to the bound and
// not before, and what Append reports is what the envelope encodes.
func TestStreamByteBoundCountsEncodedBytes(t *testing.T) {
	const bound = 300
	rng := rand.New(rand.NewSource(25))
	net := &captureNet{}
	st := NewStream(net, NewTracker(2), 0, Limits{Bytes: bound})
	st.SetEpoch(9)
	pending := 0 // what Append reported for the open envelope
	for i := 0; i < 2000; i++ {
		e := Entry{Table: storage.TableID(rng.Intn(2)), Part: int32(rng.Intn(2)),
			Key: storage.K2(uint64(rng.Intn(50)), uint64(rng.Intn(1<<20))), TID: storage.MakeTID(9, uint64(i/3+1))}
		switch rng.Intn(4) {
		case 0:
			e.Ops = []storage.FieldOp{storage.AddInt64Op(rng.Intn(4), rng.Int63n(1000))}
		case 1:
			e.Absent = true
		default:
			e.Row = make([]byte, 1+rng.Intn(120))
			for j := range e.Row {
				if rng.Intn(100) < 60 {
					e.Row[j] = byte(1 + rng.Intn(255))
				}
			}
		}
		shipped := len(net.sent)
		header, payload, _ := st.Append(1, e)
		under := pending
		pending += header + payload
		if len(net.sent) == shipped {
			if pending >= bound {
				t.Fatalf("append %d: %d encoded bytes buffered, bound %d, nothing shipped", i, pending, bound)
			}
			continue
		}
		b := net.sent[len(net.sent)-1]
		envHeader := prim.UvarintLen(uint64(b.From)) + prim.UvarintLen(b.Epoch) + prim.UvarintLen(uint64(len(b.Entries)))
		enc := AppendBatch(nil, b)
		if under >= bound || pending < bound || len(enc)-envHeader != pending || b.Size() != prim.FrameOverhead+len(enc) {
			t.Fatalf("append %d: shipped %d entries encoding to %d bytes (Size %d) at %d reported, %d before this entry; bound %d",
				i, len(b.Entries), len(enc)-envHeader, b.Size(), pending, under, bound)
		}
		pending = 0
	}
	if len(net.sent) < 100 {
		t.Fatalf("%d envelopes for 2000 entries under a %d-byte bound", len(net.sent), bound)
	}
}
