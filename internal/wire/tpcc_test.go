package wire_test

import (
	"math/rand"
	"reflect"
	"testing"

	"star/internal/occ"
	"star/internal/replication"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire/prim"
	"star/internal/workload/tpcc"
)

// tpccCtx runs TPC-C's procedures against one full-replica database with
// no concurrency control: reads see the transaction's own pending ops.
type tpccCtx struct {
	db  *storage.DB
	set txn.RWSet
}

func (c *tpccCtx) Read(tb storage.TableID, part int, key storage.Key) ([]byte, bool) {
	rec := c.db.Table(tb).Get(part, key)
	if rec == nil {
		return nil, false
	}
	val, _, present := rec.ReadStable(nil)
	if !present {
		return nil, false
	}
	if w := c.set.FindWrite(tb, part, key); w != nil && !w.Insert {
		for _, op := range w.Ops {
			op.Apply(c.db.Table(tb).Schema(), val)
		}
	}
	return val, true
}

func (c *tpccCtx) Write(tb storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	c.set.AddWrite(tb, part, key, ops...)
}

func (c *tpccCtx) Insert(tb storage.TableID, part int, key storage.Key, row []byte) {
	c.set.AddInsert(tb, part, key, row)
}

func (c *tpccCtx) Delete(tb storage.TableID, part int, key storage.Key) {
	c.set.AddDelete(tb, part, key)
}

func (c *tpccCtx) LookupIndex(tb storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	return c.db.Table(tb).IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
}

// tpccTraffic runs n transactions of the full mix drawn from Gen.Mixed
// and returns the database and what each committed one replicates, in
// both of §5's forms: whole rows (a single-master write of a record its
// epoch already wrote) and field ops with rows for inserts only.
func tpccTraffic(t testing.TB, n int) (db *storage.DB, values, ops [][]replication.Entry) {
	t.Helper()
	cfg := tpcc.Config{Warehouses: 2, Districts: 4, CustomersPerDistrict: 40, Items: 200, TrimPct: 2, TrimRetain: 10}
	cfg.SetFullMix()
	w := tpcc.New(cfg)
	db = w.BuildDB(cfg.Warehouses, nil)
	w.Load(db)
	var (
		ctx = &tpccCtx{db: db}
		gen = w.NewGen(5)
		tid occ.TIDGen
		rng = rand.New(rand.NewSource(5))
	)
	for i := 0; i < n; i++ {
		ctx.set.Reset()
		if err := gen.Mixed(rng.Intn(cfg.Warehouses)).Run(ctx); err != nil || len(ctx.set.Writes) == 0 {
			continue // a user abort (1 % of New-Orders), or a read-only transaction
		}
		tidv, ok := occ.CommitSerial(db, &ctx.set, 2, &tid, true)
		if !ok {
			t.Fatalf("transaction %d did not commit", i)
		}
		values = append(values, replication.ValueEntries(&ctx.set, tidv))
		ops = append(ops, replication.OpEntries(&ctx.set, tidv))
	}
	return db, values, ops
}

// keepNet keeps what a stream ships.
type keepNet struct {
	transport.Transport
	sent []*replication.Batch
}

func (s *keepNet) Send(_, _ int, _ transport.Class, m transport.Message) {
	s.sent = append(s.sent, m.(*replication.Batch))
}

// TestEnvelopeTPCCRowsRoundTrip: envelopes of real TPC-C traffic — rows
// as the loader and the procedures build them and field ops as they
// write them, 32 transactions to an envelope — decode to what was sent,
// at exactly the size the Stream counted entry by entry as it appended
// them (header + payload); and the rows, which are mostly zeros, cross
// at under 60 % of their size.
func TestEnvelopeTPCCRowsRoundTrip(t *testing.T) {
	_, values, ops := tpccTraffic(t, 600)
	var rowBytes, payloadBytes int
	for _, traffic := range [][][]replication.Entry{values, ops} {
		for at := 0; at < len(traffic); at += 32 {
			net := &keepNet{}
			st := replication.NewStream(net, replication.NewTracker(2), 0, replication.Limits{})
			st.SetEpoch(2)
			var entries []replication.Entry
			sized := 0
			for _, txn := range traffic[at:min(at+32, len(traffic))] {
				for _, e := range txn {
					header, payload, raw := st.Append(1, e)
					sized += header + payload
					if !e.IsOp() {
						rowBytes, payloadBytes = rowBytes+raw, payloadBytes+payload
					}
					entries = append(entries, e)
				}
			}
			st.Flush()
			if len(net.sent) != 1 {
				t.Fatalf("transactions %d+: %d envelopes, want 1", at, len(net.sent))
			}
			b := net.sent[0]
			enc := replication.AppendBatch(nil, b)
			got, err := replication.DecodeBatch(enc)
			if err != nil || !reflect.DeepEqual(got.Entries, entries) {
				t.Fatalf("envelope at transaction %d (%d entries) did not survive the wire: err %v", at, len(entries), err)
			}
			sized += prim.UvarintLen(uint64(b.From)) + prim.UvarintLen(b.Epoch) + prim.UvarintLen(uint64(len(b.Entries)))
			if sized != len(enc) || sized != replication.BatchLen(b) {
				t.Fatalf("envelope at transaction %d: sized %d, BatchLen %d, encoded %d", at, sized, replication.BatchLen(b), len(enc))
			}
		}
	}
	if payloadBytes*100 > rowBytes*60 {
		t.Fatalf("TPC-C rows crossed in %d bytes of their %d, want under 60 %%", payloadBytes, rowBytes)
	}
}

// entryCost is what one kind of entry of one table cost in a run.
type entryCost struct {
	n, bytes        int // entries and what they encoded to
	row, raw, worst int // the largest row entry: row, whole and as sent
}

// streamCosts sizes traffic split into streams by stream(entry) — each
// transaction's entries in key order, every entry behind the one before
// it in its stream — and totals it per table and kind ("op", "row" or
// "tombstone").
func streamCosts(db *storage.DB, traffic [][]replication.Entry, stream func(*replication.Entry) int) map[string]*entryCost {
	costs := map[string]*entryCost{}
	sizers := map[int]*replication.EntryCoder{}
	for _, entries := range traffic {
		for i := range entries {
			e := &entries[i]
			s := sizers[stream(e)]
			if s == nil { // the stream's first entry, behind nothing: not counted
				s = new(replication.EntryCoder)
				s.Reset(2)
				sizers[stream(e)] = s
				s.Next(e)
				continue
			}
			header, payload, raw := s.Next(e)
			kind := "row"
			if e.IsOp() {
				kind = "op"
			} else if e.Absent {
				kind = "tombstone"
			}
			name := db.Table(e.Table).Name() + " " + kind
			c := costs[name]
			if c == nil {
				c = &entryCost{}
				costs[name] = c
			}
			c.n, c.bytes = c.n+1, c.bytes+header+payload
			if kind == "row" && header+payload > c.worst {
				c.row, c.raw, c.worst = len(e.Row), header+raw, header+payload
			}
		}
	}
	return costs
}

// TestEnvelopeByteBudgetTPCC pins what TPC-C's entries cost on the wire.
// Rows, per table the largest (rows grow as counters and text columns
// fill — a bad-credit customer's c_data is the 224), each behind the row
// of its table and partition before it (table and partition go once per
// envelope, so no row pays them here). And every kind of entry the
// partitioned phase ships — updates as field ops, inserts as rows,
// deletes as tombstones — per table the mean, each behind the entry
// before it in its partition's stream. A pin holds from 5 % under to the
// byte, a mean to the tenth.
func TestEnvelopeByteBudgetTPCC(t *testing.T) {
	db, values, ops := tpccTraffic(t, 600)
	rows := streamCosts(db, values, func(e *replication.Entry) int { return int(e.Table)<<16 | int(e.Part) })
	for _, pin := range []struct {
		table            string
		row, raw, packed int
	}{
		{"customer", 683, 688, 224},
		{"district", 127, 131, 44},
		{"warehouse", 103, 108, 37},
		{"stock", 110, 116, 60},
		{"order", 40, 50, 18},
		{"order_line", 66, 77, 57},
		{"history", 42, 47, 35},
		{"new_order", 8, 18, 12},
	} {
		got := rows[pin.table+" row"]
		if got == nil {
			t.Errorf("%s: no rows in the run", pin.table)
			continue
		}
		t.Logf("%-10s %3d-byte row: %3d B as a value entry, %3d B whole", pin.table, got.row, got.worst, got.raw)
		if got.row != pin.row || got.raw != pin.raw || got.worst > pin.packed || got.worst*100 < pin.packed*95 {
			t.Errorf("%s: %+v, pinned at %d-byte row, %d B whole, %d B packed (5 %% under allowed)", pin.table, got, pin.row, pin.raw, pin.packed)
		}
	}
	shipped := streamCosts(db, ops, func(e *replication.Entry) int { return int(e.Part) })
	for _, pin := range []struct {
		what   string
		mean10 int // tenths of a byte
	}{
		{"warehouse op", 178},
		{"district op", 111},
		{"customer op", 283},
		{"stock op", 72},
		{"order op", 83},
		{"order_line op", 57},
		{"order row", 172},
		{"new_order row", 70},
		{"order_line row", 463},
		{"history row", 408},
		{"order tombstone", 56},
		{"new_order tombstone", 75},
		{"order_line tombstone", 34},
		{"history tombstone", 36},
	} {
		got := shipped[pin.what]
		if got == nil {
			t.Errorf("%s: no such entries in the run", pin.what)
			continue
		}
		mean10 := (10*got.bytes + got.n/2) / got.n
		t.Logf("%-20s %4d entries, %5.1f B each", pin.what, got.n, float64(mean10)/10)
		if mean10 > pin.mean10 || mean10*100 < pin.mean10*95 {
			t.Errorf("%s: %.1f B per entry, pinned at %.1f (5 %% under allowed)", pin.what, float64(mean10)/10, float64(pin.mean10)/10)
		}
	}
}

// BenchmarkEnvelopeTPCC times the codec on envelopes of TPC-C value
// entries (the single-master phase's traffic, 32 transactions each):
// sizing as the worker does per entry, encoding, decoding.
func BenchmarkEnvelopeTPCC(b *testing.B) {
	_, values, _ := tpccTraffic(b, 320)
	var batches []*replication.Batch
	var encs [][]byte
	entries, bytes := 0, 0
	for at := 0; at < len(values); at += 32 {
		batch := &replication.Batch{From: 1, Epoch: 2}
		for _, es := range values[at:min(at+32, len(values))] {
			batch.Entries = append(batch.Entries, es...)
		}
		batches = append(batches, batch)
		encs = append(encs, replication.AppendBatch(nil, batch))
		entries += len(batch.Entries)
		bytes += len(encs[len(encs)-1])
	}
	perEntry := func(b *testing.B) {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*entries), "ns/entry")
		b.ReportMetric(float64(bytes)/float64(entries), "B/entry")
	}
	b.Run("size", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			for _, batch := range batches {
				replication.BatchLen(batch)
			}
		}
		perEntry(b)
	})
	b.Run("encode", func(b *testing.B) {
		var buf []byte
		for i := 0; i < b.N; i++ {
			for _, batch := range batches {
				buf = replication.AppendBatch(buf[:0], batch)
			}
		}
		perEntry(b)
	})
	b.Run("decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for _, enc := range encs {
				if _, err := replication.DecodeBatch(enc); err != nil {
					b.Fatal(err)
				}
			}
		}
		perEntry(b)
	})
}
