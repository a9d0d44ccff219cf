package wire_test

import (
	"math/rand"
	"reflect"
	"testing"

	"star/internal/occ"
	"star/internal/replication"
	"star/internal/storage"
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
	cfg := tpcc.Config{Warehouses: 2, Districts: 4, CustomersPerDistrict: 40, Items: 200, TrimPct: 2}
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

// TestEnvelopeTPCCRowsRoundTrip: envelopes of real TPC-C traffic — rows
// as the loader and the procedures build them, 32 transactions to an
// envelope — decode to what was sent, at exactly the size an EntrySizer
// counts entry by entry; and the rows, which are mostly zeros, cross at
// under 60 % of their size.
func TestEnvelopeTPCCRowsRoundTrip(t *testing.T) {
	_, values, ops := tpccTraffic(t, 600)
	var rowBytes, payloadBytes int
	for _, traffic := range [][][]replication.Entry{values, ops} {
		for at := 0; at < len(traffic); at += 32 {
			b := &replication.Batch{From: 1, Epoch: 2}
			for _, entries := range traffic[at:min(at+32, len(traffic))] {
				b.Entries = append(b.Entries, entries...)
			}
			enc := replication.AppendBatch(nil, b)
			got, err := replication.DecodeBatch(enc)
			if err != nil || !reflect.DeepEqual(got, b) {
				t.Fatalf("envelope at transaction %d (%d entries) did not survive the wire: err %v", at, len(b.Entries), err)
			}
			var s replication.EntrySizer
			s.Reset(b.Epoch)
			sized := replication.BatchLen(&replication.Batch{From: 1, Epoch: 2}) - 1 + prim.UvarintLen(uint64(len(b.Entries)))
			for i := range b.Entries {
				header, payload, raw := s.Next(&b.Entries[i])
				sized += header + payload
				if !b.Entries[i].IsOp() {
					rowBytes, payloadBytes = rowBytes+raw, payloadBytes+payload
				}
			}
			if sized != len(enc) || sized != replication.BatchLen(b) {
				t.Fatalf("envelope at transaction %d: sized %d, BatchLen %d, encoded %d", at, sized, replication.BatchLen(b), len(enc))
			}
		}
	}
	if payloadBytes*100 > rowBytes*60 {
		t.Fatalf("TPC-C rows crossed in %d bytes of their %d, want under 60 %%", payloadBytes, rowBytes)
	}
}

// TestEnvelopeByteBudgetTPCC pins what TPC-C's rows cost on the wire now
// that they cross zero-packed: per table, the largest value entry of a
// run (rows grow as counters and text columns fill — a bad-credit
// customer's c_data is the 225), each sized behind another entry of its
// table and partition. A pin holds from 5 % under to the byte.
func TestEnvelopeByteBudgetTPCC(t *testing.T) {
	db, values, _ := tpccTraffic(t, 600)
	type cost struct{ row, raw, packed int }
	worst := map[string]cost{}
	for _, entries := range values {
		for i := range entries {
			e := &entries[i]
			if e.Absent {
				continue
			}
			var s replication.EntrySizer
			s.Reset(2)
			prior := *e
			prior.TID -= 4 // the transaction before
			s.Next(&prior)
			header, payload, raw := s.Next(e)
			if name := db.Table(e.Table).Name(); header+payload > worst[name].packed {
				worst[name] = cost{len(e.Row), header + raw, header + payload}
			}
		}
	}
	for _, pin := range []struct {
		table            string
		row, raw, packed int
	}{
		{"customer", 683, 693, 225},
		{"district", 127, 132, 45},
		{"warehouse", 103, 108, 37},
		{"stock", 110, 116, 61},
		{"order", 40, 50, 19},
		{"order_line", 66, 79, 59},
		{"history", 42, 53, 41},
		{"new_order", 8, 18, 12},
	} {
		got := worst[pin.table]
		t.Logf("%-10s %3d-byte row: %3d B as a value entry, %3d B whole", pin.table, got.row, got.packed, got.raw)
		if got.row != pin.row || got.raw != pin.raw || got.packed > pin.packed || got.packed*100 < pin.packed*95 {
			t.Errorf("%s: %+v, pinned at %d-byte row, %d B whole, %d B packed (5 %% under allowed)", pin.table, got, pin.row, pin.raw, pin.packed)
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
