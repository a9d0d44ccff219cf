package main

import (
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sync"
	"time"

	"star/internal/core"
	"star/internal/occ"
	"star/internal/replication"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/tcpnet"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wal"
	"star/internal/wire"
	"star/internal/workload"
)

// The layer drill replays a seeded operation sequence drawn from the
// workload's own generator (Gen.Mixed, the mix the workers run) through
// each layer's public functions on one goroutine and reports time and
// heap allocations per operation. A layer the workload's operations
// never reach reports 0 with 0 samples: ycsb_part has no validated
// commits, no YCSB workload inserts, deletes or touches an ordered index.
//
// One chunk of drillChunkTxns transactions is one epoch. Database A runs
// and commits the transactions; database B is the replica the resulting
// entries are applied to — once through replication.Apply, then, after
// storage reverts the epoch, again through the storage calls themselves.
// A and B must end with equal checksums or the drill fails.
const (
	drillChunkTxns = 2000
	drillMinChunks = 3
	drillMaxChunks = 200
	// walFlushBytes is how much is appended between two timed flushes:
	// the engine's default replication envelope, which is also about what
	// a YCSB worker logs per 10 ms phase.
	walFlushBytes = 16 << 10
	hotKeys       = 16
	hotAttempts   = 20000 // per goroutine
	pingPongs     = 2000
	streamBatches = 2048 // × 16 KiB one way
)

// tally is one drilled operation's running total.
type tally struct {
	ns     time.Duration
	ops    int64
	allocs uint64
}

type driller struct {
	sp     *spans
	parent int
	t      map[string]*tally
	sample []metrics.Sample
}

func newDriller(sp *spans, parent int) *driller {
	return &driller{sp: sp, parent: parent, t: map[string]*tally{},
		sample: []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}}
}

func (d *driller) heapAllocs() uint64 {
	metrics.Read(d.sample)
	return d.sample[0].Value.Uint64()
}

func (d *driller) tally(name string) *tally {
	t := d.t[name]
	if t == nil {
		t = &tally{}
		d.t[name] = t
	}
	return t
}

// batch times fn, which performs n operations of one kind back to back,
// under one span.
func (d *driller) batch(name string, n int, fn func()) {
	if n == 0 {
		return
	}
	s := d.sp.begin("drill/"+name, d.parent)
	t := d.tally(name)
	a0 := d.heapAllocs()
	t0 := time.Now()
	fn()
	t.ns += time.Since(t0)
	t.allocs += d.heapAllocs() - a0
	t.ops += int64(n)
	d.sp.end(s)
}

// one times a single call in a loop whose other steps must not be
// counted (operations that have to interleave with untimed work).
func (d *driller) one(t *tally, fn func()) {
	a0 := d.heapAllocs()
	t0 := time.Now()
	fn()
	t.ns += time.Since(t0)
	t.allocs += d.heapAllocs() - a0
	t.ops++
}

func (d *driller) put(m metricSet, key, name string, perUnit float64, unit string) {
	t := d.tally(name)
	m.putN(key, ratio(float64(t.ns), float64(t.ops))/perUnit, unit, t.ops)
}

func (d *driller) putAllocs(m metricSet, key, name string) {
	t := d.tally(name)
	m.putN(key, ratio(float64(t.allocs), float64(t.ops)), "count", t.ops)
}

// drillCtx is the execution context the drill hands to procedures: the
// partitioned-phase worker's context (core's localCtx) rebuilt on the
// public storage calls.
type drillCtx struct {
	db     *storage.DB
	set    *txn.RWSet
	arena  []byte
	failed bool
}

func (c *drillCtx) reset() { c.arena, c.failed = c.arena[:0], false }

func (c *drillCtx) Read(t storage.TableID, part int, key storage.Key) ([]byte, bool) {
	tbl := c.db.Table(t)
	rec := tbl.Get(part, key)
	if rec == nil {
		c.failed = !tbl.Replicated()
		return nil, false
	}
	var val []byte
	var tid uint64
	var present bool
	c.arena, val, tid, present = rec.ReadStableAppend(c.arena)
	if tbl.Replicated() {
		return val, present
	}
	if !present {
		c.failed = true
		return nil, false
	}
	c.set.AddRead(t, part, key, rec, tid)
	return val, true
}

func (c *drillCtx) Write(t storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	c.set.AddWrite(t, part, key, ops...)
}

func (c *drillCtx) Insert(t storage.TableID, part int, key storage.Key, row []byte) {
	c.set.AddInsert(t, part, key, row)
}

func (c *drillCtx) Delete(t storage.TableID, part int, key storage.Key) {
	c.set.AddDelete(t, part, key)
}

func (c *drillCtx) LookupIndex(t storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	return c.db.Table(t).IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
}

func (c *drillCtx) LookupIndexTail(t storage.TableID, part, idx int, val []byte, max int, dst []storage.Key) []storage.Key {
	return c.db.Table(t).IndexLookupTail(part, idx, val, storage.IndexAllEpochs, max, dst)
}

// sinkNet is the transport the drilled replication stream sends into:
// it keeps the envelopes and moves nothing.
type sinkNet struct{ batches []*replication.Batch }

func (s *sinkNet) Send(_, _ int, _ transport.Class, m transport.Message) {
	if b, ok := m.(*replication.Batch); ok {
		s.batches = append(s.batches, b)
	}
}
func (s *sinkNet) Inbox(int) rt.Chan              { return nil }
func (s *sinkNet) SetDown(int, bool)              {}
func (s *sinkNet) IsDown(int) bool                { return false }
func (s *sinkNet) Bytes(transport.Class) int64    { return 0 }
func (s *sinkNet) Messages(transport.Class) int64 { return 0 }
func (s *sinkNet) TotalBytes() int64              { return 0 }
func (s *sinkNet) BytesFrom(int) int64            { return 0 }
func (s *sinkNet) Dropped() int64                 { return 0 }

// writeKind says how a committed write reached the database, which a
// replication entry does not record (a replica infers it).
type writeKind uint8

const (
	kindUpdate writeKind = iota
	kindInsert
	kindDelete
)

func drill(s spec, o benchOpts, budget time.Duration, sp *spans, m metricSet) error {
	root := sp.begin("drill", 0)
	defer sp.end(root)
	d := newDriller(sp, root)

	w := s.newWorkload(o.sz)
	build := func() *storage.DB {
		db := w.BuildDB(numPartitions, nil)
		w.Load(db)
		db.CommitEpoch()
		return db
	}
	ss := sp.begin("drill/setup", root)
	a, b := build(), build()
	idxScratch := storage.NewDB(1, nil)
	idxTable := idxScratch.AddTable("scratch", storage.NewSchema(storage.Field{Name: "v", Type: storage.FieldUint64}), false)
	idxTable.AddIndex(storage.IndexSpec{Name: "scratch",
		Extract: func(_ *storage.Schema, _ storage.Key, _ []byte, dst []byte) []byte { return dst }})
	logPath := filepath.Join(o.scratch, fmt.Sprintf("drill-%s-seed%d.log", s.name, o.seed))
	logger, err := wal.Create(logPath)
	if err != nil {
		return fmt.Errorf("drill: %w", err)
	}
	defer os.Remove(logPath)
	defer logger.Close()
	sp.end(ss)

	var (
		gen    = w.NewGen(o.seed*1_000_003 + 7)
		codec  = core.NewWireCodec(w)
		sink   = &sinkNet{}
		stream = replication.NewStream(sink, replication.NewTracker(numNodes), 0,
			replication.Limits{Bytes: core.DefaultFlushBytes, Adaptive: true})
		tid   occ.TIDGen
		set   txn.RWSet
		ctx   = &drillCtx{db: a, set: &set}
		req   txn.Request
		arena []byte
		keys  []storage.Key
		// batchBytes totals the encoded envelopes.
		batchBytes int64
	)
	serial, validated := d.tally("occ.commit_serial"), d.tally("occ.commit")
	insertT, deleteT := d.tally("storage.insert"), d.tally("storage.delete")

	deadline := time.Now().Add(budget)
	epoch := uint64(2)
	for chunk := 0; chunk < drillMaxChunks && (chunk < drillMinChunks || time.Now().Before(deadline)); chunk++ {
		procs := make([]txn.Procedure, drillChunkTxns)
		d.batch("workload.gen", len(procs), func() {
			for i := range procs {
				procs[i] = gen.Mixed(i % numPartitions)
			}
		})
		reqs := make([]*txn.Request, len(procs))
		for i, p := range procs {
			reqs[i] = txn.NewRequest(p, int64(i))
		}
		clones := make([]*txn.Request, len(procs))
		d.batch("txn.request_clone", len(reqs), func() {
			for i, r := range reqs {
				clones[i] = r.Clone()
			}
		})

		// Every declared point access of the chunk, through the hash
		// index and the record latch.
		type ref struct {
			t    storage.TableID
			part int
			key  storage.Key
		}
		var refs []ref
		for _, p := range procs {
			for _, acc := range p.Accesses() {
				if !acc.LockOnly && acc.IndexVal == nil {
					refs = append(refs, ref{acc.Table, acc.Part, acc.Key})
				}
			}
		}
		recs := make([]*storage.Record, 0, len(refs))
		d.batch("storage.get", len(refs), func() {
			for _, r := range refs {
				if rec := a.Table(r.t).Get(r.part, r.key); rec != nil {
					recs = append(recs, rec)
				}
			}
		})
		d.batch("storage.read_stable", len(recs), func() {
			for _, rec := range recs {
				arena, _, _, _ = rec.ReadStableAppend(arena[:0])
			}
		})

		// Run and commit on A, one transaction at a time (a later one may
		// read what an earlier one wrote); only the commit call is timed.
		// Cross-partition and deferred transactions commit validated, as
		// on the master; the rest commit serially, as on a partition's
		// own worker. Read-only ones run and commit nothing.
		var entries []replication.Entry
		var kinds []writeKind
		var rows []byte
		for _, p := range procs {
			req.ResetFor(p, 0)
			set.Reset()
			ctx.reset()
			if p.Run(ctx) != nil || ctx.failed || txn.IsReadOnly(p) {
				continue // application abort (TPC-C's 1 % invalid items)
			}
			var tidv uint64
			var ok bool
			if req.Cross || txn.IsDeferred(p) {
				d.one(validated, func() { tidv, ok = occ.Commit(a, &set, epoch, &tid, true) })
			} else {
				d.one(serial, func() { tidv, ok = occ.CommitSerial(a, &set, epoch, &tid, true) })
			}
			if !ok {
				return fmt.Errorf("drill: %s failed to commit with no concurrency", p.Name())
			}
			for i := range set.Writes {
				wr := &set.Writes[i]
				off := len(rows)
				rows = append(rows, wr.Row...)
				entries = append(entries, replication.Entry{Table: wr.Table, Part: int32(wr.Part), Key: wr.Key,
					TID: tidv, Row: rows[off:len(rows):len(rows)], Absent: wr.Delete})
				switch {
				case wr.Insert:
					kinds = append(kinds, kindInsert)
				case wr.Delete:
					kinds = append(kinds, kindDelete)
				default:
					kinds = append(kinds, kindUpdate)
				}
			}
		}
		a.CommitEpochBefore(epoch + 1)

		sink.batches = sink.batches[:0]
		stream.SetEpoch(epoch)
		d.batch("replication.append", len(entries), func() {
			for i := range entries {
				stream.Append(1, entries[i])
			}
			stream.Flush()
		})

		encoded := make([][]byte, len(sink.batches))
		d.batch("wire.batch_encode", len(entries), func() {
			for i, bt := range sink.batches {
				encoded[i] = wire.AppendBatch(nil, bt)
			}
		})
		for _, e := range encoded {
			batchBytes += int64(len(e))
		}
		decoded := make([]*replication.Batch, len(encoded))
		var decErr error
		d.batch("wire.batch_decode", len(entries), func() {
			for i, e := range encoded {
				if decoded[i], decErr = wire.DecodeBatch(e); decErr != nil {
					return
				}
			}
		})
		if decErr != nil {
			return fmt.Errorf("drill: decode batch: %w", decErr)
		}
		encReqs := make([][]byte, len(clones))
		var encErr error
		d.batch("wire.request_encode", len(clones), func() {
			for i, r := range clones {
				if encReqs[i], encErr = codec.AppendRequest(nil, r); encErr != nil {
					return
				}
			}
		})
		if encErr != nil {
			return fmt.Errorf("drill: encode request: %w", encErr)
		}
		d.batch("wire.request_decode", len(encReqs), func() {
			for _, e := range encReqs {
				if _, _, encErr = codec.DecodeRequest(e); encErr != nil {
					return
				}
			}
		})
		if encErr != nil {
			return fmt.Errorf("drill: decode request: %w", encErr)
		}

		// Replica B, first pass: the decoded envelopes through
		// replication.Apply, then the whole epoch reverted.
		var applyErr error
		d.batch("replication.apply", len(entries), func() {
			for _, bt := range decoded {
				for i := range bt.Entries {
					if _, applyErr = replication.Apply(b, epoch, &bt.Entries[i], false); applyErr != nil {
						return
					}
				}
			}
		})
		if applyErr != nil {
			return fmt.Errorf("drill: apply: %w", applyErr)
		}
		d.batch("storage.revert_epoch", 1, func() { b.RevertEpoch(epoch) })

		// Second pass: the same writes through the storage calls a
		// commit makes, inserts and deletes timed one by one.
		for i := range entries {
			e := &entries[i]
			tbl := b.Table(e.Table)
			switch kinds[i] {
			case kindInsert:
				d.one(insertT, func() { tbl.Insert(int(e.Part), e.Key, epoch, e.TID, e.Row) })
			case kindDelete:
				d.one(deleteT, func() { tbl.Delete(int(e.Part), e.Key, epoch, e.TID) })
			default:
				if _, err := replication.Apply(b, epoch, e, false); err != nil {
					return fmt.Errorf("drill: apply: %w", err)
				}
			}
		}

		// Ordered-index entries of B, a different slice of each index
		// every chunk: looked up where they live and inserted into a
		// scratch index that grows as the chunks go by.
		type ixEntry struct {
			tbl       *storage.Table
			part, idx int
			val       []byte
			pk        storage.Key
		}
		var ixs []ixEntry
		for t := 0; t < b.NumTables(); t++ {
			tbl := b.Table(storage.TableID(t))
			for ix := 0; ix < tbl.NumIndexes(); ix++ {
				for p := 0; p < numPartitions; p++ {
					skip, take := chunk*200, 200
					tbl.Partition(p).Index(ix).Range(func(val []byte, pk storage.Key) bool {
						if skip > 0 {
							skip--
							return true
						}
						ixs = append(ixs, ixEntry{tbl, p, ix, append([]byte(nil), val...), pk})
						take--
						return take > 0
					})
				}
			}
		}
		d.batch("storage.oindex_lookup", len(ixs), func() {
			for i := range ixs {
				x := &ixs[i]
				keys = x.tbl.IndexLookup(x.part, x.idx, x.val, storage.IndexAllEpochs, keys[:0])
			}
		})
		d.batch("storage.oindex_insert", len(ixs), func() {
			ix := idxTable.Partition(0).Index(0)
			for i := range ixs {
				ix.Insert(ixs[i].val, ixs[i].pk, epoch)
			}
		})
		d.batch("storage.commit_epoch", 1, func() { b.CommitEpochBefore(epoch + 1) })
		idxScratch.CommitEpochBefore(epoch + 1)

		// WAL: append a flush's worth, flush, repeat; one fsync per chunk.
		var walErr error
		for i := 0; i < len(entries) && walErr == nil; {
			from, bytes := i, 0
			for ; i < len(entries) && bytes < walFlushBytes; i++ {
				bytes += 32 + len(entries[i].Row)
			}
			d.batch("wal.append", i-from, func() {
				for j := from; j < i && walErr == nil; j++ {
					e := &entries[j]
					if e.Absent {
						walErr = logger.AppendDelete(e.Table, e.Part, e.Key, e.TID)
					} else {
						walErr = logger.AppendWrite(e.Table, e.Part, e.Key, e.TID, false, e.Row)
					}
				}
			})
			d.batch("wal.flush", 1, func() {
				if err := logger.Flush(false); err != nil && walErr == nil {
					walErr = err
				}
			})
		}
		if walErr == nil {
			walErr = logger.AppendEpochMark(epoch)
		}
		d.batch("wal.sync", 1, func() {
			if err := logger.Flush(true); err != nil && walErr == nil {
				walErr = err
			}
		})
		if walErr != nil {
			return fmt.Errorf("drill: wal: %w", walErr)
		}
		epoch++
	}

	for p := 0; p < numPartitions; p++ {
		if ca, cb := a.PartitionChecksum(p), b.PartitionChecksum(p); ca != cb {
			return fmt.Errorf("drill: partition %d: replica replay %x != primary %x", p, cb, ca)
		}
	}

	ratioCommits, err := drillConflicts(d, a, gen, epoch)
	if err != nil {
		return err
	}
	rtt, mbps, err := drillTCP(d, w)
	if err != nil {
		return err
	}

	d.put(m, "workload.gen_ns", "workload.gen", 1, "ns")
	d.putAllocs(m, "workload.gen_allocs", "workload.gen")
	d.put(m, "txn.request_clone_ns", "txn.request_clone", 1, "ns")
	d.put(m, "storage.get_ns", "storage.get", 1, "ns")
	d.put(m, "storage.read_stable_ns", "storage.read_stable", 1, "ns")
	d.put(m, "storage.insert_ns", "storage.insert", 1, "ns")
	d.put(m, "storage.delete_ns", "storage.delete", 1, "ns")
	d.put(m, "storage.oindex_insert_ns", "storage.oindex_insert", 1, "ns")
	d.put(m, "storage.oindex_lookup_ns", "storage.oindex_lookup", 1, "ns")
	d.put(m, "storage.commit_epoch_us", "storage.commit_epoch", 1e3, "us")
	d.put(m, "storage.revert_epoch_us", "storage.revert_epoch", 1e3, "us")
	d.put(m, "occ.commit_serial_ns", "occ.commit_serial", 1, "ns")
	d.putAllocs(m, "occ.commit_serial_allocs", "occ.commit_serial")
	d.put(m, "occ.commit_ns", "occ.commit", 1, "ns")
	d.putAllocs(m, "occ.commit_allocs", "occ.commit")
	m.putN("occ.conflict_commit_ratio", ratioCommits, "ratio", 2*hotAttempts)
	d.put(m, "replication.append_ns", "replication.append", 1, "ns")
	d.putAllocs(m, "replication.append_allocs", "replication.append")
	d.put(m, "replication.apply_ns", "replication.apply", 1, "ns")
	d.putAllocs(m, "replication.apply_allocs", "replication.apply")
	d.put(m, "wire.batch_encode_ns_per_entry", "wire.batch_encode", 1, "ns")
	d.put(m, "wire.batch_decode_ns_per_entry", "wire.batch_decode", 1, "ns")
	nEnt := d.tally("wire.batch_encode").ops
	m.putN("wire.batch_bytes_per_entry", ratio(float64(batchBytes), float64(nEnt)), "B", nEnt)
	d.put(m, "wire.request_encode_ns", "wire.request_encode", 1, "ns")
	d.put(m, "wire.request_decode_ns", "wire.request_decode", 1, "ns")
	m.putN("tcpnet.roundtrip_us", rtt, "us", pingPongs)
	m.putN("tcpnet.stream_mb_per_s", mbps, "MB/s", streamBatches)
	d.put(m, "wal.append_ns", "wal.append", 1, "ns")
	d.put(m, "wal.flush_us", "wal.flush", 1e3, "us")
	d.put(m, "wal.sync_us", "wal.sync", 1e3, "us")
	return nil
}

// hotTxn reads two of the hot rows and rewrites the first: the smallest
// transaction that can lose a validation race.
type hotTxn struct {
	a, b txn.Access
	row  []byte
}

func (t *hotTxn) Name() string           { return "drill.hot" }
func (t *hotTxn) Accesses() []txn.Access { return []txn.Access{t.a, t.b} }
func (t *hotTxn) Run(ctx txn.Ctx) error {
	row, ok := ctx.Read(t.a.Table, t.a.Part, t.a.Key)
	if !ok {
		return txn.ErrConflict
	}
	if _, ok := ctx.Read(t.b.Table, t.b.Part, t.b.Key); !ok {
		return txn.ErrConflict
	}
	t.row = append(t.row[:0], row...)
	ctx.Write(t.a.Table, t.a.Part, t.a.Key, storage.SetRowOp(t.row))
	return nil
}

// drillConflicts is the only place contention is measured (one worker
// per node never conflicts in the cluster runs): two goroutines commit
// hotTxns over the first hotKeys rows the generator writes, and the
// result is commits over attempts.
func drillConflicts(d *driller, db *storage.DB, gen workload.Gen, epoch uint64) (float64, error) {
	type rowID struct {
		t    storage.TableID
		part int
		key  storage.Key
	}
	var hot []txn.Access
	seen := map[rowID]bool{}
	for tries := 0; len(hot) < hotKeys && tries < 100_000; tries++ {
		for _, acc := range gen.Mixed(tries % numPartitions).Accesses() {
			k := rowID{acc.Table, acc.Part, acc.Key}
			if !acc.Write || acc.LockOnly || acc.IndexVal != nil || seen[k] || len(hot) == hotKeys {
				continue
			}
			tbl := db.Table(acc.Table)
			if tbl.Replicated() {
				continue
			}
			if rec := tbl.Get(acc.Part, acc.Key); rec != nil && !storage.TIDAbsent(rec.TID()) {
				seen[k] = true
				hot = append(hot, txn.Access{Table: acc.Table, Part: acc.Part, Key: acc.Key})
			}
		}
	}
	if len(hot) < hotKeys {
		return 0, fmt.Errorf("drill: generator wrote only %d existing rows", len(hot))
	}
	s := d.sp.begin("drill/occ.conflict", d.parent)
	defer d.sp.end(s)
	var commits [2]int
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var set txn.RWSet
			var tid occ.TIDGen
			ctx := &drillCtx{db: db, set: &set}
			t := &hotTxn{}
			for i := 0; i < hotAttempts; i++ {
				// A fixed walk, a different stride per goroutine.
				t.a = hot[(i*(g+1)+g)%hotKeys]
				t.b = hot[(i*(g+1)+g+5)%hotKeys]
				set.Reset()
				ctx.reset()
				if t.Run(ctx) != nil || ctx.failed {
					continue
				}
				if _, ok := occ.Commit(db, &set, epoch, &tid, false); ok {
					commits[g]++
				}
			}
		}(g)
	}
	wg.Wait()
	return float64(commits[0]+commits[1]) / (2 * hotAttempts), nil
}

// drillTCP measures one tcpnet link on loopback: a ping-pong of
// one-entry envelopes, then 16 KiB envelopes streamed one way.
func drillTCP(d *driller, w workload.Workload) (rttUS, mbPerS float64, err error) {
	s := d.sp.begin("drill/tcpnet", d.parent)
	defer d.sp.end(s)
	r := rt.NewReal()
	var lns [2]net.Listener
	var addrs [2]string
	for i := range lns {
		if lns[i], err = net.Listen("tcp", "127.0.0.1:0"); err != nil {
			if i == 1 {
				lns[0].Close()
			}
			return 0, 0, fmt.Errorf("drill: %w", err)
		}
		addrs[i] = lns[i].Addr().String()
	}
	var nets [2]*tcpnet.Network
	for i := range nets {
		nets[i], err = tcpnet.New(r, tcpnet.Config{Endpoints: addrs[:], Local: []int{i}, Codec: core.NewWireCodec(w), Listener: lns[i]})
		if err != nil {
			return 0, 0, fmt.Errorf("drill: %w", err)
		}
	}
	defer func() {
		r.Stop()
		nets[0].Close()
		nets[1].Close()
	}()

	small := &replication.Batch{From: 0, Epoch: 2, Entries: []replication.Entry{{Key: storage.K1(1), TID: storage.MakeTID(2, 1), Row: make([]byte, 100)}}}
	big := &replication.Batch{From: 0, Epoch: 2}
	for size := 0; size < 16<<10; size += 128 {
		big.Entries = append(big.Entries, small.Entries[0])
	}
	frame, _ := wire.AppendFrame(nil, 0, 1, transport.Replication, core.NewWireCodec(w), big)

	// A lost frame must fail the drill, not hang it.
	recv := func(in rt.Chan) bool {
		_, ok := in.RecvTimeout(10 * time.Second)
		return ok
	}
	lost := fmt.Errorf("drill: tcpnet link lost a frame")
	done := make(chan bool, 1)
	go func() { // endpoint 1: echo the pings, then swallow the stream
		in := nets[1].Inbox(1)
		for i := 0; i < pingPongs+streamBatches; i++ {
			if !recv(in) {
				done <- false
				return
			}
			if i < pingPongs {
				nets[1].Send(1, 0, transport.Replication, small)
			}
		}
		nets[1].Send(1, 0, transport.Replication, small)
		done <- true
	}()
	in := nets[0].Inbox(0)
	t0 := time.Now()
	for i := 0; i < pingPongs; i++ {
		nets[0].Send(0, 1, transport.Replication, small)
		if !recv(in) {
			return 0, 0, lost
		}
	}
	rttUS = float64(time.Since(t0).Microseconds()) / pingPongs
	t0 = time.Now()
	for i := 0; i < streamBatches; i++ {
		nets[0].Send(0, 1, transport.Replication, big)
	}
	if !<-done || !recv(in) { // endpoint 1 has taken the last envelope
		return 0, 0, lost
	}
	mbPerS = float64(len(frame)) * streamBatches / (1 << 20) / time.Since(t0).Seconds()
	return rttUS, mbPerS, nil
}
