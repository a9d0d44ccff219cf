// Package ycsb implements the YCSB workload as configured in the paper
// (§7.1.1): one table of 10 columns × 10 random bytes keyed by a 64-bit
// integer, 200k records per partition, 10 accesses per transaction with
// a 90/10 read/write mix under uniform key distribution. A configurable
// fraction of transactions is cross-partition, in which case each access
// picks a uniformly random partition.
package ycsb

import (
	"fmt"
	"math/rand"

	"star/internal/storage"
	"star/internal/txn"
	"star/internal/workload"
)

// TableID of the single YCSB table.
const TableID storage.TableID = 0

// Config parameterises the workload.
type Config struct {
	// Partitions is the total number of partitions in the cluster.
	Partitions int
	// RecordsPerPartition defaults to 200_000 (paper); tests shrink it.
	RecordsPerPartition int
	// OpsPerTxn is the number of record accesses (default 10).
	OpsPerTxn int
	// WritesPerTxn is how many of those are read-modify-writes
	// (default 1, the paper's 90/10 mix).
	WritesPerTxn int
	// CrossPct is the percentage (0..100) of cross-partition txns.
	CrossPct int
	// FieldSize is the column payload width (default 10 bytes).
	FieldSize int
	// Columns is the column count (default 10).
	Columns int
}

func (c Config) withDefaults() Config {
	if c.RecordsPerPartition == 0 {
		c.RecordsPerPartition = 200_000
	}
	if c.OpsPerTxn == 0 {
		c.OpsPerTxn = 10
	}
	if c.WritesPerTxn == 0 {
		c.WritesPerTxn = 1
	}
	if c.FieldSize == 0 {
		c.FieldSize = 10
	}
	if c.Columns == 0 {
		c.Columns = 10
	}
	return c
}

// Workload implements workload.Workload.
type Workload struct {
	cfg    Config
	schema *storage.Schema
}

// New builds the workload. It panics on a zero partition count.
func New(cfg Config) *Workload {
	cfg = cfg.withDefaults()
	if cfg.Partitions <= 0 {
		panic("ycsb: Partitions must be positive")
	}
	fields := make([]storage.Field, cfg.Columns)
	for i := range fields {
		fields[i] = storage.Field{
			Name: fmt.Sprintf("f%d", i),
			Type: storage.FieldBytes,
			Cap:  cfg.FieldSize,
		}
	}
	return &Workload{cfg: cfg, schema: storage.NewSchema(fields...)}
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "ycsb" }

// Config returns the effective configuration.
func (w *Workload) Config() Config { return w.cfg }

// Schema returns the usertable schema.
func (w *Workload) Schema() *storage.Schema { return w.schema }

// BuildDB implements workload.Workload.
func (w *Workload) BuildDB(nparts int, holds []bool) *storage.DB {
	db := storage.NewDB(nparts, holds)
	db.AddTable("usertable", w.schema, false)
	return db
}

// Key builds the primary key for row i of partition p. Keys are global:
// partition p owns [p*RPP, (p+1)*RPP).
func (w *Workload) Key(p, i int) storage.Key {
	return storage.K1(uint64(p)*uint64(w.cfg.RecordsPerPartition) + uint64(i))
}

// Load implements workload.Workload: each held partition is filled from
// an RNG seeded by the partition alone, the partitions concurrently.
func (w *Workload) Load(db *storage.DB) {
	tbl := db.Table(TableID)
	db.FillHeld(func(p int) {
		// Every column is full width, so the RNG writes straight into
		// the row's column bytes behind lengths set once.
		row, cols := w.schema.NewRow(), make([][]byte, w.cfg.Columns)
		for c := range cols {
			w.schema.SetBytes(row, c, make([]byte, w.cfg.FieldSize))
			cols[c] = w.schema.GetBytes(row, c)
		}
		rng := rand.New(rand.NewSource(int64(p) + 1))
		f := tbl.Fill(p, w.cfg.RecordsPerPartition)
		for i := 0; i < w.cfg.RecordsPerPartition; i++ {
			for _, col := range cols {
				rng.Read(col)
			}
			f.Add(w.Key(p, i), storage.MakeTID(1, uint64(i+1)), row)
		}
		f.Done()
	})
}

// Gen implements workload.Gen for YCSB.
type Gen struct {
	w   *Workload
	rng *rand.Rand
	row []byte // scratch row for building write ops
	val []byte // scratch payload
}

// NewGen implements workload.Workload.
func (w *Workload) NewGen(seed int64) workload.Gen {
	return &Gen{w: w, rng: rand.New(rand.NewSource(seed)),
		row: w.schema.NewRow(), val: make([]byte, w.cfg.FieldSize)}
}

// Txn is one YCSB transaction: OpsPerTxn accesses, of which the last
// WritesPerTxn are read-modify-writes installing fresh random bytes.
// The footprint and the write op are precomputed at generation time so
// that Run — the piece the engine executes, possibly several times under
// OCC retry — allocates nothing. The declared footprint is the only copy
// of the parameters: Run walks accs directly.
type Txn struct {
	w    *Workload
	accs []txn.Access
	// ops is the precomputed column-1 delta, held as a slice so Run can
	// pass it through the variadic Ctx.Write without allocating (a
	// spread of an existing slice reuses it; a bare argument would build
	// a fresh one per call).
	ops []storage.FieldOp
}

// genTxn is the block a generated transaction is allocated in: the Txn
// and the storage its ops slice points into, so generation costs two
// allocations (this and accs) instead of one per slice. arg holds the
// op's payload when it fits; wider fields fall back to the heap.
type genTxn struct {
	Txn
	op  [1]storage.FieldOp
	arg [16]byte
}

// Name implements txn.Procedure.
func (t *Txn) Name() string { return "ycsb.txn" }

// Accesses implements txn.Procedure.
func (t *Txn) Accesses() []txn.Access { return t.accs }

// Run implements txn.Procedure: reads every record; for write accesses it
// installs the new column value (column 1, as a single-field delta).
func (t *Txn) Run(ctx txn.Ctx) error {
	for i := range t.accs {
		a := &t.accs[i]
		if _, ok := ctx.Read(TableID, a.Part, a.Key); !ok {
			return txn.ErrConflict
		}
		if a.Write {
			ctx.Write(TableID, a.Part, a.Key, t.ops...)
		}
	}
	return nil
}

// ReadOnly implements txn.ReadOnlyMarker: a transaction with no write
// accesses may be served from an epoch-fence snapshot instead of being
// routed to the master. Generated transactions always carry at least one
// write (WritesPerTxn ≥ 1), so this only fires for explicitly built
// read transactions (ReadTxn — the star-client read path).
func (t *Txn) ReadOnly() bool {
	for i := range t.accs {
		if t.accs[i].Write {
			return false
		}
	}
	return true
}

// newExplicitTxn builds a transaction with a caller-chosen footprint:
// access i touches row rows[i] of partition parts[i]. With write set,
// every access installs val into column 1. The star-client CLI and tests
// use these for deterministic, targeted transactions; generated workloads
// use Gen.
func (w *Workload) newExplicitTxn(parts, rows []int, write bool, val []byte) *Txn {
	if len(rows) != len(parts) {
		panic("ycsb: explicit txn footprint slices disagree")
	}
	t := &Txn{w: w, accs: make([]txn.Access, len(parts))}
	for i := range parts {
		t.accs[i] = txn.Access{Table: TableID, Part: parts[i], Key: w.Key(parts[i], rows[i]), Write: write}
	}
	if write && len(parts) > 0 {
		row := w.schema.NewRow()
		buf := make([]byte, w.cfg.FieldSize)
		copy(buf, val)
		w.schema.SetBytes(row, 1, buf)
		t.ops = []storage.FieldOp{storage.SetFieldOp(w.schema, row, 1)}
	}
	return t
}

// ReadTxn builds a read-only transaction over the given rows (ReadOnly
// reports true, so session-fresh replicas may serve it from their fence
// snapshot).
func (w *Workload) ReadTxn(parts, rows []int) *Txn {
	return w.newExplicitTxn(parts, rows, false, nil)
}

// WriteTxn builds a read-modify-write transaction: every access reads
// its row and installs val (padded or truncated to FieldSize) into
// column 1.
func (w *Workload) WriteTxn(parts, rows []int, val []byte) *Txn {
	return w.newExplicitTxn(parts, rows, true, val)
}

func (g *Gen) gen(home int, cross bool) txn.Procedure {
	cfg := g.w.cfg
	b := &genTxn{Txn: Txn{w: g.w, accs: make([]txn.Access, cfg.OpsPerTxn)}}
	t := &b.Txn
	g.rng.Read(g.val)
	g.w.schema.SetBytes(g.row, 1, g.val)
	b.op[0] = storage.SetFieldOpInto(g.w.schema, g.row, 1, b.arg[:0])
	t.ops = b.op[:]
	accs := t.accs
	for i := range accs {
		p := home
		if cross && i > 0 {
			p = g.rng.Intn(cfg.Partitions)
		}
		// Redraw a key the transaction already touches (at most 8 times).
		// A scan of the few keys drawn so far, not a per-transaction map.
		var k storage.Key
		for attempt := 0; ; attempt++ {
			k = g.w.Key(p, g.rng.Intn(cfg.RecordsPerPartition))
			if attempt >= 8 || !hasKey(accs[:i], k) {
				break
			}
		}
		accs[i] = txn.Access{Table: TableID, Part: p, Key: k, Write: i >= cfg.OpsPerTxn-cfg.WritesPerTxn}
	}
	if cross && allSame(accs) {
		// Guarantee the transaction really is cross-partition.
		last := &accs[cfg.OpsPerTxn-1]
		last.Part = (home + 1) % cfg.Partitions
		last.Key = g.w.Key(last.Part, g.rng.Intn(cfg.RecordsPerPartition))
	}
	return t
}

func hasKey(accs []txn.Access, k storage.Key) bool {
	for i := range accs {
		if accs[i].Key == k {
			return true
		}
	}
	return false
}

func allSame(accs []txn.Access) bool {
	for i := range accs[1:] {
		if accs[i+1].Part != accs[0].Part {
			return false
		}
	}
	return true
}

// Mixed implements workload.Gen.
func (g *Gen) Mixed(home int) txn.Procedure {
	return g.gen(home, g.rng.Intn(100) < g.w.cfg.CrossPct)
}

// Single implements workload.Gen.
func (g *Gen) Single(home int) txn.Procedure { return g.gen(home, false) }

// Cross implements workload.Gen.
func (g *Gen) Cross(home int) txn.Procedure { return g.gen(home, true) }
