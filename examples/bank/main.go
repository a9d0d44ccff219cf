// Bank: a custom workload on the public API. Accounts are spread across
// partitions; transfers move money between two accounts, sometimes on
// different partitions (which STAR defers to the single-master phase).
// At the end the example freezes the cluster and checks the
// serializability invariant the paper's protocol must uphold: total
// money is conserved on every replica, across phase switches, OCC
// commits and asynchronous replication.
package main

import (
	"fmt"
	"log"
	"math/rand"
	"time"

	"star"
	"star/internal/storage"
	"star/internal/txn"
	"star/internal/workload"
)

const (
	accountsPerPartition = 64
	initialBalance       = 1000
	crossPct             = 25
)

// bankWorkload implements star.Workload.
type bankWorkload struct {
	parts  int
	schema *star.Schema
}

func newBank(parts int) *bankWorkload {
	return &bankWorkload{
		parts: parts,
		schema: star.NewSchema(
			star.Field{Name: "balance", Type: star.FieldInt64},
		),
	}
}

func (b *bankWorkload) Name() string { return "bank" }

func (b *bankWorkload) BuildDB(nparts int, holds []bool) *star.DB {
	db := star.NewDB(nparts, holds)
	db.AddTable("account", b.schema, false)
	return db
}

func (b *bankWorkload) Load(db *star.DB) {
	tbl := db.TableByName("account")
	db.FillHeld(func(p int) {
		row := b.schema.NewRow()
		b.schema.SetInt64(row, 0, initialBalance)
		f := tbl.Fill(p, accountsPerPartition)
		for i := 0; i < accountsPerPartition; i++ {
			f.Add(star.K2(uint64(p), uint64(i)), storage.MakeTID(1, uint64(i+1)), row)
		}
		f.Done()
	})
}

func (b *bankWorkload) NewGen(seed int64) star.Gen {
	return &bankGen{b: b, rng: rand.New(rand.NewSource(seed))}
}

type bankGen struct {
	b   *bankWorkload
	rng *rand.Rand
}

func (g *bankGen) gen(home int, cross bool) txn.Procedure {
	toPart := home
	if cross {
		toPart = g.rng.Intn(g.b.parts)
		if toPart == home && g.b.parts > 1 {
			toPart = (home + 1) % g.b.parts
		}
	}
	t := &transfer{
		b:      g.b,
		from:   star.K2(uint64(home), uint64(g.rng.Intn(accountsPerPartition))),
		to:     star.K2(uint64(toPart), uint64(g.rng.Intn(accountsPerPartition))),
		fromP:  home,
		toP:    toPart,
		amount: int64(1 + g.rng.Intn(20)),
	}
	if t.from == t.to {
		t.to = star.K2(uint64(toPart), uint64((t.to.Lo+1)%accountsPerPartition))
	}
	return t
}

func (g *bankGen) Mixed(home int) txn.Procedure  { return g.gen(home, g.rng.Intn(100) < crossPct) }
func (g *bankGen) Single(home int) txn.Procedure { return g.gen(home, false) }
func (g *bankGen) Cross(home int) txn.Procedure  { return g.gen(home, true) }

// transfer implements star.Procedure.
type transfer struct {
	b          *bankWorkload
	from, to   star.Key
	fromP, toP int
	amount     int64
}

func (t *transfer) Name() string { return "bank.transfer" }

func (t *transfer) Accesses() []star.Access {
	return []star.Access{
		{Table: 0, Part: t.fromP, Key: t.from, Write: true},
		{Table: 0, Part: t.toP, Key: t.to, Write: true},
	}
}

func (t *transfer) Run(ctx star.Ctx) error {
	src, ok := ctx.Read(0, t.fromP, t.from)
	if !ok {
		return star.ErrConflict
	}
	if t.b.schema.GetInt64(src, 0) < t.amount {
		return star.ErrUserAbort // insufficient funds
	}
	if _, ok := ctx.Read(0, t.toP, t.to); !ok {
		return star.ErrConflict
	}
	ctx.Write(0, t.fromP, t.from, star.AddInt64Op(0, -t.amount))
	ctx.Write(0, t.toP, t.to, star.AddInt64Op(0, t.amount))
	return nil
}

var _ workload.Workload = (*bankWorkload)(nil)

func main() {
	const nodes, workers = 3, 2
	parts := nodes * workers
	wl := newBank(parts)
	cluster, err := star.New(star.Config{
		Nodes:          nodes,
		WorkersPerNode: workers,
		Workload:       wl,
		Iteration:      5 * time.Millisecond,
		Virtual:        true, // deterministic run
		Seed:           7,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer cluster.Close()

	cluster.Run(200 * time.Millisecond)
	cluster.Freeze()
	cluster.Run(50 * time.Millisecond)

	st := cluster.Stats()
	fmt.Printf("transfers committed: %d (%.0f txns/s), conflict/user aborts: %d\n",
		st.Committed, st.Throughput(), st.Aborted)

	if err := cluster.CheckConsistency(); err != nil {
		log.Fatalf("replica divergence: %v", err)
	}
	fmt.Println("replicas consistent across all partitions")

	// Serializability invariant: money is conserved on the full replica.
	total := int64(0)
	db := cluster.DB(0)
	tbl := db.TableByName("account")
	for p := 0; p < parts; p++ {
		for i := 0; i < accountsPerPartition; i++ {
			rec := tbl.Get(p, star.K2(uint64(p), uint64(i)))
			val, _, _ := rec.ReadStable(nil)
			total += wl.schema.GetInt64(val, 0)
		}
	}
	want := int64(parts * accountsPerPartition * initialBalance)
	if total != want {
		log.Fatalf("MONEY NOT CONSERVED: %d != %d", total, want)
	}
	fmt.Printf("money conserved: %d across %d accounts\n", total, parts*accountsPerPartition)
}
