package workload_test

import (
	"encoding/binary"
	"hash/fnv"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"

	"star/internal/storage"
	"star/internal/workload"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

// nodeDigest is what a node's build produced: every partition's checksum
// (rows and secondary index entries) and an order-sensitive hash of each
// held partition's rows as Range visits them, so the key index's slot
// layout is compared too — the partitioned tables' per table and
// partition, the replicated tables' apart.
type nodeDigest struct {
	sums, ranges, shared []uint64
}

func digest(db *storage.DB) nodeDigest {
	var d nodeDigest
	for p := 0; p < db.NumPartitions(); p++ {
		d.sums = append(d.sums, db.PartitionChecksum(p))
	}
	for id := 0; id < db.NumTables(); id++ {
		tbl := db.Table(storage.TableID(id))
		if tbl.Replicated() {
			d.shared = append(d.shared, rangeHash(tbl.Partition(0)))
			continue
		}
		for p := 0; p < db.NumPartitions(); p++ {
			if part := tbl.Partition(p); part != nil {
				d.ranges = append(d.ranges, rangeHash(part))
			}
		}
	}
	return d
}

func rangeHash(part *storage.Partition) uint64 {
	h := fnv.New64a()
	part.Range(func(key storage.Key, tid uint64, val []byte) bool {
		h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, key.Hi), key.Lo), tid))
		h.Write(val)
		return true
	})
	return h.Sum64()
}

// TestFillHeldIndependentOfProcs builds a cluster's nodes (BuildDBs) —
// the first generates half the partitions, the second the rest (its Load
// generating the replicated tables again) and the third copies every
// partition and replicated table, running no Load — at one processor and
// at four, and requires the same rows, TIDs, index entries and Range
// order everywhere: a partition's content is a function of the partition
// alone, however many of them fill at once, and a copy is its source
// slot for slot.
func TestFillHeldIndependentOfProcs(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, c := range []struct {
		w      workload.Workload
		nparts int
	}{
		{ycsb.New(ycsb.Config{Partitions: 5, RecordsPerPartition: 3000}), 5},
		{tpcc.New(tpcc.Config{Warehouses: 4, Districts: 2, CustomersPerDistrict: 60, Items: 500}), 4},
	} {
		half, all := make([]bool, c.nparts), make([]bool, c.nparts)
		for p := range all {
			half[p], all[p] = p%2 == 0, true
		}
		var want []nodeDigest
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			for node, db := range workload.BuildDBs(c.w, c.nparts, [][]bool{half, all, all}) {
				got := digest(db)
				if procs == 1 {
					want = append(want, got)
				} else if !got.equal(want[node]) {
					t.Fatalf("%s node %d: GOMAXPROCS=4 built %+v, GOMAXPROCS=1 built %+v", c.w.Name(), node, got, want[node])
				}
			}
		}
		if !want[2].equal(want[1]) {
			t.Fatalf("%s: the copying node %+v differs from the generating node %+v", c.w.Name(), want[2], want[1])
		}
		if !slices.Equal(want[0].shared, want[2].shared) {
			t.Fatalf("%s: the copied replicated tables %x differ from the generated %x", c.w.Name(), want[2].shared, want[0].shared)
		}
	}
}

func (d nodeDigest) equal(o nodeDigest) bool {
	return slices.Equal(d.sums, o.sums) && slices.Equal(d.ranges, o.ranges) && slices.Equal(d.shared, o.shared)
}

// TestFillHeldPanicReachesCaller requires a fill that panics — here a
// Filler meeting a duplicate key in one partition — to panic on the
// goroutine that called FillHeld, after every other partition's fill ran,
// instead of crashing the process from a helper goroutine.
func TestFillHeldPanicReachesCaller(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	w := ycsb.New(ycsb.Config{Partitions: 6, RecordsPerPartition: 10})
	db := w.BuildDB(6, nil)
	tbl := db.Table(ycsb.TableID)
	var done atomic.Int32
	got := func() (r any) {
		defer func() { r = recover() }()
		db.FillHeld(func(p int) {
			f := tbl.Fill(p, 2)
			f.Add(w.Key(p, 0), storage.MakeTID(1, 1), w.Schema().NewRow())
			if p == 3 {
				f.Add(w.Key(p, 0), storage.MakeTID(1, 2), w.Schema().NewRow())
			}
			f.Done()
			done.Add(1)
		})
		return nil
	}()
	if s, ok := got.(string); !ok || !strings.Contains(s, "present key") {
		t.Fatalf("FillHeld recovered %v, want the duplicate-key panic", got)
	}
	if n := done.Load(); n != 5 {
		t.Fatalf("%d fills completed beside the panicking one, want 5", n)
	}
}
