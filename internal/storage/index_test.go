package storage

import (
	"sync"
	"sync/atomic"
	"testing"
)

// TestIndexGrowKeepsAllKeys drives the index through many doublings and
// verifies every inserted key stays reachable.
func TestIndexGrowKeepsAllKeys(t *testing.T) {
	p := newPartition(0)
	const n = 10_000
	recs := make([]*Record, n)
	for i := 0; i < n; i++ {
		recs[i] = p.GetOrCreate(K2(uint64(i)*7, uint64(i)), 2)
	}
	for i := 0; i < n; i++ {
		if got := p.Get(K2(uint64(i)*7, uint64(i))); got != recs[i] {
			t.Fatalf("key %d: got %p want %p", i, got, recs[i])
		}
	}
	if p.Get(K2(1, n+1)) != nil {
		t.Fatal("absent key must return nil")
	}
}

// TestIndexConcurrentReadersAndInserter is the single-master-phase shape:
// one writer inserting (triggering copy-on-grow) while readers probe
// latch-free. Run with -race.
func TestIndexConcurrentReadersAndInserter(t *testing.T) {
	p := newPartition(0)
	const n = 20_000
	var published atomic.Int64
	published.Store(-1) // nothing inserted yet
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			p.GetOrCreate(K1(uint64(i)), 2)
			published.Store(int64(i))
		}
	}()
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed uint64) {
			defer wg.Done()
			h := seed
			for i := 0; i < 50_000; i++ {
				h = h*0x9e3779b97f4a7c15 + 1
				hi := published.Load()
				if hi < 0 {
					continue
				}
				k := h % uint64(hi+1)
				// A key at or below the published watermark must be found.
				if p.Get(K1(k)) == nil {
					t.Errorf("published key %d not found", k)
					return
				}
			}
		}(uint64(r) + 1)
	}
	wg.Wait()
}

// TestIndexConcurrentGetOrCreate checks duplicate suppression when two
// goroutines race to create the same keys.
func TestIndexConcurrentGetOrCreate(t *testing.T) {
	p := newPartition(0)
	const n = 5_000
	out := [2][]*Record{}
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		out[g] = make([]*Record, n)
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				out[g][i] = p.GetOrCreate(K1(uint64(i)), 2)
			}
		}(g)
	}
	wg.Wait()
	for i := 0; i < n; i++ {
		if out[0][i] != out[1][i] {
			t.Fatalf("key %d: racing GetOrCreate returned distinct records", i)
		}
	}
}

// TestIndexRevertCommitInterleaving interleaves epochs that insert keys
// and then either commit or revert, with concurrent readers, checking
// that reverted inserts disappear while committed ones survive — and
// that a reverted key can be re-inserted afterwards.
func TestIndexRevertCommitInterleaving(t *testing.T) {
	db := NewDB(1, nil)
	tbl := db.AddTable("t", testSchema(), false)
	p := tbl.Partition(0)
	row := tbl.Schema().NewRow()

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var buf []byte
			for {
				select {
				case <-stop:
					return
				default:
				}
				for k := uint64(0); k < 64; k++ {
					if rec := p.Get(K1(k)); rec != nil {
						v, _, _ := rec.ReadStable(buf)
						buf = v
					}
				}
			}
		}()
	}

	seq := uint64(1)
	for epoch := uint64(2); epoch < 42; epoch++ {
		base := epoch * 100
		for k := uint64(0); k < 8; k++ {
			seq++
			if _, ok := tbl.Insert(0, K1(base+k), epoch, MakeTID(epoch, seq), row); !ok {
				t.Fatalf("epoch %d: insert %d failed", epoch, k)
			}
		}
		if epoch%2 == 0 {
			p.CommitEpochBefore(^uint64(0)) // every epoch
			for k := uint64(0); k < 8; k++ {
				if p.Get(K1(base+k)) == nil {
					t.Fatalf("epoch %d: committed insert %d vanished", epoch, k)
				}
			}
		} else {
			p.RevertEpoch(epoch)
			for k := uint64(0); k < 8; k++ {
				if p.Get(K1(base+k)) != nil {
					t.Fatalf("epoch %d: reverted insert %d still visible", epoch, k)
				}
			}
			// Tombstoned slots must be reusable.
			seq++
			if _, ok := tbl.Insert(0, K1(base), epoch+100, MakeTID(epoch+100, seq), row); !ok {
				t.Fatalf("epoch %d: re-insert after revert failed", epoch)
			}
			if p.Get(K1(base)) == nil {
				t.Fatalf("epoch %d: re-inserted key not found", epoch)
			}
			p.CommitEpochBefore(^uint64(0)) // every epoch
		}
	}
	close(stop)
	wg.Wait()
}

// TestIndexGetZeroAllocs pins the latch-free read path's allocation
// count at zero.
func TestIndexGetZeroAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	p := newPartition(0)
	for i := uint64(0); i < 1000; i++ {
		p.GetOrCreate(K1(i), 2)
	}
	var sink *Record
	allocs := testing.AllocsPerRun(10_000, func() {
		sink = p.Get(K1(123))
	})
	if sink == nil {
		t.Fatal("key not found")
	}
	if allocs != 0 {
		t.Fatalf("Partition.Get allocates %v per call, want 0", allocs)
	}
}

// TestIndexChurnCompactsTombstones drives insert→delete→fence cycles
// over a bounded live set and pins the tombstone-slot accounting: the
// slot array must not grow monotonically under churn, tombstones must
// sit below the compaction threshold after every fence, and probe
// lengths for live keys must stay short — a leak of dead slots shows up
// here as unbounded probing long before it shows up as memory.
func TestIndexChurnCompactsTombstones(t *testing.T) {
	db, tbl := newTestDB(t, 1, nil)
	p := tbl.Partition(0)
	row := testSchema().NewRow()
	const permanent = 64 // keys that live forever
	const churn = 64     // keys inserted and deleted every cycle
	seq, epoch := uint64(0), uint64(2)
	for k := uint64(0); k < permanent; k++ {
		seq++
		if _, ok := tbl.Insert(0, K1(k), epoch, MakeTID(epoch, seq), row); !ok {
			t.Fatalf("permanent insert %d failed", k)
		}
	}
	db.CommitEpoch()
	for cycle := 0; cycle < 50; cycle++ {
		epoch++
		base := uint64(cycle+1) * 1000
		for k := uint64(0); k < churn; k++ {
			seq++
			if _, ok := tbl.Insert(0, K1(base+k), epoch, MakeTID(epoch, seq), row); !ok {
				t.Fatalf("cycle %d: insert %d failed", cycle, k)
			}
		}
		db.CommitEpoch()
		epoch++
		for k := uint64(0); k < churn; k++ {
			seq++
			if !tbl.Delete(0, K1(base+k), epoch, MakeTID(epoch, seq)) {
				t.Fatalf("cycle %d: delete %d failed", cycle, k)
			}
		}
		db.CommitEpoch() // fence: deletes reclaimed, slots tombstoned
	}

	idx := p.idx.Load()
	// 3200 churned keys passed through; the live set never exceeded 128.
	// An index that never recycled or compacted tombstones would sit at
	// ≥4096 slots (3264 used keys at ≤75% occupancy).
	if n := len(idx.slots); n > 1024 {
		t.Fatalf("slot array at %d slots for %d live keys: churn is leaking slots", n, idx.live())
	}
	if idx.live() != permanent {
		t.Fatalf("live()=%d, want %d", idx.live(), permanent)
	}
	if idx.dead*idxCompactDen > len(idx.slots)*idxCompactNum {
		t.Fatalf("tombstones above compaction threshold after a fence: dead=%d slots=%d", idx.dead, len(idx.slots))
	}
	// Probe-length regression: live keys must resolve in a handful of
	// steps (≤50% occupancy after compaction).
	maxProbe := 0
	mask := uint64(len(idx.slots) - 1)
	for k := uint64(0); k < permanent; k++ {
		key := K1(k)
		probes := 1
		for i := hashKey(key) & mask; ; i = (i + 1) & mask {
			e := idx.slots[i].Load()
			if e == nil {
				t.Fatalf("live key %d fell out of the index", k)
			}
			if e != idxTombstone && e.key == key {
				break
			}
			probes++
			if probes > len(idx.slots) {
				t.Fatalf("probe for key %d wrapped the table", k)
			}
		}
		if probes > maxProbe {
			maxProbe = probes
		}
	}
	if maxProbe > 16 {
		t.Fatalf("max probe length %d for %d live keys in %d slots", maxProbe, permanent, len(idx.slots))
	}
}

func BenchmarkPartitionGet(b *testing.B) {
	p := newPartition(0)
	const n = 100_000
	for i := uint64(0); i < n; i++ {
		p.GetOrCreate(K1(i), 2)
	}
	b.ReportAllocs()
	b.ResetTimer()
	h := uint64(12345)
	for i := 0; i < b.N; i++ {
		h = h*0x9e3779b97f4a7c15 + 1
		if p.Get(K1(h%n)) == nil {
			b.Fatal("miss")
		}
	}
}
