package storage

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// fillChunk caps how many rows a Filler carves from one allocation of
// row bytes, of Records and of key index entries.
const fillChunk = 1024

// Filler puts the rows of an empty partition in place at load time: the
// one way a row reaches a record without Land, for a partition that no
// reader or writer uses yet. Each row lands committed before every epoch,
// as if its epoch's fence had passed — no prior version, nothing in a
// revert bucket — with the secondary index entries Land would derive from
// it. The key index is sized once, rows are copied into chunked slabs
// (each row capped at the schema's width, so an in-place write never
// reaches its neighbour) and Done publishes the partition with one atomic
// store. A deleted row's slab bytes stay until the partition goes.
type Filler struct {
	t     *Table
	p     *Partition
	idx   *idxTable
	chunk int
	rows  []byte
	recs  []Record
	ents  []idxEntry
	vals  []byte // index-value scratch
}

// Fill returns a Filler for partition part, which must never have been
// written; n is how many rows it will take (more cost a regrow of the
// key index, fewer a few idle slots).
func (t *Table) Fill(part, n int) *Filler {
	slots := idxMinSlots
	for n*4 > slots*3 {
		slots *= 2
	}
	return t.fill(part, slots, n)
}

// fill is Fill with the key index's slot count given.
func (t *Table) fill(part, slots, n int) *Filler {
	p := t.Partition(part)
	if p == nil || p.idx.Load().used != 0 {
		panic(fmt.Sprintf("storage: table %s: Fill of partition %d, which is not held or not empty", t.name, part))
	}
	return &Filler{t: t, p: p, idx: newIdxTable(slots), chunk: min(max(n, 1), fillChunk)}
}

// Add puts row at key, committed under tid. The row is copied; it must be
// the schema's width, and the key must be new to the partition.
func (f *Filler) Add(key Key, tid uint64, row []byte) {
	if len(row) != f.t.schema.rowSize {
		panic(fmt.Sprintf("storage: table %s: Fill of a %d-byte row, want %d", f.t.name, len(row), f.t.schema.rowSize))
	}
	if len(f.recs) == cap(f.recs) {
		f.rows = make([]byte, 0, f.chunk*len(row))
		f.recs = make([]Record, 0, f.chunk)
		f.ents = make([]idxEntry, 0, f.chunk)
	}
	at := len(f.rows)
	f.rows = append(f.rows, row...)
	f.recs = f.recs[:len(f.recs)+1]
	r := &f.recs[len(f.recs)-1]
	r.data = f.rows[at:len(f.rows):len(f.rows)]
	r.tid.Store(TIDClean(tid))
	f.ents = append(f.ents, idxEntry{key: key, rec: r})
	if f.idx.needsGrow() {
		f.idx = f.idx.grown()
	}
	f.idx.insertRehash(&f.ents[len(f.ents)-1])
	for i := range f.t.specs {
		f.vals = f.t.specs[i].Extract(f.t.schema, key, r.data, f.vals[:0])
		f.p.oidx[i].fill(f.vals, key)
	}
}

// Done publishes the filled partition. The Filler is spent.
func (f *Filler) Done() {
	f.p.insertMu.Lock()
	f.p.idx.Store(f.idx)
	f.p.insertMu.Unlock()
	*f = Filler{}
}

// FillHeld calls fill once for every partition the database holds, and
// each of also once, on at most GOMAXPROCS goroutines, and returns when
// they are done. Partitions share nothing a Filler writes, so a loader
// may fill them concurrently as long as each partition's content depends
// on the partition alone. A panic in a call (a Filler's duplicate key,
// say) ends its goroutine and is raised again on the caller's.
func (db *DB) FillHeld(fill func(p int), also ...func()) {
	tasks := make(chan func(), db.nparts+len(also))
	for p, h := range db.holds {
		if h {
			tasks <- func() { fill(p) }
		}
	}
	for _, task := range also {
		tasks <- task
	}
	close(tasks)
	var wg sync.WaitGroup
	var panicked atomic.Pointer[any]
	for range min(runtime.GOMAXPROCS(0), len(tasks)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					panicked.CompareAndSwap(nil, &r)
				}
			}()
			for task := range tasks {
				task()
			}
		}()
	}
	wg.Wait()
	if r := panicked.Load(); r != nil {
		panic(*r)
	}
}
