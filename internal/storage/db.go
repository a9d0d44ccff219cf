package storage

import "fmt"

// DB is one node's copy of the database: every table's schema plus the
// hash partitions this node materialises. A full replica holds every
// partition; a partial replica holds a subset (paper Fig. 2).
type DB struct {
	tables []*Table
	byName map[string]*Table
	nparts int
	holds  []bool
}

// NewDB creates an empty database with nparts partitions. holds[p] says
// whether this node materialises partition p; nil means all (full
// replica).
func NewDB(nparts int, holds []bool) *DB {
	if holds == nil {
		holds = make([]bool, nparts)
		for i := range holds {
			holds[i] = true
		}
	}
	if len(holds) != nparts {
		panic(fmt.Sprintf("storage: holds length %d != nparts %d", len(holds), nparts))
	}
	return &DB{byName: make(map[string]*Table), nparts: nparts, holds: append([]bool(nil), holds...)}
}

// NumPartitions returns the partition count of the database.
func (db *DB) NumPartitions() int { return db.nparts }

// Holds reports whether this node materialises partition p.
func (db *DB) Holds(p int) bool { return db.holds[p] }

// SetHolds changes partition residency (used when re-mastering lost
// partitions onto a full replica during recovery).
func (db *DB) SetHolds(p int, h bool) {
	db.holds[p] = h
	for _, t := range db.tables {
		if t.replicated {
			continue
		}
		if h && t.parts[p] == nil {
			t.parts[p] = t.newPart()
		}
	}
}

// AddTable registers a table. Replicated tables have one logical
// partition materialised regardless of holds.
func (db *DB) AddTable(name string, schema *Schema, replicated bool) *Table {
	if _, dup := db.byName[name]; dup {
		panic("storage: duplicate table " + name)
	}
	t := &Table{
		id:         TableID(len(db.tables)),
		name:       name,
		schema:     schema,
		replicated: replicated,
	}
	if replicated {
		t.parts = []*Partition{t.newPart()}
	} else {
		t.parts = make([]*Partition, db.nparts)
		for p := 0; p < db.nparts; p++ {
			if db.holds[p] {
				t.parts[p] = t.newPart()
			}
		}
	}
	db.tables = append(db.tables, t)
	db.byName[name] = t
	return t
}

// FillFrom fills partition p of every partitioned table, each never
// written, with the present rows of src's copy of it (src is a database
// of the same schema). The rows go in src's slot order into a key index
// of src's size, so a copy of a partition nothing has deleted from lays
// its slots out as src does and ranges in src's order.
func (db *DB) FillFrom(p int, src *DB) {
	for i, t := range db.tables {
		if t.replicated {
			continue
		}
		from := src.tables[i].parts[p].idx.Load()
		f := t.fill(p, len(from.slots), from.live())
		mask, start := len(from.slots)-1, 0
		for from.slots[start].Load() != nil { // a slot array is at least 1/4 empty
			start++
		}
		var buf []byte
		for j := start + 1; j <= start+len(from.slots); j++ {
			e := from.slots[j&mask].Load()
			if e == nil || e == idxTombstone {
				continue
			}
			val, tid, present := e.rec.ReadStable(buf)
			if buf = val; present {
				f.Add(e.key, tid, val)
			}
		}
		f.Done()
	}
}

// Table returns the table with the given id.
func (db *DB) Table(id TableID) *Table { return db.tables[int(id)] }

// TableByName returns the named table, or nil.
func (db *DB) TableByName(name string) *Table { return db.byName[name] }

// NumTables returns the table count.
func (db *DB) NumTables() int { return len(db.tables) }

// RevertEpoch restores all partitions to their pre-epoch state.
// Returns the number of reverted records.
func (db *DB) RevertEpoch(epoch uint64) int {
	n := 0
	for _, t := range db.tables {
		for _, p := range t.parts {
			if p != nil {
				n += p.RevertEpoch(epoch)
			}
		}
	}
	return n
}

// CommitEpochBefore discards revert information for records written
// before epoch, keeping newer-epoch snapshots revertable (see
// Partition.CommitEpochBefore).
func (db *DB) CommitEpochBefore(epoch uint64) {
	for _, t := range db.tables {
		for _, p := range t.parts {
			if p != nil {
				p.CommitEpochBefore(epoch)
			}
		}
	}
}

// CommitEpoch discards revert information across all partitions: it
// commits every epoch.
func (db *DB) CommitEpoch() { db.CommitEpochBefore(^uint64(0)) }

// PartitionChecksum folds every present record of partition p (across
// all partitioned tables) AND every live secondary-index entry into an
// order-independent checksum. Replicas holding the same partition must
// agree after a replication fence; tests use this to check consistency,
// and including the index entries makes every convergence check (the
// scripted determinism pins, CheckReplicaConsistency, the kill/restart
// checksum comparison) also assert that secondary indexes converged.
func (db *DB) PartitionChecksum(p int) uint64 {
	var sum uint64
	for _, t := range db.tables {
		if t.replicated {
			continue
		}
		part := t.parts[p]
		if part == nil {
			continue
		}
		tid := uint64(t.id)
		part.Range(func(key Key, recTID uint64, val []byte) bool {
			h := fnv64(tid, key, recTID, val)
			sum += h // addition is order-independent
			return true
		})
		for i := range t.specs {
			ixid := tid<<8 | uint64(i) | 1<<63 // distinct domain from rows
			part.oidx[i].Range(func(val []byte, pk Key) bool {
				sum += fnv64(ixid, pk, 0, val)
				return true
			})
		}
	}
	return sum
}

func fnv64(tableID uint64, key Key, tid uint64, val []byte) uint64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(v uint64) {
		for i := 0; i < 8; i++ {
			h ^= v & 0xff
			h *= prime
			v >>= 8
		}
	}
	mix(tableID)
	mix(key.Hi)
	mix(key.Lo)
	mix(tid)
	for _, b := range val {
		h ^= uint64(b)
		h *= prime
	}
	return h
}
