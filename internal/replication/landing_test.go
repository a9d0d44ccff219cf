package replication_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"

	"star/internal/occ"
	"star/internal/replication"
	"star/internal/storage"
	"star/internal/txn"
	"star/internal/wal"
)

// The differential test: one TPC-C-shaped write sequence reaches a
// partition through every path the system has — OCC commit, serial
// commit, replication apply of the op/value stream, Thomas-rule replay of
// the post-images in any order, log recovery — and every path must leave
// the same partition behind, rows, TIDs, secondary indexes and revert
// state alike, because all of them land a write through
// storage.Table.Land.

// Order-table columns. customer and tag are indexed; carrier, amount and
// note are what updates touch.
const (
	fCustomer = iota
	fCarrier
	fAmount
	fTag
	fNote
)

const landParts = 2

func landingDB(load bool) *storage.DB {
	db := storage.NewDB(landParts, nil)
	tbl := db.AddTable("order", storage.NewSchema(
		storage.Field{Name: "customer", Type: storage.FieldUint64},
		storage.Field{Name: "carrier", Type: storage.FieldInt64},
		storage.Field{Name: "amount", Type: storage.FieldFloat64},
		storage.Field{Name: "tag", Type: storage.FieldBytes, Cap: 8},
		storage.Field{Name: "note", Type: storage.FieldBytes, Cap: 24},
	), false)
	tbl.AddIndex(storage.IndexSpec{Name: "by_customer", Extract: func(s *storage.Schema, _ storage.Key, row, dst []byte) []byte {
		return binary.BigEndian.AppendUint64(dst, s.GetUint64(row, fCustomer))
	}})
	tbl.AddIndex(storage.IndexSpec{Name: "by_tag", Extract: func(s *storage.Schema, _ storage.Key, row, dst []byte) []byte {
		return append(dst, s.GetBytes(row, fTag)...)
	}})
	if load {
		for p := 0; p < landParts; p++ {
			for k := uint64(1); k <= 6; k++ {
				tbl.Insert(p, storage.K1(k), 1, storage.MakeTID(1, k), orderRow(tbl.Schema(), 100+k%3, "t"+string(rune('a'+k%2)), 10))
			}
		}
		db.CommitEpoch()
	}
	return db
}

func orderRow(s *storage.Schema, customer uint64, tag string, amount float64) []byte {
	row := s.NewRow()
	s.SetUint64(row, fCustomer, customer)
	s.SetString(row, fTag, tag)
	s.SetFloat64(row, fAmount, amount)
	return row
}

// landingTxns is the sequence, per partition: inserts that add to both
// indexes, field-op updates (one with no ops at all: it still moves the
// TID, one on an indexed column: it moves that index's entry; bytes
// columns set to a shorter value than they held, and an indexed one),
// deletes of a loaded row and of a row inserted this epoch, and a
// re-insert of the deleted key with other indexed fields. Under the
// Thomas rule a replica may never see the delete between the key's two
// row images, so the second image lands over a present record and must
// move its entries.
func landingTxns(s *storage.Schema) []func(*txn.RWSet) {
	setBytes := func(field int, v string) storage.FieldOp {
		row := s.NewRow()
		s.SetString(row, field, v)
		return storage.SetFieldOp(s, row, field)
	}
	var txns []func(*txn.RWSet)
	for part := 0; part < landParts; part++ {
		p := part
		k := storage.K1
		txns = append(txns,
			func(set *txn.RWSet) {
				set.AddInsert(0, p, k(10), orderRow(s, 200, "new", 1))
				set.AddInsert(0, p, k(11), orderRow(s, 101, "ta", 2))
			},
			func(set *txn.RWSet) {
				set.AddWrite(0, p, k(1), storage.AddInt64Op(fCarrier, 7), storage.AddFloat64Op(fAmount, -2.5))
				set.AddWrite(0, p, k(2)) // zero ops
				set.AddWrite(0, p, k(4), storage.PrependOp(fNote, []byte("paid;")))
				set.AddWrite(0, p, k(5), storage.PrependOp(fTag, []byte("z"))) // indexed
			},
			func(set *txn.RWSet) { set.AddDelete(0, p, k(3)) },
			func(set *txn.RWSet) {
				set.AddInsert(0, p, k(3), orderRow(s, 150, "tz", 99)) // k3 loaded as customer 100, tag tb
				set.AddWrite(0, p, k(1), storage.SetInt64Op(fCarrier, 3))
				set.AddWrite(0, p, k(4), setBytes(fNote, "ok")) // over "paid;"
				set.AddWrite(0, p, k(6), setBytes(fTag, "set")) // indexed
			},
			func(set *txn.RWSet) {
				set.AddDelete(0, p, k(10))
				set.AddWrite(0, p, k(11), storage.PrependOp(fNote, []byte("x")), storage.AddFloat64Op(fAmount, 40))
				set.AddWrite(0, p, k(4), storage.PrependOp(fNote, []byte("late;")))
			},
		)
	}
	return txns
}

// landed is what the OCC path shipped: the stream a master sends in the
// partitioned phase (ops for updates, values for inserts and deletes) and
// the post-image of every write (what the single-master phase ships and
// what every log holds).
type landed struct {
	stream []replication.Entry
	images []replication.Entry
}

// landingPath builds a loaded database and lands the sequence on it one
// way, leaving epoch 2 in flight unless the path commits it itself (then
// there is nothing left to revert).
type landingPath struct {
	name      string
	committed bool
	build     func(t *testing.T) *storage.DB
}

type commitFn func(*storage.DB, *txn.RWSet, uint64, *occ.TIDGen, bool) (uint64, bool)

func commitAll(t *testing.T, db *storage.DB, commit commitFn) landed {
	t.Helper()
	var out landed
	var gen occ.TIDGen
	var set txn.RWSet
	for i, add := range landingTxns(db.Table(0).Schema()) {
		set.Reset()
		add(&set)
		tid, ok := commit(db, &set, 2, &gen, true)
		if !ok {
			t.Fatalf("txn %d refused", i)
		}
		out.stream = append(out.stream, replication.OpEntries(&set, tid)...)
		out.images = append(out.images, replication.ValueEntries(&set, tid)...)
	}
	return out
}

func checksums(db *storage.DB) [landParts]uint64 {
	var out [landParts]uint64
	for p := range out {
		out[p] = db.PartitionChecksum(p)
	}
	return out
}

func TestEveryPathLandsTheSamePartition(t *testing.T) {
	loaded := checksums(landingDB(true))
	ref := landingDB(true)
	shipped := commitAll(t, ref, occ.Commit)
	// Stale duplicates, as a retried envelope or a second log would hold
	// them: k11's insert image (since updated) and k3's tombstone (since
	// re-inserted). Every Thomas path must drop them.
	var stale []replication.Entry
	seen := map[[2]uint64]bool{}
	for _, e := range shipped.images {
		id := [2]uint64{uint64(e.Part), e.Key.Lo}
		if (e.Key == storage.K1(11) || e.Key == storage.K1(3) && e.Absent) && !seen[id] {
			seen[id] = true
			stale = append(stale, e)
		}
	}
	if len(stale) != 2*landParts {
		t.Fatalf("picked %d stale duplicates, want %d", len(stale), 2*landParts)
	}

	paths := []landingPath{
		{"occ.Commit", false, func(t *testing.T) *storage.DB {
			db := landingDB(true)
			commitAll(t, db, occ.Commit)
			return db
		}},
		{"occ.CommitSerial", false, func(t *testing.T) *storage.DB {
			db := landingDB(true)
			commitAll(t, db, occ.CommitSerial)
			return db
		}},
		{"replication.ApplyInto", false, func(t *testing.T) *storage.DB {
			db := landingDB(true)
			var buf []byte
			for i := range shipped.stream {
				row, _, err := replication.ApplyInto(db, 2, &shipped.stream[i], buf, true)
				if err != nil {
					t.Fatal(err)
				}
				// §5: an operation entry's post-image is the row the
				// master collected at commit.
				if shipped.stream[i].IsOp() {
					if !bytes.Equal(row, shipped.images[i].Row) {
						t.Fatalf("entry %d: op→value image differs from the master's", i)
					}
					buf = row
				}
			}
			for i := range stale {
				if _, _, err := replication.ApplyInto(db, 2, &stale[i], nil, false); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}},
		{"snapshot rows", false, func(t *testing.T) *storage.DB {
			// A catch-up (core's applySnapshot): the donor's present rows,
			// landed under the Thomas rule over what the node holds.
			db := landingDB(true)
			for p := 0; p < landParts; p++ {
				ref.Table(0).Partition(p).Range(func(key storage.Key, tid uint64, row []byte) bool {
					if _, err := db.Table(0).LandThomas(p, key, 2, tid, storage.Write{Kind: storage.WriteRow, Row: row}, nil); err != nil {
						t.Fatal(err)
					}
					return true
				})
			}
			return db
		}},
		{"wal.Recover", true, func(t *testing.T) *storage.DB {
			dir := t.TempDir()
			ckpt := filepath.Join(dir, "ckpt")
			if _, err := wal.WriteCheckpoint(landingDB(true), ckpt, 1); err != nil {
				t.Fatal(err)
			}
			// Two logs, the second holding the duplicates first: replay
			// order is not commit order.
			logs := []string{filepath.Join(dir, "a.log"), filepath.Join(dir, "b.log")}
			for li, ents := range [][]replication.Entry{shipped.images, stale} {
				l, err := wal.Create(logs[1-li])
				if err != nil {
					t.Fatal(err)
				}
				for _, e := range ents {
					if e.Absent {
						l.AppendDelete(e.Table, e.Part, e.Key, e.TID)
					} else {
						l.AppendWrite(e.Table, e.Part, e.Key, e.TID, false, e.Row)
					}
				}
				l.AppendEpochMark(2)
				if err := l.Close(); err != nil {
					t.Fatal(err)
				}
			}
			db := landingDB(false)
			if _, _, err := wal.Recover(db, ckpt, logs); err != nil {
				t.Fatal(err)
			}
			return db
		}},
	}

	for seed := int64(1); seed <= 8; seed++ {
		paths = append(paths, landingPath{fmt.Sprintf("Table.LandThomas shuffled %d", seed), false, func(t *testing.T) *storage.DB {
			db := landingDB(true)
			all := append(append([]replication.Entry(nil), shipped.images...), stale...)
			rand.New(rand.NewSource(seed)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })
			for i := range all {
				e := &all[i]
				if _, err := db.Table(e.Table).LandThomas(int(e.Part), e.Key, 2, e.TID, e.Write(), nil); err != nil {
					t.Fatal(err)
				}
			}
			return db
		}})
	}

	ref.CommitEpochBefore(3)
	want := checksums(ref)
	if want == loaded {
		t.Fatal("the sequence changed nothing")
	}
	// The reference's indexes are what its rows say: its rows, loaded
	// into an empty database, index to the same checksums.
	fresh := landingDB(false)
	for p := 0; p < landParts; p++ {
		ref.Table(0).Partition(p).Range(func(key storage.Key, tid uint64, row []byte) bool {
			fresh.Table(0).Insert(p, key, 1, tid, row)
			return true
		})
	}
	if got := checksums(fresh); got != want {
		t.Fatalf("occ.Commit's partitions %x, its rows loaded afresh %x: an index entry did not follow its row", want, got)
	}
	for _, path := range paths {
		t.Run(path.name, func(t *testing.T) {
			db := path.build(t)
			db.CommitEpochBefore(3)
			if got := checksums(db); got != want {
				t.Fatalf("landed partitions %x, occ.Commit's %x", got, want)
			}
			if path.committed {
				return
			}
			// The epoch fails instead: everything it landed goes, rows,
			// index entries and the slots its inserts created.
			db = path.build(t)
			db.RevertEpoch(2)
			if got := checksums(db); got != loaded {
				t.Fatalf("reverted partitions %x, loaded %x", got, loaded)
			}
			for p := 0; p < landParts; p++ {
				for _, k := range []uint64{10, 11} {
					if db.Table(0).Get(p, storage.K1(k)) != nil {
						t.Fatalf("partition %d: the slot of key %d, inserted in the reverted epoch, survived", p, k)
					}
				}
			}
		})
	}
}
