package core

import (
	"bytes"
	"testing"
	"time"

	"star/internal/replication"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/wal"
	"star/internal/wire/prim"
	"star/internal/workload"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

// TestEveryFrameIsAnEnvelope: a record image has one encoding. A TPC-C
// full-mix run with Trim deletes writes its logs, checkpoints and a
// rejoin's catch-up, and every frame body among them is a replication
// envelope — it decodes with replication.DecodeBatch and re-encodes to
// the same bytes with replication.AppendBatch.
func TestEveryFrameIsAnEnvelope(t *testing.T) {
	s := rt.NewSim()
	tap := newTapNet(s, 3)
	dir := t.TempDir()
	e := New(Config{
		RT:             s,
		Nodes:          3,
		WorkersPerNode: 2,
		Workload:       trimMixWL(6),
		Iteration:      2 * time.Millisecond,
		LogDir:         dir,
		Checkpoint:     true,
		Transport:      tap,
		Seed:           3,
	})
	s.Run(40 * time.Millisecond)
	e.FailNode(2)
	s.Run(s.Now() + 30*time.Millisecond)
	e.RequestJoin(2)
	s.Run(s.Now() + 60*time.Millisecond)
	settle(s, e, 20*time.Millisecond)
	s.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	if err := e.CheckReplicaConsistency(); err != nil {
		t.Fatal(err)
	}

	sameBytes := func(what string, body []byte) *replication.Batch {
		t.Helper()
		b, err := replication.DecodeBatch(body)
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		if re := replication.AppendBatch(nil, b); !bytes.Equal(re, body) {
			t.Fatalf("%s: re-encodes to %d bytes, not the %d it was", what, len(re), len(body))
		}
		return b
	}
	// The files are what the directory holds once the logs are closed.
	var files []string
	for node := 0; node < 3; node++ {
		ckpt, segs, err := wal.NewDir(dir, node).Live()
		if err != nil || ckpt == "" {
			t.Fatalf("node %d: no checkpoint in the log directory (%v)", node, err)
		}
		files = append(append(files, ckpt), segs...)
	}
	frames, marks, deletes := 0, 0, 0
	for _, path := range files {
		err := wal.ReadFrames(path, func(body []byte) error {
			b := sameBytes(path, body)
			frames++
			if len(b.Entries) == 0 {
				marks++
			}
			for i := range b.Entries {
				if b.Entries[i].IsOp() {
					t.Fatalf("%s: a log holds an operation entry", path)
				}
				if b.Entries[i].Absent {
					deletes++
				}
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	snapshots := 0
	for _, ev := range tap.ev {
		if snap, ok := ev.m.(*msgSnapshot); ok {
			sameBytes("snapshot", replication.AppendBatch(nil, snap.Rows))
			snapshots++
		}
	}
	t.Logf("%d files, %d frames (%d marks, %d tombstones), %d catch-up messages", len(files), frames, marks, deletes, snapshots)
	if marks == 0 || deletes == 0 || snapshots == 0 {
		t.Fatalf("the run left %d marks, %d tombstones and %d catch-up messages", marks, deletes, snapshots)
	}
}

// columnSnapshotLen is what catching up partition part of db took before
// the envelope: per partitioned table a frame of table, partition and
// count, then for each row a 16-byte key, an 8-byte TID and the row with
// its length.
func columnSnapshotLen(db *storage.DB, part int) int {
	n := 0
	for ti := 0; ti < db.NumTables(); ti++ {
		tbl := db.Table(storage.TableID(ti))
		if tbl.Replicated() {
			continue
		}
		rows := 0
		tbl.Partition(part).Range(func(_ storage.Key, _ uint64, val []byte) bool {
			n += prim.KeyLen + 8 + prim.BytesLen(val)
			rows++
			return true
		})
		n += prim.FrameOverhead + 1 + prim.UvarintLen(uint64(part)) + prim.UvarintLen(uint64(rows))
	}
	return n
}

// recordLogLen is what the entries and marks of a log took as records:
// length and CRC 8 bytes, kind 1, then for a row write table 1, partition
// 4, key 16, TID 8, absent flag 1 and row length 2 before the row; for a
// tombstone the same without the last two and the row; for a mark the
// 8-byte epoch.
func recordLogLen(b *replication.Batch) int {
	if len(b.Entries) == 0 {
		return 8 + 1 + 8
	}
	n := 0
	for i := range b.Entries {
		if b.Entries[i].Absent {
			n += 38
		} else {
			n += 41 + len(b.Entries[i].Row)
		}
	}
	return n
}

// TestEntryFormatBytePins holds what a record image costs now that the
// log, the checkpoint and catch-up carry it as the replication envelope,
// against the formats it replaced: a loaded partition's catch-up, as one
// message, against one key/TID/row column message per table (TPC-C's
// mostly-zero rows pack; YCSB's random text does not), and the log a
// TPC-C full-mix run writes against the same entries as records.
func TestEntryFormatBytePins(t *testing.T) {
	for _, tc := range []struct {
		name string
		wl   workload.Workload
		pct  int
	}{
		{"tpcc", tpcc.New(tpcc.Config{Warehouses: 2, Districts: 10, CustomersPerDistrict: 300, Items: 10000}), 31},
		{"ycsb", ycsb.New(ycsb.Config{Partitions: 2, RecordsPerPartition: 5000}), 88},
	} {
		db := tc.wl.BuildDB(2, nil)
		tc.wl.Load(db)
		envelope, columns := snapshotOf(db, 1, 0, 1).Size(), columnSnapshotLen(db, 1)
		t.Logf("%s catch-up: %d B as an envelope, %d B as columns (%.1f %%)", tc.name, envelope, columns, 100*float64(envelope)/float64(columns))
		if envelope*100 > columns*tc.pct {
			t.Errorf("%s catch-up: %d B, over %d %% of the %d B columns", tc.name, envelope, tc.pct, columns)
		}
	}

	s := rt.NewSim()
	e := New(Config{
		RT:             s,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       trimMixWL(4),
		Iteration:      2 * time.Millisecond,
		LogDir:         t.TempDir(),
		Seed:           5,
	})
	s.Run(60 * time.Millisecond)
	settle(s, e, 10*time.Millisecond)
	s.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	written, records := e.StatsSnapshot().Gauges["wal_file_bytes"], 0
	for node := 0; node < 2; node++ {
		for _, path := range e.LogFiles(node) {
			frames, err := readLog(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range frames {
				records += recordLogLen(b)
			}
		}
	}
	t.Logf("tpcc log: %d B as envelope frames, %d B as records (%.1f %%)", written, records, 100*float64(written)/float64(records))
	if written == 0 || written*100 > int64(records)*36 {
		t.Errorf("tpcc log: %d B, over 36 %% of the %d B records", written, records)
	}
}
