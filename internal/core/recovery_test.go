package core

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"

	"star/internal/replication"
	"star/internal/rt"
	"star/internal/storage"
	"star/internal/wal"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

// TestCase4DiskRecovery exercises §4.5.3 case 4 end to end: the cluster
// runs with real per-thread recovery logs; after a total stop, a fresh
// full-replica database is rebuilt from the full replica's log files
// alone and must match the in-memory state at the last durable epoch.
func TestCase4DiskRecovery(t *testing.T) {
	dir := t.TempDir()
	s := rt.NewSim()
	wl := ycsb.New(ycsb.Config{
		Partitions:          6,
		RecordsPerPartition: 128,
		CrossPct:            20,
	})
	e := New(Config{
		RT:             s,
		Nodes:          3,
		WorkersPerNode: 2,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		LogDir:         dir,
		Seed:           9,
	})
	s.Run(40 * time.Millisecond)
	// Freeze and let several more fences pass so every flushed entry is
	// covered by a durable epoch mark.
	e.Freeze()
	s.Run(s.Now() + 20*time.Millisecond)
	s.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	if e.Stats().Committed == 0 {
		t.Fatal("no commits")
	}
	logs := e.LogFiles(0)
	if len(logs) == 0 {
		t.Fatal("full replica wrote no log files")
	}
	// wal_file_bytes is what the log files took, to the byte; log_bytes
	// is the cost model's charge for the same writes, len(row)+32 each.
	var onDisk int64
	for node := 0; node < 3; node++ {
		for _, path := range e.LogFiles(node) {
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			onDisk += fi.Size()
		}
	}
	if g := e.StatsSnapshot().Gauges; g["wal_file_bytes"] != onDisk || g["log_bytes"] == 0 {
		t.Fatalf("wal_file_bytes=%d log_bytes=%d, log files hold %d bytes", g["wal_file_bytes"], g["log_bytes"], onDisk)
	}

	// "Power outage": rebuild node 0 from disk alone.
	recovered := wl.BuildDB(6, nil)
	wl.Load(recovered) // checkpoint-equivalent: the initial load
	epoch, applied, err := wal.Recover(recovered, "", logs)
	if err != nil {
		t.Fatal(err)
	}
	if epoch < 2 || applied == 0 {
		t.Fatalf("recovered epoch=%d applied=%d", epoch, applied)
	}
	for p := 0; p < 6; p++ {
		if got, want := recovered.PartitionChecksum(p), e.DB(0).PartitionChecksum(p); got != want {
			t.Fatalf("partition %d: recovered state %x != live state %x", p, got, want)
		}
	}
}

// TestReplicaLogsRecoverEveryNode rebuilds EVERY node — the full replica
// and both partial ones — from its own log files alone, under asynchronous
// and synchronous replication: whatever a node applied it also logged, so
// each held partition recovers to the live state. (SYNC STAR used to apply
// single-master batches through an applier without a log: replicas charged
// log_bytes for those writes and wrote none of them.)
func TestReplicaLogsRecoverEveryNode(t *testing.T) {
	for _, syncRepl := range []bool{false, true} {
		t.Run(fmt.Sprintf("SyncRepl=%v", syncRepl), func(t *testing.T) {
			s := rt.NewSim()
			wl := ycsb.New(ycsb.Config{Partitions: 6, RecordsPerPartition: 128, CrossPct: 20})
			e := New(Config{
				RT:             s,
				Nodes:          3,
				WorkersPerNode: 2,
				Workload:       wl,
				Iteration:      2 * time.Millisecond,
				LogDir:         t.TempDir(),
				SyncRepl:       syncRepl,
				Seed:           9,
			})
			s.Run(40 * time.Millisecond)
			e.Freeze()
			s.Run(s.Now() + 20*time.Millisecond)
			s.Stop()
			if err := e.CloseLogs(); err != nil {
				t.Fatal(err)
			}
			if e.Stats().Committed == 0 {
				t.Fatal("no commits")
			}
			for node := 0; node < 3; node++ {
				holds := e.Topology().HoldsMask(node)
				recovered := wl.BuildDB(6, holds)
				wl.Load(recovered)
				if _, applied, err := wal.Recover(recovered, "", e.LogFiles(node)); err != nil || applied == 0 {
					t.Fatalf("node %d: applied=%d err=%v", node, applied, err)
				}
				for p, held := range holds {
					if got, want := recovered.PartitionChecksum(p), e.DB(node).PartitionChecksum(p); held && got != want {
						t.Errorf("node %d partition %d: recovered from its own logs %x != live %x", node, p, got, want)
					}
				}
			}
		})
	}
}

// TestRevertedEpochStaysOutOfTheLog fails a node mid-run on the full
// TPC-C mix: the survivors revert the in-flight epoch and retry it under
// the same number, so their logs hold the aborted attempt's rows behind
// an epoch the retry later marks durable. Recovering each survivor from
// its own logs must still give the live state: inserts the retry never
// redid stay out.
func TestRevertedEpochStaysOutOfTheLog(t *testing.T) {
	s := rt.NewSim()
	cfg := tpcc.Config{Warehouses: 6, Districts: 2, CustomersPerDistrict: 32, Items: 64}
	cfg.SetFullMix()
	wl := tpcc.New(cfg)
	e := New(Config{RT: s, Nodes: 3, WorkersPerNode: 2, Workload: wl, Iteration: 2 * time.Millisecond, LogDir: t.TempDir(), Seed: 1})
	s.Run(20 * time.Millisecond)
	e.FailNode(2)
	s.Run(s.Now() + 300*time.Millisecond)
	e.Freeze()
	s.Run(s.Now() + 100*time.Millisecond)
	s.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	if e.nodes[0].view.Load().Up(2) || e.Stats().Committed == 0 {
		t.Fatal("the cluster did not carry on past the failure")
	}
	for node := 0; node < 2; node++ {
		holds := e.Topology().HoldsMask(node)
		recovered := wl.BuildDB(6, holds)
		wl.Load(recovered)
		if _, _, err := wal.Recover(recovered, "", e.LogFiles(node)); err != nil {
			t.Fatalf("node %d: %v", node, err)
		}
		for p, held := range holds {
			if got, want := recovered.PartitionChecksum(p), e.DB(node).PartitionChecksum(p); held && got != want {
				t.Errorf("node %d partition %d: recovered from its own logs %x != live %x", node, p, got, want)
			}
		}
	}
}

// TestLogFilesCoverEveryWrite checks that the union of a node's worker
// logs (its own commits) and applier and router logs (replicated commits)
// contains an entry for every record the live database holds beyond the
// initial load — on the full replica and on a partial one.
func TestLogFilesCoverEveryWrite(t *testing.T) {
	dir := t.TempDir()
	s := rt.NewSim()
	wl := ycsb.New(ycsb.Config{
		Partitions:          4,
		RecordsPerPartition: 64,
		CrossPct:            30,
	})
	e := New(Config{
		RT:             s,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		LogDir:         dir,
		Seed:           4,
	})
	s.Run(20 * time.Millisecond)
	e.Freeze()
	s.Run(s.Now() + 10*time.Millisecond)
	s.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}

	for node := 0; node < 2; node++ {
		logged := map[storage.Key]uint64{}
		for _, path := range e.LogFiles(node) {
			frames, err := readLog(path)
			if err != nil {
				t.Fatal(err)
			}
			for _, b := range frames {
				for _, en := range b.Entries {
					if !en.Absent && en.TID > logged[en.Key] {
						logged[en.Key] = en.TID
					}
				}
			}
		}
		if len(logged) == 0 {
			t.Fatalf("node %d: no write entries logged", node)
		}
		// Every record whose TID is beyond the load epoch must be logged
		// with exactly that TID.
		checked := 0
		for p := 0; p < 4; p++ {
			part := e.DB(node).Table(0).Partition(p)
			if part == nil {
				continue // a partial replica holds only some
			}
			part.Range(func(key storage.Key, tid uint64, val []byte) bool {
				if storage.TIDEpoch(tid) <= 1 {
					return true // initial load
				}
				if logged[key] != tid {
					t.Fatalf("node %d key %v: live TID %s, logged TID %s",
						node, key, storage.FormatTID(tid), storage.FormatTID(logged[key]))
				}
				checked++
				return true
			})
		}
		if checked == 0 {
			t.Fatalf("node %d: no post-load records to check", node)
		}
	}
}

// readLog decodes every frame of the log file at path.
func readLog(path string) ([]*replication.Batch, error) {
	var out []*replication.Batch
	err := wal.ReadFrames(path, func(body []byte) error {
		b, err := replication.DecodeBatch(append([]byte(nil), body...))
		out = append(out, b)
		return err
	})
	return out, err
}

// TestCheckpointPlusLogRecovery runs the engine with the dedicated
// checkpointing process (§4.5.1) and rebuilds the full replica from
// what the log directory holds once the logs are closed — the newest
// fuzzy checkpoint plus the live segments, as wal.Dir finds them; the
// Thomas write rule corrects any newer versions the fuzzy scan captured.
func TestCheckpointPlusLogRecovery(t *testing.T) {
	checkpointRecovery(t, t.TempDir())
}

// TestLogDirNamedLikeASegment: a log directory whose own name holds
// ".log." keeps every segment inside it, and recovery from it still
// equals the live database. Segment names come from the role a logger
// was created for, never from editing a path.
func TestLogDirNamedLikeASegment(t *testing.T) {
	parent := t.TempDir()
	dir := filepath.Join(parent, "star.log.d")
	if err := os.Mkdir(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	checkpointRecovery(t, dir)
	ents, err := os.ReadDir(parent)
	if err != nil {
		t.Fatal(err)
	}
	for _, ent := range ents {
		if ent.Name() != "star.log.d" {
			t.Errorf("%s written beside the log directory", ent.Name())
		}
	}
}

// checkpointRecovery runs a checkpointing cluster logging to dir through
// several checkpoint rounds, then recovers node 0 onto an EMPTY database
// from the directory alone: the checkpoint supplies the base state
// (including the initial load), the surviving segments everything after
// it.
func checkpointRecovery(t *testing.T, dir string) {
	t.Helper()
	s := rt.NewSim()
	wl := ycsb.New(ycsb.Config{
		Partitions:          4,
		RecordsPerPartition: 64,
		CrossPct:            20,
	})
	e := New(Config{
		RT:             s,
		Nodes:          2,
		WorkersPerNode: 2,
		Workload:       wl,
		Iteration:      2 * time.Millisecond,
		LogDir:         dir,
		Checkpoint:     true,
		Seed:           13,
	})
	s.Run(70 * time.Millisecond)
	e.Freeze()
	s.Run(s.Now() + 8*time.Millisecond)
	s.Stop()
	if err := e.CloseLogs(); err != nil {
		t.Fatal(err)
	}
	if rounds := e.StatsSnapshot().Counters["checkpoints"]; rounds < 2*3 {
		t.Fatalf("%d checkpoint rounds over two nodes, want three each", rounds)
	}
	ckpt, segs, err := wal.NewDir(dir, 0).Live()
	if err != nil || ckpt == "" || len(segs) == 0 {
		t.Fatalf("the directory holds checkpoint %q and %d segments (%v)", ckpt, len(segs), err)
	}
	recovered := wl.BuildDB(4, nil)
	epoch, _, err := wal.Recover(recovered, ckpt, segs)
	if err != nil || epoch < 2 {
		t.Fatalf("recovered epoch %d err=%v", epoch, err)
	}
	for p := 0; p < 4; p++ {
		if got, want := recovered.PartitionChecksum(p), e.DB(0).PartitionChecksum(p); got != want {
			t.Errorf("partition %d: recovered %x at epoch %d != live %x", p, got, epoch, want)
		}
	}
}

// TestReadCommittedCommitsWithoutValidation checks §3's read-committed
// mode: the single-master phase skips read validation, so contended
// cross-partition transactions stop aborting.
func TestReadCommittedCommitsWithoutValidation(t *testing.T) {
	run := func(rc bool) (committed, aborted int64) {
		s := rt.NewSim()
		wl := ycsb.New(ycsb.Config{
			Partitions:          4,
			RecordsPerPartition: 8, // tiny: heavy contention on the master
			CrossPct:            100,
		})
		e := New(Config{
			RT:             s,
			Nodes:          2,
			WorkersPerNode: 2,
			Workload:       wl,
			Iteration:      2 * time.Millisecond,
			ReadCommitted:  rc,
			Seed:           5,
		})
		s.Run(30 * time.Millisecond)
		st := e.Stats()
		s.Stop()
		return st.Committed, st.Aborted
	}
	serCommitted, serAborted := run(false)
	rcCommitted, rcAborted := run(true)
	if serCommitted == 0 || rcCommitted == 0 {
		t.Fatal("no commits")
	}
	if serAborted == 0 {
		t.Fatal("expected OCC validation aborts under contention at serializability")
	}
	if rcAborted >= serAborted {
		t.Fatalf("read committed must abort less: %d vs %d", rcAborted, serAborted)
	}
}
