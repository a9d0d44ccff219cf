package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"star/internal/storage"
)

// Dir is one node's durable files in a log directory, and the only
// place their names are made or read. Node N's logger for role R (the
// router, applierI, workerI) writes segment 0 to nodeN-R.log and
// segment k to nodeN-R.log.k; the checkpoint of round r is nodeN-ckptr,
// written as nodeN-ckptr.tmp and renamed once synced, so a name without
// the suffix is always a complete checkpoint. Which files are live is
// read off the directory (Live): a checkpoint round deletes what it
// covers, so nothing in memory has to remember it.
type Dir struct {
	path   string
	prefix string    // "nodeN-"
	logs   []*Logger // created before the node starts; read-only after
}

// NewDir is node's handle on the log directory at path. It touches no
// file: Create makes the loggers, Live reads what is there.
func NewDir(path string, node int) *Dir {
	return &Dir{path: path, prefix: fmt.Sprintf("node%d-", node)}
}

// Create opens role's logger at segment 0 and registers it for the
// checkpoint rounds.
func (d *Dir) Create(role string) (*Logger, error) {
	l, err := Create(filepath.Join(d.path, d.prefix+role+".log"))
	if err == nil {
		d.logs = append(d.logs, l)
	}
	return l, err
}

// Checkpoint runs round number round (0, 1, ...; one caller): every
// logger moves to segment round+1, a fuzzy checkpoint stamped epoch
// is written, and the files it covers go — the segments numbered below
// round, closed a whole round before the scan began, and every older
// checkpoint. Replay is thereby bounded by the checkpoint cadence, not
// the run length.
func (d *Dir) Checkpoint(db *storage.DB, round int, epoch uint64) error {
	for _, l := range d.logs {
		if err := l.rotate(round + 1); err != nil {
			return err
		}
	}
	if _, err := WriteCheckpoint(db, filepath.Join(d.path, d.prefix+"ckpt"+strconv.Itoa(round)), epoch); err != nil {
		return err
	}
	names, err := d.names()
	for _, name := range names {
		seg, isSeg := d.segment(name)
		ckpt, isCkpt := d.checkpoint(name)
		if isSeg && seg < round || isCkpt && ckpt < round {
			if rerr := os.Remove(filepath.Join(d.path, name)); err == nil {
				err = rerr
			}
		}
	}
	return err
}

// Live reads the directory for the node's newest complete checkpoint
// ("" when there is none) and its log segments: Recover's arguments.
func (d *Dir) Live() (checkpoint string, segments []string, err error) {
	names, err := d.names()
	newest := -1
	for _, name := range names {
		if _, ok := d.segment(name); ok {
			segments = append(segments, filepath.Join(d.path, name))
		} else if r, ok := d.checkpoint(name); ok && r > newest {
			checkpoint, newest = filepath.Join(d.path, name), r
		}
	}
	return checkpoint, segments, err
}

// Bytes is what the node's loggers have written, across rotations.
func (d *Dir) Bytes() int64 {
	var n int64
	for _, l := range d.logs {
		n += l.Bytes()
	}
	return n
}

// Close flushes and closes every logger, returning the first error.
func (d *Dir) Close() error {
	var first error
	for _, l := range d.logs {
		if err := l.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// names lists the directory's file names that belong to the node.
func (d *Dir) names() ([]string, error) {
	ents, err := os.ReadDir(d.path)
	var out []string
	for _, ent := range ents {
		if strings.HasPrefix(ent.Name(), d.prefix) {
			out = append(out, ent.Name())
		}
	}
	return out, err
}

// segment parses name as one of the node's log segments: R.log or
// R.log.k.
func (d *Dir) segment(name string) (int, bool) {
	role, seg, ok := strings.Cut(strings.TrimPrefix(name, d.prefix), ".log")
	switch {
	case !ok || role == "":
		return 0, false
	case seg == "":
		return 0, true
	case seg[0] != '.':
		return 0, false
	}
	k, err := strconv.Atoi(seg[1:])
	return k, err == nil && k > 0
}

// checkpoint parses name as one of the node's complete checkpoints.
func (d *Dir) checkpoint(name string) (int, bool) {
	r, ok := strings.CutPrefix(strings.TrimPrefix(name, d.prefix), "ckpt")
	if !ok {
		return 0, false
	}
	round, err := strconv.Atoi(r)
	return round, err == nil && round >= 0
}
