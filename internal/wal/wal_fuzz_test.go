package wal

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"star/internal/replication"
	"star/internal/storage"
)

// reCRC, set in a fuzzed position, recomputes the damaged frame's CRC
// after the flip, so the damage reaches the envelope decoder and
// recovery instead of ending the log — a lying frame, as a writer bug
// would leave it.
const reCRC = 1 << 31

// fuzzLog builds the fixed log the corruption fuzzer attacks, and the
// envelope each of its frames holds as written: rows (short, empty,
// zero-packed, long — each as wide as its table's, fuzzDB), tombstones and
// epoch marks across two epochs.
func fuzzLog(t testing.TB) ([]byte, []replication.Batch) {
	var sink bytes.Buffer
	l := NewLogger(&sink)
	packed := make([]byte, 64)
	packed[9] = 7
	frames := []replication.Batch{
		{Epoch: 2, Entries: []replication.Entry{
			{Table: 1, Part: 0, Key: storage.K2(1, 2), TID: storage.MakeTID(2, 1), Row: []byte("alpha")},
			{Table: 2, Part: 3, Key: storage.K2(0, 9), TID: storage.MakeTID(2, 2)},
			{Table: 0, Part: 1, Key: storage.K2(7, 7), TID: storage.MakeTID(2, 3), Row: packed},
		}},
		{Epoch: 2},
		{Epoch: 3, Entries: []replication.Entry{
			{Table: 0, Part: 1, Key: storage.K2(7, 7), TID: storage.MakeTID(3, 1), Absent: true},
			{Table: 3, Part: 2, Key: storage.K2(5, 5), TID: storage.MakeTID(3, 2), Row: bytes.Repeat([]byte{0xab}, 300)},
			{Table: 1, Part: 0, Key: storage.K2(1, 2), TID: storage.MakeTID(3, 3), Row: []byte("bravo")},
			{Table: 1, Part: 0, Key: storage.K2(1, 2), TID: storage.MakeTID(3, 4), Absent: true},
		}},
		{Epoch: 3},
	}
	for _, fr := range frames {
		var err error
		for _, e := range fr.Entries {
			if err == nil {
				err = l.AppendWrite(e.Table, e.Part, e.Key, e.TID, e.Absent, e.Row)
			}
		}
		if err == nil && len(fr.Entries) == 0 {
			err = l.AppendEpochMark(fr.Epoch) // also writes the entries before it
		}
		if err != nil {
			t.Fatalf("build log: %v", err)
		}
	}
	if err := l.Flush(false); err != nil {
		t.Fatalf("flush: %v", err)
	}
	return sink.Bytes(), frames
}

// frameStarts returns the byte offset where each frame begins, and the
// log's length last.
func frameStarts(log []byte) []int {
	var starts []int
	for off := 0; off < len(log); off += frameHeader + int(binary.LittleEndian.Uint32(log[off:])) {
		starts = append(starts, off)
	}
	return append(starts, len(log))
}

func sameBatch(a, b *replication.Batch) bool {
	if a.From != b.From || a.Epoch != b.Epoch || len(a.Entries) != len(b.Entries) {
		return false
	}
	for i := range a.Entries {
		x, y := &a.Entries[i], &b.Entries[i]
		if x.Table != y.Table || x.Part != y.Part || x.Key != y.Key || x.TID != y.TID ||
			x.Absent != y.Absent || x.IsOp() || y.IsOp() || !bytes.Equal(x.Row, y.Row) {
			return false
		}
	}
	return true
}

// fuzzDB has every table and partition the fuzz log names, each table's
// rows as wide as the log's: 64, 5, 0 and 300 bytes.
func fuzzDB() *storage.DB {
	db := storage.NewDB(4, nil)
	for i, width := range []int{64, 5, 0, 300} {
		var cols []storage.Field
		if width > 0 {
			cols = append(cols, storage.Field{Name: "v", Type: storage.FieldBytes, Cap: width - 2})
		}
		db.AddTable(fmt.Sprint("t", i), storage.NewSchema(cols...), false)
	}
	return db
}

// FuzzWALCorruption damages one byte of a valid multi-frame log (or,
// with xor == 0, truncates it mid-stream — the torn tail; with reCRC in
// pos, re-checksums the damaged frame) and pins the reader's contract:
// no panic, never more entries than were written while the CRC guards
// them, and every frame that lies wholly before the damage decodes
// exactly as written. The reader stops at the first bad frame instead of
// resynchronizing, so damage can only ever cost a suffix. Recovery of the
// damaged log must not panic either, must refuse an operation entry, and
// must recover an undamaged log.
func FuzzWALCorruption(f *testing.F) {
	log, frames := fuzzLog(f)
	starts := frameStarts(log)
	f.Add(uint32(0), byte(0x01))               // header of the first frame
	f.Add(uint32(4), byte(0x80))               // CRC field
	f.Add(uint32(9), byte(0xff))               // epoch of the first envelope
	f.Add(uint32(len(log)/2), byte(0x40))      // mid-stream row bytes
	f.Add(uint32(len(log)-1), byte(0x01))      // last byte
	f.Add(uint32(30), byte(0))                 // truncation mid-frame
	f.Add(uint32(len(log)), byte(0))           // no-op truncation at the end
	f.Add(uint32(starts[2]+11), byte(0xfe))    // flags of the third frame's first entry
	f.Add(uint32(starts[2]+20), byte(0x01))    // key bytes in the third frame
	f.Add(uint32(starts[2]+12), byte(0))       // truncation inside the third frame
	f.Add(uint32(starts[1]+9), byte(0x01))     // the epoch of a mark
	f.Add(uint32(starts[2]+10|reCRC), byte(2)) // a re-checksummed frame whose entry count lies
	// A re-checksummed frame holding an operation entry: the empty row's
	// flags gain the op bit, and its zero row length reads as zero ops.
	var s replication.EntryCoder
	s.Reset(frames[0].Epoch)
	header, payload, _ := s.Next(&frames[0].Entries[0])
	f.Add(uint32(starts[0]+11+header+payload|reCRC), byte(0x01))
	f.Fuzz(func(t *testing.T, pos uint32, xor byte) {
		log, want := fuzzLog(t)
		starts := frameStarts(log)
		written := 0
		for i := range want {
			written += len(want[i].Entries)
		}

		p := int(pos &^ reCRC % uint32(len(log)+1))
		corrupted := append([]byte(nil), log...)
		if xor == 0 {
			corrupted = corrupted[:p] // torn tail
		} else if p < len(corrupted) {
			corrupted[p] ^= xor
			if pos&reCRC != 0 {
				i := 0
				for starts[i+1] <= p {
					i++
				}
				body := corrupted[starts[i]+frameHeader : starts[i+1]]
				binary.LittleEndian.PutUint32(corrupted[starts[i]+4:], crc32.ChecksumIEEE(body))
			}
		}

		// intact counts the frames that end at or before the damage point:
		// those MUST come back verbatim.
		intact := 0
		for intact < len(want) && starts[intact+1] <= p {
			intact++
		}
		path := filepath.Join(t.TempDir(), "fuzz.log")
		if err := os.WriteFile(path, corrupted, 0o644); err != nil {
			t.Fatal(err)
		}

		got, entries, hasOp := 0, 0, false
		rerr := ReadFrames(path, func(body []byte) error {
			b, err := replication.DecodeBatch(body)
			if err != nil {
				return err
			}
			if got < intact && !sameBatch(b, &want[got]) {
				t.Fatalf("intact frame %d decoded differently: got %+v want %+v", got, b, want[got])
			}
			got++
			entries += len(b.Entries)
			for i := range b.Entries {
				hasOp = hasOp || b.Entries[i].IsOp()
			}
			return nil
		})
		if entries > written && pos&reCRC == 0 {
			t.Fatalf("decoded %d entries from a %d-entry log", entries, written)
		}
		if got < intact {
			t.Fatalf("damage at byte %d lost an intact prefix frame: got %d frames, want at least %d (%v)", p, got, intact, rerr)
		}

		_, applied, err := Recover(fuzzDB(), "", []string{path})
		if hasOp && err == nil {
			t.Fatal("Recover replayed a log holding an operation entry")
		}
		if applied > entries {
			t.Fatalf("Recover applied %d writes of the %d decoded", applied, entries)
		}
		if intact == len(want) && err != nil {
			t.Fatalf("Recover of an undamaged log: %v", err)
		}
	})
}
