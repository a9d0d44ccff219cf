package storage

import (
	"bytes"
	"encoding/binary"
	"fmt"
)

// WriteKind names the three forms a committed write takes.
type WriteKind uint8

const (
	// WriteRow installs a whole row image — an insert when the record is
	// absent, an overwrite when it is present.
	WriteRow WriteKind = iota
	// WriteOps applies field ops, in order, to the row that is there. An
	// empty op list is still a write: it moves the TID and nothing else.
	WriteOps
	// WriteDelete marks the record absent.
	WriteDelete
)

// Write is one committed write as it lands on a record. Row is read by
// WriteRow and Ops by WriteOps; the kind, not which slice is nil, says
// which form it is.
type Write struct {
	Kind WriteKind
	Row  []byte
	Ops  []FieldOp
}

// Land installs one committed write on r, the record at (part, key),
// under epoch and tid. It is the only way a write reaches a record, on
// every path — transaction commit with or without concurrency control,
// replication apply, snapshot catch-up, log replay — and so the only
// place that knows what a landed write owes its partition:
//
//   - Saved: the version r held when the epoch first touched it (row, TID
//     and absent bit), once per epoch. A fence read at that epoch returns
//     it; RevertEpoch restores it.
//   - Registered: that first touch enters r in the partition's revert
//     bucket for the epoch, before the row is mutated, so no saved version
//     exists that RevertEpoch cannot find.
//   - Indexes: the record's secondary index entries follow its row. An
//     absent → present transition adds the entries derived from the row
//     just installed; present → absent removes those derived from the row
//     as it stood before the delete, and queues the key's slot for
//     reclamation at the epoch's fence; a write that keeps the record
//     present moves each entry whose value it changed. So an index is a
//     function of the row however its writes were ordered, and a write
//     that keeps the record absent moves none.
//   - TID word on return: tid, the absent bit iff the write was a delete,
//     and the lock bit — r is still latched; Unlock publishes the write.
//
// The caller owns resolving r (Get / GetOrCreate under the same epoch)
// and its latch: it holds it across the call and releases it afterwards.
// The returned slice is the row as it now stands, in place — valid only
// under that latch. A write the table's schema does not fit (Schema.Fits)
// and field ops against an absent record are errors, found before
// anything moves: r stays as it was, unregistered.
func (t *Table) Land(part int, key Key, r *Record, epoch, tid uint64, w Write) ([]byte, error) {
	p := t.Partition(part)
	wasAbsent := TIDAbsent(r.tid.Load())
	if !t.schema.Fits(w) {
		return nil, fmt.Errorf("storage: write of kind %d does not fit table %s", w.Kind, t.name)
	}
	if w.Kind == WriteOps && wasAbsent {
		return nil, fmt.Errorf("storage: field ops for absent row %v in table %s partition %d", key, t.name, part)
	}
	if r.savePriorLocked(epoch) {
		p.markDirty(r, epoch)
	}
	var was []byte // the index values the record held (none when absent), then room for its new ones
	if len(t.specs) > 0 {
		was = make([]byte, 0, 64)
		if !wasAbsent {
			was = t.indexValues(key, r.data, was)
		}
	}
	word := TIDClean(tid) | TIDLockBit
	switch w.Kind {
	case WriteRow:
		r.data = append(r.data[:0], w.Row...)
	case WriteOps:
		for i := range w.Ops {
			w.Ops[i].Apply(t.schema, r.data)
		}
	case WriteDelete:
		word |= TIDAbsentBit
	}
	r.tid.Store(word)
	absent := w.Kind == WriteDelete
	if len(t.specs) > 0 && !(absent && wasAbsent) {
		var now []byte
		if !absent {
			now = t.indexValues(key, r.data, was[len(was):])
		}
		t.moveIndexes(p, key, was, now, epoch)
	}
	if absent && !wasAbsent {
		p.markDeleted(key, epoch)
	}
	return r.data, nil
}

// LandThomas is Land under the Thomas write rule, for writes that arrive
// in any order (replication, snapshot rows, log replay): it resolves the
// record, latches it, lands w only if tid is newer than the record's, and
// unlatches. A row or tombstone for a missing record creates a placeholder
// in epoch's revert bucket; field ops for one are an error, as they are
// for an absent record (Land). When w lands and image is not nil, the row
// as it then stands is copied into *image's backing array (grown as
// needed) under the latch. It reports whether the write landed.
func (t *Table) LandThomas(part int, key Key, epoch, tid uint64, w Write, image *[]byte) (landed bool, err error) {
	p := t.Partition(part)
	r := p.Get(key)
	if r == nil && w.Kind == WriteOps {
		return false, fmt.Errorf("storage: field ops for missing row %v in table %s partition %d", key, t.name, part)
	} else if r == nil {
		r = p.GetOrCreate(key, epoch)
	}
	r.Lock()
	if landed = TIDClean(tid) > TIDClean(r.tid.Load()); landed {
		var row []byte
		if row, err = t.Land(part, key, r, epoch, tid, w); err == nil && image != nil {
			*image = append((*image)[:0], row...)
		}
	}
	r.Unlock()
	return landed && err == nil, err
}

// Insert creates a record at (partition, key). It returns the record and
// whether the row was inserted; false means a present record already
// existed (callers treat that as a uniqueness violation).
func (t *Table) Insert(part int, key Key, epoch, tid uint64, row []byte) (*Record, bool) {
	r := t.Partition(part).GetOrCreate(key, epoch)
	r.Lock()
	absent := TIDAbsent(r.tid.Load())
	if absent {
		_, _ = t.Land(part, key, r, epoch, tid, Write{Kind: WriteRow, Row: row}) // only field ops can be refused
	}
	r.Unlock()
	return r, absent
}

// Delete marks the record at (partition, key) absent under the epoch and
// TID. Returns false when no present record exists (the caller decides
// whether that is a conflict). Physical reclamation happens at the epoch
// fence.
func (t *Table) Delete(part int, key Key, epoch, tid uint64) bool {
	r := t.Partition(part).Get(key)
	if r == nil {
		return false
	}
	r.Lock()
	present := !TIDAbsent(r.tid.Load())
	if present {
		_, _ = t.Land(part, key, r, epoch, tid, Write{Kind: WriteDelete}) // only field ops can be refused
	}
	r.Unlock()
	return present
}

// indexValues appends the value of each of the table's index specs for
// (key, row) to dst, each behind its 4-byte length.
func (t *Table) indexValues(key Key, row, dst []byte) []byte {
	for i := range t.specs {
		at := len(dst)
		dst = t.specs[i].Extract(t.schema, key, row, append(dst, 0, 0, 0, 0))
		binary.LittleEndian.PutUint32(dst[at:], uint32(len(dst)-at-4))
	}
	return dst
}

// moveIndexes moves the secondary index entries of the record at key
// from the values it held, was, to the ones it now holds, now (each
// indexValues' output, empty for an absent record): an entry whose value
// changed is deleted and its successor inserted under epoch. A deleted
// entry stays visible to fence-snapshot readers until the epoch's fence
// passes, and an inserted one stays hidden from them.
func (t *Table) moveIndexes(p *Partition, key Key, was, now []byte, epoch uint64) {
	for i := range t.specs {
		old, val := nextIndexValue(&was), nextIndexValue(&now)
		if old != nil && val != nil && bytes.Equal(old, val) {
			continue
		}
		if old != nil {
			p.oidx[i].Delete(old, key, epoch)
		}
		if val != nil {
			p.oidx[i].Insert(val, key, epoch)
		}
	}
}

// nextIndexValue takes the first value off an indexValues list (nil off
// an absent record's empty list).
func nextIndexValue(vals *[]byte) []byte {
	if len(*vals) == 0 {
		return nil
	}
	n := 4 + int(binary.LittleEndian.Uint32(*vals))
	v := (*vals)[4:n:n]
	*vals = (*vals)[n:]
	return v
}
