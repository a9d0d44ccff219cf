package baseline

import (
	"fmt"

	"star/internal/lock"
	"star/internal/replication"
	"star/internal/storage"
	"star/internal/txn"
	"star/internal/wire"
)

// RPC payload codecs: rpcReq/rpcResp carry encoded bytes rather than
// in-process pointers, so the baseline message set is wire-encodable
// like the STAR engine's. Encoding happens at the call site, decoding
// in the serving router; the modelled Size of an RPC is derived from
// the actual encoded payload length.

func appendLockNames(b []byte, names []lock.Name) []byte {
	b = wire.AppendUvarint(b, uint64(len(names)))
	for _, nm := range names {
		b = append(b, byte(nm.Table))
		b = wire.AppendKey(b, nm.Key)
	}
	return b
}

func decodeLockNames(b []byte) ([]lock.Name, []byte, error) {
	n, b, err := wire.Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	if n > uint64(len(b))/17+1 {
		return nil, nil, fmt.Errorf("%w: %d lock names", wire.ErrCorrupt, n)
	}
	if n == 0 {
		return nil, b, nil
	}
	out := make([]lock.Name, n)
	for i := range out {
		if len(b) < 1 {
			return nil, nil, wire.ErrTruncated
		}
		out[i].Table = storage.TableID(b[0])
		if out[i].Key, b, err = wire.Key(b[1:]); err != nil {
			return nil, nil, err
		}
	}
	return out, b, nil
}

// ---- readPayload / readReply ----

func (p *readPayload) encode() []byte {
	b := make([]byte, 0, 32)
	b = append(b, byte(p.Table))
	b = wire.AppendVarint(b, int64(p.Part))
	b = wire.AppendKey(b, p.Key)
	b = wire.AppendBool(b, p.Write)
	return wire.AppendVarint(b, int64(p.Owner))
}

func decodeReadPayload(b []byte) (*readPayload, error) {
	p := &readPayload{}
	if len(b) < 1 {
		return nil, wire.ErrTruncated
	}
	p.Table = storage.TableID(b[0])
	x, b, err := wire.Varint(b[1:])
	if err != nil {
		return nil, err
	}
	p.Part = int(x)
	if p.Key, b, err = wire.Key(b); err != nil {
		return nil, err
	}
	if p.Write, b, err = wire.Bool(b); err != nil {
		return nil, err
	}
	if x, _, err = wire.Varint(b); err != nil {
		return nil, err
	}
	p.Owner = int(x)
	return p, nil
}

func (r *readReply) encode() []byte {
	b := make([]byte, 0, 17+len(r.Row))
	b = wire.AppendBytes(b, r.Row)
	b = wire.AppendU64(b, r.TID)
	return wire.AppendBool(b, r.Absent)
}

func decodeReadReply(b []byte) (*readReply, error) {
	r := &readReply{}
	var err error
	if r.Row, b, err = wire.Bytes(b); err != nil {
		return nil, err
	}
	if r.TID, b, err = wire.U64(b); err != nil {
		return nil, err
	}
	if r.Absent, _, err = wire.Bool(b); err != nil {
		return nil, err
	}
	return r, nil
}

// ---- lvPayload / lvReply (Dist. OCC lock+validate) ----

func (p *lvPayload) encode() []byte {
	b := make([]byte, 0, 16+25*(len(p.Reads)+len(p.Writes)))
	b = wire.AppendUvarint(b, uint64(len(p.Reads)))
	for i := range p.Reads {
		rd := &p.Reads[i]
		b = append(b, byte(rd.Table))
		b = wire.AppendVarint(b, int64(rd.Part))
		b = wire.AppendKey(b, rd.Key)
		b = wire.AppendU64(b, rd.TID)
	}
	b = appendLockNames(b, p.Writes)
	return wire.AppendI32s(b, p.Parts)
}

func decodeLVPayload(b []byte) (*lvPayload, error) {
	p := &lvPayload{}
	n, b, err := wire.Uvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b))/26+1 {
		return nil, fmt.Errorf("%w: %d validated reads", wire.ErrCorrupt, n)
	}
	p.Reads = make([]txn.ReadEntry, n)
	for i := range p.Reads {
		rd := &p.Reads[i]
		if len(b) < 1 {
			return nil, wire.ErrTruncated
		}
		rd.Table = storage.TableID(b[0])
		var x int64
		if x, b, err = wire.Varint(b[1:]); err != nil {
			return nil, err
		}
		rd.Part = int(x)
		if rd.Key, b, err = wire.Key(b); err != nil {
			return nil, err
		}
		if rd.TID, b, err = wire.U64(b); err != nil {
			return nil, err
		}
	}
	if p.Writes, b, err = decodeLockNames(b); err != nil {
		return nil, err
	}
	if p.Parts, _, err = wire.I32s(b); err != nil {
		return nil, err
	}
	return p, nil
}

func (r *lvReply) encode() []byte {
	return wire.AppendU64(make([]byte, 0, 8), r.MaxWriteTID)
}

func decodeLVReply(b []byte) (*lvReply, error) {
	tid, _, err := wire.U64(b)
	if err != nil {
		return nil, err
	}
	return &lvReply{MaxWriteTID: tid}, nil
}

// ---- commitPayload ----

func (p *commitPayload) encode() []byte {
	batch := replication.Batch{Entries: p.Entries}
	b := make([]byte, 0, 32+wire.BatchLen(&batch))
	b = wire.AppendU64(b, p.TID)
	b = wire.AppendUvarint(b, uint64(len(p.Entries)))
	for i := range p.Entries {
		b = wire.AppendEntry(b, &p.Entries[i])
	}
	b = wire.AppendVarint(b, int64(p.Owner))
	b = appendLockNames(b, p.Release)
	return wire.AppendBool(b, p.Sync)
}

func decodeCommitPayload(b []byte) (*commitPayload, error) {
	p := &commitPayload{}
	var err error
	if p.TID, b, err = wire.U64(b); err != nil {
		return nil, err
	}
	n, b, err := wire.Uvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b))/wire.MinEntryLen {
		return nil, fmt.Errorf("%w: %d commit entries", wire.ErrCorrupt, n)
	}
	if n > 0 {
		p.Entries = make([]replication.Entry, n)
		for i := range p.Entries {
			if p.Entries[i], b, err = wire.DecodeEntry(b); err != nil {
				return nil, err
			}
		}
	}
	var x int64
	if x, b, err = wire.Varint(b); err != nil {
		return nil, err
	}
	p.Owner = int(x)
	if p.Release, b, err = decodeLockNames(b); err != nil {
		return nil, err
	}
	if p.Sync, _, err = wire.Bool(b); err != nil {
		return nil, err
	}
	return p, nil
}

// ---- abortPayload ----

func (p *abortPayload) encode() []byte {
	b := make([]byte, 0, 16+17*(len(p.Writes)+len(p.Release)))
	b = appendLockNames(b, p.Writes)
	b = wire.AppendVarint(b, int64(p.Owner))
	b = appendLockNames(b, p.Release)
	return wire.AppendI32s(b, p.Parts)
}

func decodeAbortPayload(b []byte) (*abortPayload, error) {
	p := &abortPayload{}
	var err error
	if p.Writes, b, err = decodeLockNames(b); err != nil {
		return nil, err
	}
	var x int64
	if x, b, err = wire.Varint(b); err != nil {
		return nil, err
	}
	p.Owner = int(x)
	if p.Release, b, err = decodeLockNames(b); err != nil {
		return nil, err
	}
	if p.Parts, _, err = wire.I32s(b); err != nil {
		return nil, err
	}
	return p, nil
}

// ---- replication batch (PB. OCC synchronous replication) ----

func encodeBatchPayload(batch *replication.Batch) []byte {
	return wire.AppendBatch(make([]byte, 0, 16+wire.BatchLen(batch)), batch)
}

// ---- idxPayload / idxReply (secondary-index lookup RPC) ----

func (p *idxPayload) encode() []byte {
	b := make([]byte, 0, 16+len(p.Val))
	b = append(b, byte(p.Table))
	b = wire.AppendVarint(b, int64(p.Part))
	b = wire.AppendVarint(b, int64(p.Index))
	return wire.AppendBytes(b, p.Val)
}

func decodeIdxPayload(b []byte) (*idxPayload, error) {
	p := &idxPayload{}
	if len(b) < 1 {
		return nil, wire.ErrTruncated
	}
	p.Table = storage.TableID(b[0])
	x, b, err := wire.Varint(b[1:])
	if err != nil {
		return nil, err
	}
	p.Part = int(x)
	if x, b, err = wire.Varint(b); err != nil {
		return nil, err
	}
	p.Index = int(x)
	if p.Val, _, err = wire.Bytes(b); err != nil {
		return nil, err
	}
	return p, nil
}

func (r *idxReply) encode() []byte {
	b := make([]byte, 0, 8+17*len(r.Keys))
	b = wire.AppendUvarint(b, uint64(len(r.Keys)))
	for _, k := range r.Keys {
		b = wire.AppendKey(b, k)
	}
	return b
}

func decodeIdxReply(b []byte) (*idxReply, error) {
	n, b, err := wire.Uvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b))/16+1 {
		return nil, fmt.Errorf("%w: %d index matches", wire.ErrCorrupt, n)
	}
	r := &idxReply{}
	if n > 0 {
		r.Keys = make([]storage.Key, n)
		for i := range r.Keys {
			if r.Keys[i], b, err = wire.Key(b); err != nil {
				return nil, err
			}
		}
	}
	return r, nil
}
