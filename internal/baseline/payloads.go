package baseline

import (
	"star/internal/lock"
	"star/internal/replication"
	"star/internal/wire"
	"star/internal/wire/prim"
)

// RPC payloads: rpcReq/rpcResp carry encoded bytes rather than
// in-process pointers, so the baseline message set is wire-encodable
// like the STAR engine's. Each payload type is described by one field
// walk; call sites encode with wire.Marshal and the serving router
// decodes with wire.Unmarshal over the same walk. The modelled Size of
// an RPC is the encoded payload's length.

func lockNames(f *wire.Fields, names *[]lock.Name) {
	wire.Len(f, names, 1+prim.KeyLen)
	for i := range *names {
		wire.U8(f, &(*names)[i].Table)
		f.Key(&(*names)[i].Key)
	}
}

func readPayloadFields(f *wire.Fields, p *readPayload) {
	wire.U8(f, &p.Table)
	f.Int(&p.Part)
	f.Key(&p.Key)
	f.Bool(&p.Write)
	f.Int(&p.Owner)
}

func readReplyFields(f *wire.Fields, r *readReply) {
	f.Bytes(&r.Row)
	f.U64(&r.TID)
	f.Bool(&r.Absent)
}

// lvPayload / lvReply: Dist. OCC lock+validate.
func lvPayloadFields(f *wire.Fields, p *lvPayload) {
	wire.Len(f, &p.Reads, 1+1+prim.KeyLen+8)
	for i := range p.Reads {
		rd := &p.Reads[i]
		wire.U8(f, &rd.Table)
		f.Int(&rd.Part)
		f.Key(&rd.Key)
		f.U64(&rd.TID)
	}
	lockNames(f, &p.Writes)
	f.I32s(&p.Parts)
}

func lvReplyFields(f *wire.Fields, r *lvReply) { f.U64(&r.MaxWriteTID) }

// The entries come last and travel as an Epoch-0 replication envelope,
// which decodes from all the input left: one entry codec, the engine's.
func commitPayloadFields(f *wire.Fields, p *commitPayload) {
	f.U64(&p.TID)
	f.Int(&p.Owner)
	lockNames(f, &p.Release)
	f.Bool(&p.Sync)
	b := &replication.Batch{Entries: p.Entries}
	if wire.Tail(f, &b, replication.AppendBatch, replication.BatchLen, replication.DecodeBatch); f.Decoding() && b != nil {
		p.Entries = b.Entries
	}
}

func abortPayloadFields(f *wire.Fields, p *abortPayload) {
	lockNames(f, &p.Writes)
	f.Int(&p.Owner)
	lockNames(f, &p.Release)
	f.I32s(&p.Parts)
}

// encodeBatchPayload is PB. OCC's synchronous replication payload: the
// envelope codec's own encoding.
func encodeBatchPayload(batch *replication.Batch) []byte {
	return replication.AppendBatch(make([]byte, 0, replication.BatchLen(batch)), batch)
}

// idxPayload / idxReply: the secondary-index lookup RPC.
func idxPayloadFields(f *wire.Fields, p *idxPayload) {
	wire.U8(f, &p.Table)
	f.Int(&p.Part)
	f.Int(&p.Index)
	f.Bytes(&p.Val)
}

func idxReplyFields(f *wire.Fields, r *idxReply) {
	wire.Len(f, &r.Keys, prim.KeyLen)
	for i := range r.Keys {
		f.Key(&r.Keys[i])
	}
}
