package core

import (
	"star/internal/replication"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/workload"
)

// Wire message type ids. Append-only: a new message takes the next id so
// mixed-version processes fail loudly on unknown ids instead of
// misparsing.
const (
	_ uint8 = iota + 1 // retired: wireStartPhase with a Master field (a node derives it from its View)
	wirePhaseDone
	_ // retired: wireFenceDrain (peers' msgEpochMark names the drain target)
	wireFenceAck
	wireDefer
	wireReplAck
	_ // retired: wireRevert with a NewMasters map
	wireSnapshotReq
	wireSnapshot
	wireReplBatch
	wireSyncBatch
	wireResetCounters
	wireRecoveryDone
	wireStartRecovery
	_ // retired: wireUpdateMasters (a rejoin installs like a join)
	wireWorkerDone
	_ // retired: wireChecksumReq (folded into the admin envelope)
	_ // retired: wireChecksumResp
	wireHalt
	_ // retired: wireFreeze
	wireAlignCounters
	wireClientReq
	wireClientResp
	_ // retired: wireFaultStatsReq
	_ // retired: wireFaultStatsResp
	wireAdminReq
	wireAdminResp
	_ // retired: wireTopology with a Master field
	wireEpochMark
	wireStartPhase
	wireRevert
	wireTopology
)

// wireRegistrar is implemented by workloads whose procedures have a
// binary codec (tpcc, ycsb). A real transport needs it for msgDefer;
// without it deferred cross-partition requests cannot leave the process.
type wireRegistrar interface {
	RegisterWire(c *wire.Codec)
}

// NewWireCodec builds the codec a real transport uses for a cluster
// running workload w: every cross-node engine message plus the
// workload's procedure parameters. Every process of one cluster must
// build it from the same workload configuration.
func NewWireCodec(w workload.Workload) *wire.Codec {
	c := wire.NewCodec()
	registerMessages(c)
	if r, ok := w.(wireRegistrar); ok {
		r.RegisterWire(c)
	}
	return c
}

// registerMessages describes every engine message once: each walk below
// is the message's encoder, decoder and (where Size is the encoded
// length) its size. The bytes are what the hand-written codecs before
// the walk produced; testdata/golden_frames.txt holds theirs.
func registerMessages(c *wire.Codec) {
	wire.Register(c, wireStartPhase, func(f *wire.Fields, m *msgStartPhase) {
		wire.U8(f, &m.Phase)
		f.Uvarint(&m.Epoch)
		f.I64((*int64)(&m.Deadline))
		f.Ints(&m.Failed)
		f.I64((*int64)(&m.Lat))
		f.Int(&m.ScriptTxns)
		f.I64(&m.ScriptDeferred)
	})
	wire.Register(c, wirePhaseDone, func(f *wire.Fields, m *msgPhaseDone) {
		f.Int(&m.Node)
		f.Uvarint(&m.Epoch)
		f.I64s(&m.Sent)
		f.I64(&m.Committed)
		f.I64(&m.GenSingle)
		f.I64(&m.GenCross)
		f.I64(&m.Queued)
	})
	wire.Register(c, wireEpochMark, func(f *wire.Fields, m *msgEpochMark) {
		f.Int(&m.From)
		f.Uvarint(&m.Epoch)
		f.I64(&m.Sent)
	})
	wire.Register(c, wireFenceAck, func(f *wire.Fields, m *msgFenceAck) {
		f.Int(&m.Node)
		f.Uvarint(&m.Epoch)
	})
	// msgDefer carries the whole routing request; the request codec
	// recomputes Home/Parts/Cross from the decoded procedure.
	wire.Register(c, wireDefer, func(f *wire.Fields, m *msgDefer) { f.Request(c, &m.Req) })
	wire.Register(c, wireReplAck, func(f *wire.Fields, m *msgReplAck) {
		f.Int(&m.Worker)
		f.Uvarint(&m.Seq)
	})
	wire.Register(c, wireRevert, func(f *wire.Fields, m *msgRevert) {
		f.Uvarint(&m.Epoch)
		f.Ints(&m.Failed)
	})
	wire.Register(c, wireSnapshotReq, func(f *wire.Fields, m *msgSnapshotReq) {
		f.Int(&m.From)
		f.Int(&m.Part)
	})
	wire.Register(c, wireSnapshot, snapshotFields)

	// The envelope is coded against its context (wire/entry.go), not
	// field by field.
	c.Register(wireReplBatch, (*replication.Batch)(nil),
		func(b []byte, m transport.Message) []byte {
			return wire.AppendBatch(b, m.(*replication.Batch))
		},
		func(b []byte) (transport.Message, []byte, error) {
			batch, err := wire.DecodeBatch(b)
			return batch, nil, err
		})
	wire.Register(c, wireSyncBatch, func(f *wire.Fields, m *syncBatch) {
		f.Int(&m.Worker)
		f.Uvarint(&m.Seq)
		f.Int(&m.ReplyTo)
		f.Batch(&m.Batch)
	})

	wire.Register(c, wireResetCounters, func(f *wire.Fields, m *msgResetCounters) { f.I64s(&m.Applied) })
	wire.Register(c, wireRecoveryDone, func(f *wire.Fields, m *msgRecoveryDone) {
		f.Int(&m.Node)
		f.I64s(&m.Sent)
	})
	wire.Register(c, wireStartRecovery, func(f *wire.Fields, m *msgStartRecovery) {
		f.I32s(&m.Parts)
		f.I32s(&m.From)
	})
	// Node-local in both engines today, but registered so a transport
	// that encodes local sends (or a future split of workers from
	// routers) keeps working.
	wire.Register(c, wireWorkerDone, func(f *wire.Fields, m *workerDoneMsg) {
		f.Int(&m.Worker)
		f.I64(&m.Committed)
		f.I64(&m.GenSingle)
		f.I64(&m.GenCross)
	})
	wire.Register(c, wireHalt, func(*wire.Fields, *msgHalt) {})
	wire.Register(c, wireAlignCounters, func(f *wire.Fields, m *msgAlignCounters) {
		f.Int(&m.Src)
		f.I64(&m.Applied)
	})

	wire.Register(c, wireAdminReq, func(f *wire.Fields, m *AdminReq) {
		wire.U8(f, &m.V)
		wire.U8(f, &m.Op)
		f.Int(&m.From)
		f.U64(&m.Ticket)
		f.Int(&m.Node)
		f.Bool(&m.On)
	})
	wire.Register(c, wireAdminResp, func(f *wire.Fields, m *AdminResp) {
		wire.U8(f, &m.V)
		wire.U8(f, &m.Op)
		f.U64(&m.Ticket)
		f.Int(&m.Node)
		f.Bool(&m.OK)
		f.String(&m.Err)
		f.I32s(&m.Parts)
		f.U64s(&m.Sums)
		f.Check(len(m.Sums) == len(m.Parts))
		f.Strings(&m.Keys, 1<<12)
		f.I64s(&m.Vals)
		f.Check(len(m.Vals) == len(m.Keys))
		f.Uvarint(&m.Version)
		f.I32s(&m.Members)
		f.I32s(&m.Masters)
		f.Strings(&m.ClientAddrs, 1<<12)
		// The snapshot blob outlives the frame (the admin client hands it
		// to the decoder after more frames arrive), so it is copied out.
		f.BytesCopy(&m.Stats)
	})
	wire.Register(c, wireTopology, func(f *wire.Fields, m *msgTopology) {
		f.Uvarint(&m.Version)
		f.I32s(&m.Members)
		f.I32s(&m.Masters)
		f.I32s(&m.Secondary)
		f.Check(len(m.Secondary) == len(m.Masters))
	})

	// ClientReq carries the session header (token, origin, ticket) ahead
	// of the request body: AppendRequest does not ship Origin/Ticket (the
	// engine-internal msgDefer has no use for them), so the client
	// envelope walks them itself and stamps the decoded request.
	wire.Register(c, wireClientReq, func(f *wire.Fields, m *ClientReq) {
		var hdr txn.Request // Origin and Ticket, walked ahead of the body
		if m.Req != nil {
			hdr = *m.Req
		}
		f.Uvarint(&m.Token)
		f.Int(&hdr.Origin)
		f.U64(&hdr.Ticket)
		f.Request(c, &m.Req)
		if f.Decoding() && m.Req != nil {
			m.Req.Origin, m.Req.Ticket = hdr.Origin, hdr.Ticket
		}
	})
	wire.Register(c, wireClientResp, func(f *wire.Fields, m *ClientResp) {
		f.U64(&m.Ticket)
		wire.U8(f, &m.Status)
		f.Check(m.Status >= StatusOK && m.Status <= StatusAborted)
		f.Uvarint(&m.Token)
		f.I64(&m.Reads)
	})
}

// snapshotFields is msgSnapshot's walk: parallel key/TID/row columns
// under one count. Each record costs at least 25 bytes.
func snapshotFields(f *wire.Fields, m *msgSnapshot) {
	wire.U8(f, &m.Table)
	f.Uint(&m.Part)
	if n := wire.Len(f, &m.Keys, wire.KeyLen+8+1); f.Decoding() && n > 0 {
		m.TIDs, m.Rows = make([]uint64, n), make([][]byte, n)
	}
	for i := range m.Keys {
		f.Key(&m.Keys[i])
		f.U64(&m.TIDs[i])
		f.Bytes(&m.Rows[i])
	}
}
