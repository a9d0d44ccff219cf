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
	_                  // retired: wirePhaseDone with a Sent vector (admission restarts counters at the install)
	_                  // retired: wireFenceDrain (peers' msgEpochMark names the drain target)
	wireFenceAck
	wireDefer
	wireReplAck
	_ // retired: wireRevert with a NewMasters map
	wireSnapshotReq
	_ // retired: wireSnapshot as one table's key/TID/row columns
	wireReplBatch
	wireSyncBatch
	_ // retired: wireResetCounters
	_ // retired: wireRecoveryDone with a Sent vector
	wireStartRecovery
	_ // retired: wireUpdateMasters (a rejoin installs like a join)
	_ // retired: wireWorkerDone (a worker's report goes straight into its router's inbox)
	_ // retired: wireChecksumReq (folded into the admin envelope)
	_ // retired: wireChecksumResp
	wireHalt
	_ // retired: wireFreeze
	_ // retired: wireAlignCounters
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
	_ // retired: wireTopology without the failed set
	wireSnapshot
	wirePhaseDone
	wireRecoveryDone
	_ // retired: wireTopology with the layout's Masters and Secondary
	wireTopology
)

// wireRegistrar is implemented by workloads whose procedures have a
// binary codec (tpcc, ycsb, examples/bank): every workload whose
// procedures can be deferred, since msgDefer is its procedure's encoding.
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

// registerMessages binds every engine message to its id and its walk:
// the walks below are each message's encoder, decoder and — through
// wire.FrameLen — its Size(). The bytes are what the hand-written codecs
// before the walk produced; testdata/golden_frames.txt holds theirs.
func registerMessages(c *wire.Codec) {
	wire.Register(c, wireStartPhase, startPhaseFields)
	wire.Register(c, wirePhaseDone, phaseDoneFields)
	wire.Register(c, wireEpochMark, epochMarkFields)
	wire.Register(c, wireFenceAck, fenceAckFields)
	wire.Register(c, wireDefer, deferFields)
	wire.Register(c, wireReplAck, replAckFields)
	wire.Register(c, wireRevert, revertFields)
	wire.Register(c, wireSnapshotReq, snapshotReqFields)
	wire.Register(c, wireSnapshot, snapshotFields)
	// The envelope is coded against its context (replication/envelope.go),
	// not field by field.
	c.Register(wireReplBatch, (*replication.Batch)(nil),
		func(b []byte, m transport.Message) []byte {
			return replication.AppendBatch(b, m.(*replication.Batch))
		},
		func(b []byte) (transport.Message, []byte, error) {
			batch, err := replication.DecodeBatch(b)
			return batch, nil, err
		})
	wire.Register(c, wireSyncBatch, syncBatchFields)
	wire.Register(c, wireRecoveryDone, recoveryDoneFields)
	wire.Register(c, wireStartRecovery, startRecoveryFields)
	wire.Register(c, wireHalt, haltFields)
	wire.Register(c, wireAdminReq, adminReqFields)
	wire.Register(c, wireAdminResp, adminRespFields)
	wire.Register(c, wireTopology, topologyFields)
	wire.Register(c, wireClientReq, clientReqFields)
	wire.Register(c, wireClientResp, clientRespFields)
}

func (m msgStartPhase) Size() int { return wire.FrameLen(&m, startPhaseFields) }
func startPhaseFields(f *wire.Fields, m *msgStartPhase) {
	wire.U8(f, &m.Phase)
	f.Uvarint(&m.Epoch)
	f.I64((*int64)(&m.Deadline))
	f.Ints(&m.Failed)
	f.I64((*int64)(&m.Lat))
	f.Int(&m.ScriptTxns)
	f.I64(&m.ScriptDeferred)
}

func (m msgPhaseDone) Size() int { return wire.FrameLen(&m, phaseDoneFields) }
func phaseDoneFields(f *wire.Fields, m *msgPhaseDone) {
	f.Int(&m.Node)
	f.Uvarint(&m.Epoch)
	f.I64(&m.Committed)
	f.I64(&m.GenSingle)
	f.I64(&m.GenCross)
	f.I64(&m.Queued)
}

func (m msgEpochMark) Size() int { return wire.FrameLen(&m, epochMarkFields) }
func epochMarkFields(f *wire.Fields, m *msgEpochMark) {
	f.Int(&m.From)
	f.Uvarint(&m.Epoch)
	f.I64(&m.Sent)
}

func (m msgFenceAck) Size() int { return wire.FrameLen(&m, fenceAckFields) }
func fenceAckFields(f *wire.Fields, m *msgFenceAck) {
	f.Int(&m.Node)
	f.Uvarint(&m.Epoch)
}

// msgDefer carries the whole routing request; the request codec
// recomputes Home/Parts/Cross from the decoded procedure. Like every
// message it is sized by its walk, on the simulator too, so a procedure
// that can be deferred needs a codec (see wireRegistrar).
func (m msgDefer) Size() int                  { return wire.FrameLen(&m, deferFields) }
func deferFields(f *wire.Fields, m *msgDefer) { f.Request(&m.Req) }

func (m msgReplAck) Size() int { return wire.FrameLen(&m, replAckFields) }
func replAckFields(f *wire.Fields, m *msgReplAck) {
	f.Int(&m.Worker)
	f.Uvarint(&m.Seq)
}

func (m msgRevert) Size() int { return wire.FrameLen(&m, revertFields) }
func revertFields(f *wire.Fields, m *msgRevert) {
	f.Uvarint(&m.Epoch)
	f.Ints(&m.Failed)
}

func (m msgSnapshotReq) Size() int { return wire.FrameLen(&m, snapshotReqFields) }
func snapshotReqFields(f *wire.Fields, m *msgSnapshotReq) {
	f.Int(&m.From)
	f.Int(&m.Part)
}

func (m *msgSnapshot) Size() int { return wire.FrameLen(m, snapshotFields) }
func snapshotFields(f *wire.Fields, m *msgSnapshot) {
	f.Uint(&m.Part)
	wire.Tail(f, &m.Rows, replication.AppendBatch, replication.BatchLen, replication.DecodeBatch)
}

func (m syncBatch) Size() int { return wire.FrameLen(&m, syncBatchFields) }
func syncBatchFields(f *wire.Fields, m *syncBatch) {
	f.Int(&m.Worker)
	f.Uvarint(&m.Seq)
	f.Int(&m.ReplyTo)
	wire.Tail(f, &m.Batch, replication.AppendBatch, replication.BatchLen, replication.DecodeBatch)
}

func (m msgRecoveryDone) Size() int                         { return wire.FrameLen(&m, recoveryDoneFields) }
func recoveryDoneFields(f *wire.Fields, m *msgRecoveryDone) { f.Int(&m.Node) }

func (m msgStartRecovery) Size() int { return wire.FrameLen(&m, startRecoveryFields) }
func startRecoveryFields(f *wire.Fields, m *msgStartRecovery) {
	f.I32s(&m.Parts)
	f.I32s(&m.From)
}

func (m msgHalt) Size() int             { return wire.FrameLen(&m, haltFields) }
func haltFields(*wire.Fields, *msgHalt) {}

func (m AdminReq) Size() int { return wire.FrameLen(&m, adminReqFields) }
func adminReqFields(f *wire.Fields, m *AdminReq) {
	wire.U8(f, &m.V)
	wire.U8(f, &m.Op)
	f.Int(&m.From)
	f.U64(&m.Ticket)
	f.Int(&m.Node)
	f.Bool(&m.On)
}

func (m AdminResp) Size() int { return wire.FrameLen(&m, adminRespFields) }
func adminRespFields(f *wire.Fields, m *AdminResp) {
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
}

func (m msgTopology) Size() int { return wire.FrameLen(&m, topologyFields) }
func topologyFields(f *wire.Fields, m *msgTopology) {
	f.Uvarint(&m.Version)
	f.I32s(&m.Members)
	f.Ints(&m.Failed)
}

// ClientReq carries the session header (token, origin, ticket) ahead of
// the request body. AppendRequest does not ship
// Origin/Ticket (the engine-internal msgDefer has no use for them), so
// the client envelope walks them itself and stamps the decoded request.
func (m ClientReq) Size() int { return wire.FrameLen(&m, clientReqFields) }
func clientReqFields(f *wire.Fields, m *ClientReq) {
	var hdr txn.Request // Origin and Ticket, walked ahead of the body
	if m.Req != nil {
		hdr = *m.Req
	}
	f.Uvarint(&m.Token)
	f.Int(&hdr.Origin)
	f.U64(&hdr.Ticket)
	f.Request(&m.Req)
	if f.Decoding() && m.Req != nil {
		m.Req.Origin, m.Req.Ticket = hdr.Origin, hdr.Ticket
	}
}

func (m ClientResp) Size() int { return wire.FrameLen(&m, clientRespFields) }
func clientRespFields(f *wire.Fields, m *ClientResp) {
	f.U64(&m.Ticket)
	wire.U8(f, &m.Status)
	f.Check(m.Status >= StatusOK && m.Status <= StatusAborted)
	f.Uvarint(&m.Token)
	f.I64(&m.Reads)
}
