package core

import (
	"time"

	"star/internal/replication"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/wire"
	"star/internal/workload"
)

// Wire message type ids. Append-only: a new message takes the next id so
// mixed-version processes fail loudly on unknown ids instead of
// misparsing.
const (
	wireStartPhase uint8 = iota + 1
	wirePhaseDone
	_ // retired: wireFenceDrain (peers' msgEpochMark names the drain target)
	wireFenceAck
	wireDefer
	wireReplAck
	wireRevert
	wireSnapshotReq
	wireSnapshot
	wireReplBatch
	wireSyncBatch
	wireResetCounters
	wireRecoveryDone
	wireStartRecovery
	wireUpdateMasters
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
	wireTopology
	wireEpochMark
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

func registerMessages(c *wire.Codec) {
	c.Register(wireStartPhase, msgStartPhase{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgStartPhase)
			b = append(b, byte(v.Phase))
			b = wire.AppendUvarint(b, v.Epoch)
			b = wire.AppendVarint(b, int64(v.Deadline))
			b = wire.AppendVarint(b, int64(v.Master))
			b = wire.AppendInts(b, v.Failed)
			b = wire.AppendVarint(b, int64(v.Lat))
			b = wire.AppendVarint(b, int64(v.ScriptTxns))
			return wire.AppendVarint(b, v.ScriptDeferred)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgStartPhase
			if len(b) < 1 {
				return nil, nil, wire.ErrTruncated
			}
			v.Phase = Phase(b[0])
			var err error
			var x int64
			if v.Epoch, b, err = wire.Uvarint(b[1:]); err != nil {
				return nil, nil, err
			}
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Deadline = time.Duration(x)
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Master = int(x)
			if v.Failed, b, err = wire.Ints(b); err != nil {
				return nil, nil, err
			}
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Lat = time.Duration(x)
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.ScriptTxns = int(x)
			if v.ScriptDeferred, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wirePhaseDone, msgPhaseDone{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgPhaseDone)
			b = wire.AppendVarint(b, int64(v.Node))
			b = wire.AppendUvarint(b, v.Epoch)
			b = wire.AppendI64s(b, v.Sent)
			b = wire.AppendVarint(b, v.Committed)
			b = wire.AppendVarint(b, v.GenSingle)
			b = wire.AppendVarint(b, v.GenCross)
			return wire.AppendVarint(b, v.Queued)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgPhaseDone
			var err error
			var x int64
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Node = int(x)
			if v.Epoch, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			if v.Sent, b, err = wire.I64s(b); err != nil {
				return nil, nil, err
			}
			if v.Committed, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			if v.GenSingle, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			if v.GenCross, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			if v.Queued, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireEpochMark, msgEpochMark{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgEpochMark)
			b = wire.AppendVarint(b, int64(v.From))
			b = wire.AppendUvarint(b, v.Epoch)
			return wire.AppendVarint(b, v.Sent)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgEpochMark
			x, b, err := wire.Varint(b)
			if err != nil {
				return nil, nil, err
			}
			v.From = int(x)
			if v.Epoch, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			if v.Sent, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireFenceAck, msgFenceAck{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgFenceAck)
			b = wire.AppendVarint(b, int64(v.Node))
			return wire.AppendUvarint(b, v.Epoch)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgFenceAck
			x, b, err := wire.Varint(b)
			if err != nil {
				return nil, nil, err
			}
			v.Node = int(x)
			if v.Epoch, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	// msgDefer carries the whole routing request; the request codec
	// recomputes Home/Parts/Cross from the decoded procedure.
	c.Register(wireDefer, msgDefer{},
		func(b []byte, m transport.Message) []byte {
			b, err := c.AppendRequest(b, m.(msgDefer).Req)
			if err != nil {
				panic("core: encode deferred request: " + err.Error())
			}
			return b
		},
		func(b []byte) (transport.Message, []byte, error) {
			req, rest, err := c.DecodeRequest(b)
			if err != nil {
				return nil, nil, err
			}
			return msgDefer{Req: req}, rest, nil
		})

	c.Register(wireReplAck, msgReplAck{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgReplAck)
			b = wire.AppendVarint(b, int64(v.Worker))
			return wire.AppendUvarint(b, v.Seq)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgReplAck
			x, b, err := wire.Varint(b)
			if err != nil {
				return nil, nil, err
			}
			v.Worker = int(x)
			if v.Seq, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireRevert, msgRevert{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgRevert)
			b = wire.AppendUvarint(b, v.Epoch)
			b = wire.AppendInts(b, v.Failed)
			return wire.AppendI32s(b, v.NewMasters)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgRevert
			var err error
			if v.Epoch, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			if v.Failed, b, err = wire.Ints(b); err != nil {
				return nil, nil, err
			}
			if v.NewMasters, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireSnapshotReq, msgSnapshotReq{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgSnapshotReq)
			b = wire.AppendVarint(b, int64(v.From))
			return wire.AppendVarint(b, int64(v.Part))
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgSnapshotReq
			x, b, err := wire.Varint(b)
			if err != nil {
				return nil, nil, err
			}
			v.From = int(x)
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Part = int(x)
			return v, b, nil
		})

	c.Register(wireSnapshot, (*msgSnapshot)(nil),
		func(b []byte, m transport.Message) []byte {
			v := m.(*msgSnapshot)
			b = append(b, byte(v.Table))
			b = wire.AppendUvarint(b, uint64(v.Part))
			b = wire.AppendUvarint(b, uint64(len(v.Keys)))
			for i := range v.Keys {
				b = wire.AppendKey(b, v.Keys[i])
				b = wire.AppendU64(b, v.TIDs[i])
				b = wire.AppendBytes(b, v.Rows[i])
			}
			return b
		},
		func(b []byte) (transport.Message, []byte, error) {
			v := &msgSnapshot{}
			if len(b) < 1 {
				return nil, nil, wire.ErrTruncated
			}
			v.Table = storage.TableID(b[0])
			part, b, err := wire.Uvarint(b[1:])
			if err != nil {
				return nil, nil, err
			}
			v.Part = int(part)
			n, b, err := wire.Uvarint(b)
			if err != nil {
				return nil, nil, err
			}
			// Each record costs ≥ 25 bytes; bound allocation by buffer.
			if n > uint64(len(b))/25+1 {
				return nil, nil, wire.ErrCorrupt
			}
			v.Keys = make([]storage.Key, n)
			v.TIDs = make([]uint64, n)
			v.Rows = make([][]byte, n)
			for i := uint64(0); i < n; i++ {
				if v.Keys[i], b, err = wire.Key(b); err != nil {
					return nil, nil, err
				}
				if v.TIDs[i], b, err = wire.U64(b); err != nil {
					return nil, nil, err
				}
				if v.Rows[i], b, err = wire.Bytes(b); err != nil {
					return nil, nil, err
				}
			}
			return v, b, nil
		})

	c.Register(wireReplBatch, (*replication.Batch)(nil),
		func(b []byte, m transport.Message) []byte {
			return wire.AppendBatch(b, m.(*replication.Batch))
		},
		func(b []byte) (transport.Message, []byte, error) {
			batch, err := wire.DecodeBatch(b)
			return batch, nil, err
		})

	c.Register(wireSyncBatch, syncBatch{},
		func(b []byte, m transport.Message) []byte {
			v := m.(syncBatch)
			b = wire.AppendVarint(b, int64(v.Worker))
			b = wire.AppendUvarint(b, v.Seq)
			b = wire.AppendVarint(b, int64(v.ReplyTo))
			return wire.AppendBatch(b, v.Batch)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v syncBatch
			x, b, err := wire.Varint(b)
			if err != nil {
				return nil, nil, err
			}
			v.Worker = int(x)
			if v.Seq, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.ReplyTo = int(x)
			if v.Batch, err = wire.DecodeBatch(b); err != nil {
				return nil, nil, err
			}
			// DecodeBatch consumes the whole remainder (it rejects
			// trailing bytes itself).
			return v, nil, nil
		})

	c.Register(wireResetCounters, msgResetCounters{},
		func(b []byte, m transport.Message) []byte {
			return wire.AppendI64s(b, m.(msgResetCounters).Applied)
		},
		func(b []byte) (transport.Message, []byte, error) {
			applied, rest, err := wire.I64s(b)
			if err != nil {
				return nil, nil, err
			}
			return msgResetCounters{Applied: applied}, rest, nil
		})

	c.Register(wireRecoveryDone, msgRecoveryDone{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgRecoveryDone)
			b = wire.AppendVarint(b, int64(v.Node))
			return wire.AppendI64s(b, v.Sent)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgRecoveryDone
			x, b, err := wire.Varint(b)
			if err != nil {
				return nil, nil, err
			}
			v.Node = int(x)
			if v.Sent, b, err = wire.I64s(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireStartRecovery, msgStartRecovery{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgStartRecovery)
			b = wire.AppendI32s(b, v.Parts)
			return wire.AppendI32s(b, v.From)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgStartRecovery
			var err error
			if v.Parts, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			if v.From, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireUpdateMasters, msgUpdateMasters{},
		func(b []byte, m transport.Message) []byte {
			return wire.AppendI32s(b, m.(msgUpdateMasters).Masters)
		},
		func(b []byte) (transport.Message, []byte, error) {
			masters, rest, err := wire.I32s(b)
			if err != nil {
				return nil, nil, err
			}
			return msgUpdateMasters{Masters: masters}, rest, nil
		})

	// Node-local in both engines today, but registered so a transport
	// that encodes local sends (or a future split of workers from
	// routers) keeps working.
	c.Register(wireWorkerDone, workerDoneMsg{},
		func(b []byte, m transport.Message) []byte {
			v := m.(workerDoneMsg)
			b = wire.AppendVarint(b, int64(v.Worker))
			b = wire.AppendVarint(b, v.Committed)
			b = wire.AppendVarint(b, v.GenSingle)
			return wire.AppendVarint(b, v.GenCross)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v workerDoneMsg
			var err error
			var x int64
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Worker = int(x)
			if v.Committed, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			if v.GenSingle, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			if v.GenCross, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireHalt, msgHalt{},
		func(b []byte, m transport.Message) []byte { return b },
		func(b []byte) (transport.Message, []byte, error) { return msgHalt{}, b, nil })

	c.Register(wireAdminReq, AdminReq{},
		func(b []byte, m transport.Message) []byte {
			v := m.(AdminReq)
			b = append(b, v.V, byte(v.Op))
			b = wire.AppendVarint(b, int64(v.From))
			b = wire.AppendU64(b, v.Ticket)
			b = wire.AppendVarint(b, int64(v.Node))
			return wire.AppendBool(b, v.On)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v AdminReq
			if len(b) < 2 {
				return nil, nil, wire.ErrTruncated
			}
			v.V, v.Op = b[0], AdminOp(b[1])
			x, b, err := wire.Varint(b[2:])
			if err != nil {
				return nil, nil, err
			}
			v.From = int(x)
			if v.Ticket, b, err = wire.U64(b); err != nil {
				return nil, nil, err
			}
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Node = int(x)
			if v.On, b, err = wire.Bool(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireAdminResp, AdminResp{},
		func(b []byte, m transport.Message) []byte {
			v := m.(AdminResp)
			b = append(b, v.V, byte(v.Op))
			b = wire.AppendU64(b, v.Ticket)
			b = wire.AppendVarint(b, int64(v.Node))
			b = wire.AppendBool(b, v.OK)
			b = wire.AppendBytes(b, []byte(v.Err))
			b = wire.AppendI32s(b, v.Parts)
			b = wire.AppendU64s(b, v.Sums)
			b = wire.AppendUvarint(b, uint64(len(v.Keys)))
			for _, k := range v.Keys {
				b = wire.AppendBytes(b, []byte(k))
			}
			b = wire.AppendI64s(b, v.Vals)
			b = wire.AppendUvarint(b, v.Version)
			b = wire.AppendI32s(b, v.Members)
			b = wire.AppendI32s(b, v.Masters)
			b = wire.AppendUvarint(b, uint64(len(v.ClientAddrs)))
			for _, a := range v.ClientAddrs {
				b = wire.AppendBytes(b, []byte(a))
			}
			return wire.AppendBytes(b, v.Stats)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v AdminResp
			if len(b) < 2 {
				return nil, nil, wire.ErrTruncated
			}
			v.V, v.Op = b[0], AdminOp(b[1])
			var err error
			if v.Ticket, b, err = wire.U64(b[2:]); err != nil {
				return nil, nil, err
			}
			var x int64
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Node = int(x)
			if v.OK, b, err = wire.Bool(b); err != nil {
				return nil, nil, err
			}
			var eb []byte
			if eb, b, err = wire.Bytes(b); err != nil {
				return nil, nil, err
			}
			v.Err = string(eb)
			if v.Parts, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			if v.Sums, b, err = wire.U64s(b); err != nil {
				return nil, nil, err
			}
			if len(v.Sums) != len(v.Parts) {
				return nil, nil, wire.ErrCorrupt
			}
			nk, b, err := wire.Uvarint(b)
			if err != nil {
				return nil, nil, err
			}
			if nk > 1<<12 {
				return nil, nil, wire.ErrCorrupt
			}
			if nk > 0 {
				v.Keys = make([]string, nk)
				for i := range v.Keys {
					var kb []byte
					if kb, b, err = wire.Bytes(b); err != nil {
						return nil, nil, err
					}
					v.Keys[i] = string(kb)
				}
			}
			if v.Vals, b, err = wire.I64s(b); err != nil {
				return nil, nil, err
			}
			if len(v.Vals) != len(v.Keys) {
				return nil, nil, wire.ErrCorrupt
			}
			if v.Version, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			if v.Members, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			if v.Masters, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			na, b, err := wire.Uvarint(b)
			if err != nil {
				return nil, nil, err
			}
			if na > 1<<12 {
				return nil, nil, wire.ErrCorrupt
			}
			if na > 0 {
				v.ClientAddrs = make([]string, na)
				for i := range v.ClientAddrs {
					var ab []byte
					if ab, b, err = wire.Bytes(b); err != nil {
						return nil, nil, err
					}
					v.ClientAddrs[i] = string(ab)
				}
			}
			var sb []byte
			if sb, b, err = wire.Bytes(b); err != nil {
				return nil, nil, err
			}
			if len(sb) > 0 {
				// wire.Bytes aliases the frame buffer; the snapshot blob
				// outlives the frame (the admin client hands it to the
				// decoder after more frames arrive), so copy it out.
				v.Stats = append([]byte(nil), sb...)
			}
			return v, b, nil
		})

	c.Register(wireTopology, msgTopology{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgTopology)
			b = wire.AppendUvarint(b, v.Version)
			b = wire.AppendVarint(b, int64(v.Master))
			b = wire.AppendI32s(b, v.Members)
			b = wire.AppendI32s(b, v.Masters)
			return wire.AppendI32s(b, v.Secondary)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgTopology
			var err error
			if v.Version, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			var x int64
			if x, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			v.Master = int32(x)
			if v.Members, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			if v.Masters, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			if v.Secondary, b, err = wire.I32s(b); err != nil {
				return nil, nil, err
			}
			if len(v.Secondary) != len(v.Masters) {
				return nil, nil, wire.ErrCorrupt
			}
			return v, b, nil
		})

	// ClientReq carries the session header (token, origin, ticket) ahead
	// of the request body: AppendRequest does not ship Origin/Ticket (the
	// engine-internal msgDefer has no use for them), so the client
	// envelope encodes them itself and stamps the decoded request.
	c.Register(wireClientReq, ClientReq{},
		func(b []byte, m transport.Message) []byte {
			v := m.(ClientReq)
			b = wire.AppendUvarint(b, v.Token)
			b = wire.AppendVarint(b, int64(v.Req.Origin))
			b = wire.AppendU64(b, v.Req.Ticket)
			b, err := c.AppendRequest(b, v.Req)
			if err != nil {
				panic("core: encode client request: " + err.Error())
			}
			return b
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v ClientReq
			var err error
			if v.Token, b, err = wire.Uvarint(b); err != nil {
				return nil, nil, err
			}
			var origin int64
			if origin, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			var ticket uint64
			if ticket, b, err = wire.U64(b); err != nil {
				return nil, nil, err
			}
			req, rest, err := c.DecodeRequest(b)
			if err != nil {
				return nil, nil, err
			}
			req.Origin = int(origin)
			req.Ticket = ticket
			v.Req = req
			return v, rest, nil
		})

	c.Register(wireClientResp, ClientResp{},
		func(b []byte, m transport.Message) []byte {
			v := m.(ClientResp)
			b = wire.AppendU64(b, v.Ticket)
			b = append(b, byte(v.Status))
			b = wire.AppendUvarint(b, v.Token)
			return wire.AppendVarint(b, v.Reads)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v ClientResp
			var err error
			if v.Ticket, b, err = wire.U64(b); err != nil {
				return nil, nil, err
			}
			if len(b) < 1 {
				return nil, nil, wire.ErrTruncated
			}
			v.Status = ClientStatus(b[0])
			if v.Status < StatusOK || v.Status > StatusAborted {
				return nil, nil, wire.ErrCorrupt
			}
			if v.Token, b, err = wire.Uvarint(b[1:]); err != nil {
				return nil, nil, err
			}
			if v.Reads, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})

	c.Register(wireAlignCounters, msgAlignCounters{},
		func(b []byte, m transport.Message) []byte {
			v := m.(msgAlignCounters)
			b = wire.AppendVarint(b, int64(v.Src))
			return wire.AppendVarint(b, v.Applied)
		},
		func(b []byte) (transport.Message, []byte, error) {
			var v msgAlignCounters
			x, b, err := wire.Varint(b)
			if err != nil {
				return nil, nil, err
			}
			v.Src = int(x)
			if v.Applied, b, err = wire.Varint(b); err != nil {
				return nil, nil, err
			}
			return v, b, nil
		})
}
