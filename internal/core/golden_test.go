package core

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"star/internal/replication"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire/prim"
	"star/internal/wire/wiretest"
	"star/internal/workload/tpcc"
)

// goldenMessages is one instance of every message id, built field by
// field with a different value in each so that two same-typed fields
// walked in the wrong order change the bytes. The frames these encode to
// were captured from the hand-written encoders of commit 44cf024 (the
// last one before the field walk) into testdata/golden_frames.txt —
// bar snapshot's, re-captured on a fresh id when a
// partition's catch-up became one replication envelope, and the phase
// report's, the recovery report's and the install's, re-captured on fresh
// ids when admission stopped shipping counters, and the install's again,
// on a fresh id, when it stopped shipping the layout its member set
// derives; the Size column was re-captured when Size() became the
// frame's length. repl_batch_same_ops was captured when an op entry
// began to send only its arguments behind one whose heads it repeats.
func goldenMessages(tw *tpcc.Workload) map[string]transport.Message {
	ents := []replication.Entry{
		{Table: 2, Part: 1, Key: storage.K2(3, 4), TID: storage.MakeTID(5, 6), Row: []byte("row")},
		{Table: 0, Part: 2, Key: storage.K1(9), TID: storage.MakeTID(5, 7), Ops: []storage.FieldOp{
			storage.AddFloat64Op(1, 2.5),
		}},
	}
	delivery := &tpcc.DeliveryTxn{W: tw, WID: 1, Carrier: 3, DeliveryD: 99}
	byName := &tpcc.OrderStatusTxn{W: tw, WID: 0, CWID: 3, CDID: 1, CID: -1, ByName: true, CLast: []byte("BARBARBAR")}
	stock := &tpcc.StockLevelTxn{W: tw, WID: 1, DID: 0, Threshold: 12, Remote: []int{0, 3}}
	retried := txn.NewRequest(delivery, 12345)
	retried.Retries = 2
	return map[string]transport.Message{
		"start_phase": msgStartPhase{Phase: SingleMaster, Epoch: 9, Deadline: 40 * time.Millisecond,
			Failed: []int{2, 3}, Lat: 70 * time.Microsecond, ScriptTxns: 5, ScriptDeferred: 17},
		"phase_done":    msgPhaseDone{Node: 2, Epoch: 300, Committed: 120, GenSingle: 110, GenCross: 12, Queued: 7},
		"epoch_mark":    msgEpochMark{From: 2, Epoch: 9, Sent: 4096},
		"fence_ack":     msgFenceAck{Node: 1, Epoch: 9},
		"defer":         msgDefer{Req: retried},
		"defer_by_name": msgDefer{Req: txn.NewRequest(byName, -558)},
		"repl_ack":      msgReplAck{Worker: 3, Seq: 41},
		"revert":        msgRevert{Epoch: 8, Failed: []int{1}},
		"snapshot_req":  msgSnapshotReq{From: 2, Part: 3},
		"snapshot": &msgSnapshot{Part: 200, Rows: &replication.Batch{From: 2, Epoch: 3, Entries: []replication.Entry{
			{Table: 1, Part: 200, Key: storage.K1(1), TID: storage.MakeTID(2, 1), Row: []byte("alpha")},
			{Table: 1, Part: 200, Key: storage.K2(2, 3), TID: storage.MakeTID(2, 2), Row: append(make([]byte, 15), 9)},
			{Table: 4, Part: 200, Key: storage.K1(5), TID: storage.MakeTID(1, 7), Row: []byte("beta")},
		}}},
		"repl_batch": &replication.Batch{From: 1, Epoch: 9, Entries: ents},
		"repl_batch_same_ops": &replication.Batch{From: 1, Epoch: 9, Entries: []replication.Entry{
			{Table: 3, Part: 1, Key: storage.K2(1, 17), TID: storage.MakeTID(9, 4), Ops: []storage.FieldOp{
				storage.SetInt64Op(2, 41), storage.AddFloat64Op(5, 2.5)}},
			{Table: 3, Part: 1, Key: storage.K2(1, 23), TID: storage.MakeTID(9, 4), Ops: []storage.FieldOp{
				storage.SetInt64Op(2, -3), storage.AddFloat64Op(5, 10)}},
		}},
		"sync_batch":     syncBatch{Batch: &replication.Batch{From: 0, Epoch: 9, Entries: ents[:1]}, Worker: 2, Seq: 5, ReplyTo: 1},
		"recovery_done":  msgRecoveryDone{Node: 2},
		"start_recovery": msgStartRecovery{Parts: []int32{1, 3}, From: []int32{0, 2}},
		"halt":           msgHalt{},
		"client_req":     ClientReq{Token: 8, Req: ticketed(txn.NewRequest(stock, 600), 2, 1<<40)},
		"client_resp":    ClientResp{Ticket: 12, Status: StatusAborted, Token: 9, Reads: 31},
		"admin_req":      AdminReq{V: 1, Op: AdminFreeze, From: 5, Ticket: 9, Node: -1, On: true},
		"admin_resp": AdminResp{V: 1, Op: AdminTopologyGet, Ticket: 17, Node: 1, OK: true, Err: "drain: not a member",
			Parts: []int32{0, 2}, Sums: []uint64{0xdead, 0xbeef},
			Keys: []string{"fault_drops", "fault_dups", ""}, Vals: []int64{12, -3, 0},
			Version:     7,
			Members:     []int32{0, 2, 3},
			Masters:     []int32{0, 0, 2, 3},
			ClientAddrs: []string{"127.0.0.1:7001", "", "127.0.0.1:7003"},
			Stats:       []byte(`{"counters":{"committed":42}}`)},
		"topology": msgTopology{Version: 7, Members: []int32{0, 2, 3}, Failed: []int{2, 3}},
	}
}

// TestGoldenFrames shows wire compatibility with the hand-written codecs
// the field walk replaced: every message id encodes to the parent
// commit's bytes, the parent's bytes decode to the same struct and
// re-encode unchanged, Size() is the captured number and the frame's
// length, and every strict prefix of a frame is rejected with a wire
// error.
func TestGoldenFrames(t *testing.T) {
	tw, yw := testWorkloads()
	c := testCodec(tw, yw)
	samples := goldenMessages(tw)
	ids := map[uint8]bool{}
	for _, g := range wiretest.Read(t, "testdata/golden_frames.txt") {
		m, ok := samples[g.Name]
		if !ok {
			t.Fatalf("golden frame %q has no sample", g.Name)
		}
		delete(samples, g.Name)
		ids[g.Frame[0]] = true
		enc, err := c.Append(nil, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", g.Name, err)
		}
		if !bytes.Equal(enc, g.Frame) {
			t.Fatalf("%s: encodes to\n%x\nparent commit encoded\n%x", g.Name, enc, g.Frame)
		}
		if got := m.Size(); got != g.Size || got != prim.FrameOverhead-1+len(g.Frame) {
			t.Fatalf("%s: Size() = %d, captured %d, frame of %d bytes", g.Name, got, g.Size, prim.FrameOverhead-1+len(g.Frame))
		}
		dec, err := c.Decode(g.Frame)
		if err != nil {
			t.Fatalf("%s: decode golden frame: %v", g.Name, err)
		}
		if !reflect.DeepEqual(dec, m) {
			t.Fatalf("%s: golden frame decodes to\n%#v\nwant\n%#v", g.Name, dec, m)
		}
		if re, _ := c.Append(nil, dec); !bytes.Equal(re, g.Frame) {
			t.Fatalf("%s: decode → re-encode changed the frame:\n%x\nvs\n%x", g.Name, re, g.Frame)
		}
		wiretest.Truncations(t, g.Name, g.Frame, func(b []byte) error {
			_, err := c.Decode(b)
			return err
		})
	}
	if len(ids) != 19 || len(samples) != 0 {
		t.Fatalf("golden frames cover %d message ids and leave %d samples unmatched, want all 19 and 0", len(ids), len(samples))
	}
}
