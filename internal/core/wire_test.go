package core

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"star/internal/replication"
	"star/internal/storage"
	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire"
	"star/internal/wire/prim"
	"star/internal/workload/tpcc"
	"star/internal/workload/ycsb"
)

func testWorkloads() (*tpcc.Workload, *ycsb.Workload) {
	tw := tpcc.New(tpcc.Config{
		Warehouses: 4, Districts: 2, CustomersPerDistrict: 100, Items: 500,
	})
	yw := ycsb.New(ycsb.Config{Partitions: 4, RecordsPerPartition: 100})
	return tw, yw
}

// testCodec registers every engine message plus both workloads'
// procedures (their id blocks are disjoint).
func testCodec(tw *tpcc.Workload, yw *ycsb.Workload) *wire.Codec {
	c := wire.NewCodec()
	registerMessages(c)
	tw.RegisterWire(c)
	yw.RegisterWire(c)
	return c
}

// sampleMessages builds one canonical instance of every wire message
// type. The deferred requests come from the real generators so the
// procedure codecs are exercised with realistic parameters.
func sampleMessages(tw *tpcc.Workload, yw *ycsb.Workload) []transport.Message {
	tg := tw.NewGen(3)
	yg := yw.NewGen(4)
	ents := []replication.Entry{
		{Table: 2, Part: 1, Key: storage.K2(3, 4), TID: storage.MakeTID(5, 6), Row: []byte("row")},
		{Table: 0, Part: 2, Key: storage.K1(9), TID: storage.MakeTID(5, 7), Ops: []storage.FieldOp{
			storage.AddFloat64Op(1, 2.5),
		}},
	}
	return []transport.Message{
		msgStartPhase{Phase: SingleMaster, Epoch: 9, Deadline: 40 * time.Millisecond,
			Failed: []int{2}, Lat: 70 * time.Microsecond, ScriptTxns: 5, ScriptDeferred: 17},
		msgPhaseDone{Node: 2, Epoch: 9, Committed: 120, GenSingle: 110, GenCross: 12},
		msgEpochMark{From: 2, Epoch: 9, Sent: 4096},
		msgFenceAck{Node: 1, Epoch: 9},
		msgDefer{Req: txn.NewRequest(tg.Cross(1), 12345)},
		msgDefer{Req: txn.NewRequest(yg.Cross(2), 777)},
		msgDefer{Req: txn.NewRequest(&tpcc.DeliveryTxn{W: tw, WID: 1, Carrier: 3, DeliveryD: 99}, 555)},
		msgDefer{Req: txn.NewRequest(&tpcc.StockLevelTxn{W: tw, WID: 0, DID: 1, Threshold: 15, Remote: []int{2}}, 556)},
		msgDefer{Req: txn.NewRequest(&tpcc.OrderStatusTxn{W: tw, WID: 1, CWID: 2, CDID: 1, CID: 7}, 557)},
		msgDefer{Req: txn.NewRequest(&tpcc.OrderStatusTxn{W: tw, WID: 0, CWID: 3, CDID: 0, CID: -1,
			ByName: true, CLast: []byte("BARBARBAR")}, 558)},
		msgReplAck{Worker: 3, Seq: 41},
		msgRevert{Epoch: 8, Failed: []int{1}},
		msgSnapshotReq{From: 2, Part: 3},
		&msgSnapshot{Part: 2, Rows: &replication.Batch{From: 1, Epoch: 3, Entries: []replication.Entry{
			{Table: 1, Part: 2, Key: storage.K1(1), TID: storage.MakeTID(2, 1), Row: []byte("alpha")},
			{Table: 2, Part: 2, Key: storage.K2(2, 3), TID: storage.MakeTID(2, 2), Row: make([]byte, 24)},
		}}},
		&replication.Batch{From: 1, Epoch: 9, Entries: ents},
		syncBatch{Batch: &replication.Batch{From: 0, Epoch: 9, Entries: ents[:1]}, Worker: 2, Seq: 5, ReplyTo: 0},
		msgRecoveryDone{Node: 2},
		msgStartRecovery{Parts: []int32{1, 3}, From: []int32{0, 0}},
		ClientResp{Ticket: 14, Status: StatusAborted, Token: 2},
		msgHalt{},
		AdminReq{V: 1, Op: AdminFreeze, From: 5, Ticket: 9, Node: -1, On: true},
		AdminReq{V: 1, Op: AdminChecksums, From: 4, Node: 2},
		AdminReq{V: 1, Op: AdminJoin, From: 0, Ticket: 31, Node: 3},
		AdminReq{V: 1, Op: AdminStats, From: 3, Ticket: 17, Node: 1},
		AdminResp{V: 1, Op: AdminChecksums, Ticket: 9, Node: 1, OK: true,
			Parts: []int32{0, 2}, Sums: []uint64{0xdead, 0xbeef}},
		AdminResp{V: 1, Op: AdminFaultStats, Node: 1, OK: true,
			Keys: []string{"fault_drops", "fault_dups"}, Vals: []int64{12, 3}},
		AdminResp{V: 1, Op: AdminDrain, Ticket: 4, Node: 2, Err: "drain: not a member"},
		AdminResp{V: 1, Op: AdminStats, Ticket: 17, Node: 1, OK: true,
			Stats: []byte(`{"counters":{"committed":42},"hists":{"latency":{"count":1,"sum":5,"max":5,"buckets":{"3":1}}}}`)},
		AdminResp{V: 1, Op: AdminTopologyGet, Node: 0, OK: true, Version: 7,
			Members: []int32{0, 2, 3}, Masters: []int32{0, 0, 2, 3},
			ClientAddrs: []string{"127.0.0.1:7001", "", "127.0.0.1:7003"}},
		msgTopology{Version: 7, Members: []int32{0, 2, 3}, Failed: []int{3}},
		ClientReq{Token: 8, Req: ticketed(txn.NewRequest(tg.Cross(1), 999), 1, 77)},
		ClientReq{Token: 0, Req: ticketed(txn.NewRequest(&tpcc.StockLevelTxn{
			W: tw, WID: 1, DID: 0, Threshold: 12, Remote: []int{0}}, 600), 2, 1)},
		ClientReq{Token: 3, Req: ticketed(txn.NewRequest(yg.Cross(3), 444), 0, 1<<40)},
		ClientResp{Ticket: 12, Status: StatusOK, Token: 9, Reads: 31},
		ClientResp{Ticket: 13, Status: StatusBusy},
	}
}

// ticketed stamps the session routing fields a client envelope carries.
func ticketed(r *txn.Request, origin int, ticket uint64) *txn.Request {
	r.Origin, r.Ticket = origin, ticket
	return r
}

// TestWireMessagesRoundTrip pins decode(encode(m)) == m for every
// message type the cluster sends, through the full frame path.
func TestWireMessagesRoundTrip(t *testing.T) {
	tw, yw := testWorkloads()
	c := testCodec(tw, yw)
	for i, m := range sampleMessages(tw, yw) {
		frame, err := wire.AppendFrame(nil, 2, 4, transport.Control, c, m)
		if err != nil {
			t.Fatalf("message %d (%T): encode: %v", i, m, err)
		}
		fi, got, err := wire.DecodeFrameBody(frame[4:], c)
		if err != nil {
			t.Fatalf("message %d (%T): decode: %v", i, m, err)
		}
		if fi.Src != 2 || fi.Dst != 4 || fi.Class != transport.Control {
			t.Fatalf("message %d (%T): frame header %+v", i, m, fi)
		}
		if !reflect.DeepEqual(got, m) {
			t.Fatalf("message %d (%T) round trip:\n got %#v\nwant %#v", i, m, got, m)
		}
		// Trailing bytes after a valid message mean stream desync: the
		// codec must reject them, not silently accept.
		if _, _, err := wire.DecodeFrameBody(append(frame[4:], 0xee), c); err == nil {
			t.Fatalf("message %d (%T): trailing byte accepted", i, m)
		}
	}
}

// TestSizeIsEncodedFrameLength: a message's Size() is the length of the
// frame it encodes to — for every golden sample, for 600 generated TPC-C
// and YCSB requests both deferred (msgDefer) and submitted by a client
// (ClientReq), one of them retried 300 times, and for random envelopes,
// with zero-packed rows, alone, synchronous and as a partition's snapshot.
func TestSizeIsEncodedFrameLength(t *testing.T) {
	tw, yw := testWorkloads()
	c := testCodec(tw, yw)
	rng := rand.New(rand.NewSource(99))
	check := func(name string, m transport.Message) {
		t.Helper()
		frame, err := wire.AppendFrame(nil, 0, 1, transport.Data, c, m)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		if m.Size() != len(frame) {
			t.Fatalf("%s: Size() %d, encoded frame %d", name, m.Size(), len(frame))
		}
	}
	for name, m := range goldenMessages(tw) {
		check(name, m)
	}
	request := func(name string, req *txn.Request) {
		t.Helper()
		check(name+" defer", msgDefer{Req: req})
		client := ticketed(req.Clone(), rng.Intn(300)-100, rng.Uint64()>>rng.Intn(64))
		check(name+" client request", ClientReq{Token: rng.Uint64() >> rng.Intn(64), Req: client})
	}
	// Full-mix generator: Delivery and Stock-Level requests too.
	ftw := tpcc.New(tpcc.Config{
		Warehouses: 4, Districts: 2, CustomersPerDistrict: 100, Items: 500,
		DeliveryPct: 20, StockLevelPct: 20, CrossPctStockLevel: 50,
	})
	tg, yg, fg := tw.NewGen(7), yw.NewGen(8), ftw.NewGen(9)
	for i := 0; i < 200; i++ {
		request("tpcc", txn.NewRequest(tg.Mixed(i%4), int64(i)*1001))
		request("ycsb", txn.NewRequest(yg.Mixed(i%4), int64(i)*77))
		request("tpcc full-mix", txn.NewRequest(fg.Mixed(i%4), int64(i)*501))
	}
	retried := txn.NewRequest(yg.Cross(1), 5)
	retried.Retries = 300 // a two-byte uvarint
	request("request retried 300 times", retried)
	for i := 0; i < 200; i++ {
		b := randomEnvelope(rng)
		check("envelope", b)
		check("snapshot", &msgSnapshot{Part: rng.Intn(300), Rows: b})
		check("sync envelope", syncBatch{Batch: b, Worker: rng.Intn(8), Seq: rng.Uint64() >> rng.Intn(64), ReplyTo: rng.Intn(4)})
	}
}

// TestDeferredYCSBRequestBytes pins what a deferred YCSB request costs at
// the benchmark's configuration (2 partitions of 200 000 rows, 10 % cross,
// a generation stamp up to 15 s of nanoseconds): a generated cross
// transaction's msgDefer frame averages at most 72 B (101.6 B while an
// access crossed as four fields). Every transaction the generator and the
// client constructors build decodes to an equal request and re-encodes
// to the same bytes.
func TestDeferredYCSBRequestBytes(t *testing.T) {
	yw := ycsb.New(ycsb.Config{Partitions: 2, RecordsPerPartition: 200_000, CrossPct: 10})
	c := wire.NewCodec()
	registerMessages(c)
	yw.RegisterWire(c)
	rng := rand.New(rand.NewSource(1))
	roundTrip := func(name string, p txn.Procedure) int {
		t.Helper()
		req := txn.NewRequest(p, rng.Int63n(15e9))
		enc, err := c.AppendRequest(nil, req)
		if err != nil {
			t.Fatalf("%s: encode: %v", name, err)
		}
		dec, rest, err := c.DecodeRequest(enc)
		if err != nil || len(rest) != 0 {
			t.Fatalf("%s: decode: %v (%d bytes left)", name, err, len(rest))
		}
		if !reflect.DeepEqual(dec, req) {
			t.Fatalf("%s: decodes to\n%#v\nwant\n%#v", name, dec.Proc, req.Proc)
		}
		if re, _ := c.AppendRequest(nil, dec); string(re) != string(enc) {
			t.Fatalf("%s: re-encodes to\n%x\nwas\n%x", name, re, enc)
		}
		return msgDefer{Req: req}.Size()
	}
	g := yw.NewGen(7)
	const draws = 10_000
	crossBytes := 0
	for i := 0; i < draws; i++ {
		crossBytes += roundTrip("cross", g.Cross(i%2))
		roundTrip("single", g.Single(i%2))
		roundTrip("mixed", g.Mixed(i%2))
	}
	parts, rows := []int{0, 1}, []int{0, 199_999}
	roundTrip("client write", yw.WriteTxn(parts, rows, []byte("c000000001")))
	roundTrip("client read", yw.ReadTxn(parts, rows))
	mean := float64(crossBytes) / draws
	if mean > 72 {
		t.Fatalf("a deferred cross request averages %.1f B, want at most 72", mean)
	}
	t.Logf("a deferred cross request averages %.1f B", mean)
}

// randomEnvelope draws an envelope of operation entries, tombstones and
// rows from random to all zeros (which cross zero-packed), over changing
// tables, partitions, keys (raw-escaped ones among them) and TIDs.
func randomEnvelope(rng *rand.Rand) *replication.Batch {
	b := &replication.Batch{From: rng.Intn(4), Epoch: uint64(rng.Intn(1000))}
	for n := rng.Intn(60); len(b.Entries) < n; {
		e := replication.Entry{Table: storage.TableID(rng.Intn(3)), Part: int32(rng.Intn(300)),
			Key: storage.K2(uint64(rng.Intn(64)), rng.Uint64()>>rng.Intn(64)), TID: storage.MakeTID(b.Epoch, uint64(rng.Intn(500)))}
		switch rng.Intn(4) {
		case 0:
			e.Ops = []storage.FieldOp{storage.AddInt64Op(rng.Intn(8), rng.Int63()), storage.PrependOp(1, []byte("note"))}[:rng.Intn(3)]
		case 1:
			e.Absent = true
		default:
			e.Row = make([]byte, 1+rng.Intn(300))
			zeroPct := rng.Intn(101)
			for j := range e.Row {
				if rng.Intn(100) >= zeroPct {
					e.Row[j] = byte(1 + rng.Intn(255))
				}
			}
		}
		b.Entries = append(b.Entries, e)
	}
	return b
}

// sizeSink keeps the size passes the budget below measures.
var sizeSink int

// TestRequestCodecAllocBudget pins what the field walk costs a routed
// request: the encoding and sizing passes allocate nothing (the walker
// is pooled, or for a Size() on the stack; the output buffer is the
// caller's), and decoding allocates
// what the hand-written decoders did — the request, its partition list,
// the procedure and its parameter slices: 7 for a YCSB transaction, 6 for
// a New-Order.
func TestRequestCodecAllocBudget(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	tw, yw := testWorkloads()
	c := testCodec(tw, yw)
	var newOrder *txn.Request
	for g := tw.NewGen(3); newOrder == nil; {
		if p, ok := g.Cross(1).(*tpcc.NewOrderTxn); ok {
			newOrder = txn.NewRequest(p, 12345)
		}
	}
	for _, tc := range []struct {
		name   string
		req    *txn.Request
		decode float64
	}{
		{"ycsb", txn.NewRequest(yw.NewGen(4).Cross(2), 777), 7},
		{"new-order", newOrder, 6},
	} {
		enc, err := c.AppendRequest(nil, tc.req)
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 0, len(enc))
		if n := testing.AllocsPerRun(200, func() { c.AppendRequest(buf, tc.req) }); n != 0 {
			t.Errorf("%s: encoding into a sized buffer allocates %v times, want 0", tc.name, n)
		}
		sizes := func() { sizeSink = msgDefer{Req: tc.req}.Size() + ClientReq{Req: tc.req}.Size() }
		if n := testing.AllocsPerRun(200, sizes); n != 0 {
			t.Errorf("%s: the size pass allocates %v times, want 0", tc.name, n)
		}
		if n := testing.AllocsPerRun(200, func() { c.DecodeRequest(enc) }); n != tc.decode {
			t.Errorf("%s: decoding allocates %v times, want %v", tc.name, n, tc.decode)
		}
	}
}

// TestRequestGenAtRebasedAcrossClockDomains pins the cross-process
// latency-stamp fix: with clocked codecs on both sides, a request's
// GenAt is re-based from the sender's clock domain into the receiver's —
// the request keeps its age instead of carrying a raw foreign timestamp
// (multi-process runtimes have unrelated clock origins). Unclocked
// codecs (scripted runs, whose GenAt is a deterministic ordering stamp)
// pass GenAt through verbatim.
func TestRequestGenAtRebasedAcrossClockDomains(t *testing.T) {
	tw, yw := testWorkloads()
	tg := tw.NewGen(5)
	req := txn.NewRequest(tg.Cross(1), 0)

	// Sender: its process clock reads 1000 and the request is 400 old.
	sender := testCodec(tw, yw)
	sender.SetClock(func() int64 { return 1000 })
	req.GenAt = 600
	enc, err := sender.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}

	// Receiver: a different clock origin (reads 5000 at decode).
	receiver := testCodec(tw, yw)
	receiver.SetClock(func() int64 { return 5000 })
	dec, _, err := receiver.DecodeRequest(enc)
	if err != nil {
		t.Fatal(err)
	}
	if dec.GenAt != 5000-400 {
		t.Fatalf("re-based GenAt = %d, want %d (age preserved)", dec.GenAt, 5000-400)
	}

	// Unclocked codecs: verbatim (scripted determinism relies on this).
	plain := testCodec(tw, yw)
	enc2, err := plain.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	dec2, _, err := plain.DecodeRequest(enc2)
	if err != nil {
		t.Fatal(err)
	}
	if dec2.GenAt != 600 {
		t.Fatalf("unclocked GenAt = %d, want 600 verbatim", dec2.GenAt)
	}
}

// retiredFrames holds, per message id this codec retired, the last frame
// a parent-commit process encoded under it: from
// testdata/golden_frames.txt at dccb7a8, when mastership stopped
// travelling, the phase command with its Master, the revert with its
// NewMasters, msgUpdateMasters and the topology install with its Master;
// from the same file at 36363a7, the snapshot as one table's key/TID/row
// columns; at 966dc75, the worker's done report, which no longer
// crosses the transport; and at b696c03, when admission stopped shipping
// counters, the phase and recovery reports with their Sent vectors, the
// install without its failed set, and the counter reset and alignment;
// and at eb95c0c, the install with the layout its member set derives.
var retiredFrames = [][]byte{
	{0x01, 0x01, 0x09, 0x80, 0xe8, 0x92, 0x26, 0x02, 0x02, 0x04, 0x06, 0xe0, 0xc5, 0x08, 0x0a, 0x22},
	{0x07, 0x08, 0x01, 0x02, 0x04, 0x00, 0x00, 0x04, 0x06},
	{0x0f, 0x04, 0x00, 0x02, 0x04, 0x06},
	{0x1c, 0x07, 0x04, 0x03, 0x00, 0x04, 0x06, 0x04, 0x00, 0x00, 0x04, 0x06, 0x04, 0x04, 0x06, 0x01, 0x01},
	{
		0x09, 0x01, 0xc8, 0x01, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x00, 0x00, 0x04, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x05, 0x61, 0x6c,
		0x70, 0x68, 0x61, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00,
		0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x08, 0x00, 0x00, 0x00, 0x00,
	},
	{0x10, 0x02, 0x64, 0x5a, 0x0a, 0x50, 0x12, 0xa4, 0x13, 0xdc, 0x58},
	{0x02, 0x04, 0xac, 0x02, 0x03, 0x00, 0x08, 0xd0, 0x8c, 0x01, 0xf0, 0x01, 0xdc, 0x01, 0x18, 0x0e},
	{0x0d, 0x04, 0x03, 0x0e, 0x00, 0x06},
	{0x20, 0x07, 0x03, 0x00, 0x04, 0x06, 0x04, 0x00, 0x00, 0x04, 0x06, 0x04, 0x04, 0x06, 0x01, 0x01},
	{0x0c, 0x03, 0x0a, 0x00, 0x12},
	{0x15, 0x02, 0x80, 0x40},
	{0x24, 0x07, 0x03, 0x00, 0x04, 0x06, 0x04, 0x00, 0x00, 0x04, 0x06, 0x04, 0x04, 0x06, 0x01, 0x01, 0x02, 0x04, 0x06},
}

// A frame from a process one commit behind is refused as an unknown id,
// loudly, rather than decoded as whatever now has those bytes' shape:
// the reshaped messages took fresh ids and the old ones stay retired.
func TestRetiredIDsAreRejected(t *testing.T) {
	tw, yw := testWorkloads()
	c := testCodec(tw, yw)
	for _, frame := range retiredFrames {
		m, err := c.Decode(frame)
		if !errors.Is(err, prim.ErrCorrupt) || !strings.Contains(fmt.Sprint(err), "unknown message id") {
			t.Fatalf("retired id %d: decoded to %#v, err %v; want an unknown-id rejection", frame[0], m, err)
		}
	}
}

// corpusSeed mirrors the wire package's committed-corpus helper.
func corpusSeed(f *testing.F, target string, idx int, data []byte) {
	f.Helper()
	f.Add(data)
	namedSeed(f, target, fmt.Sprintf("seed-%02d", idx), data)
}

// namedSeed materialises data as the committed corpus file
// testdata/fuzz/<target>/<name>, which the fuzz target runs as a subtest
// of that name; a rerun rewrites only a file whose content moved.
func namedSeed(f *testing.F, target, name string, data []byte) {
	f.Helper()
	dir := filepath.Join("testdata", "fuzz", target)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		f.Fatalf("corpus dir: %v", err)
	}
	path := filepath.Join(dir, name)
	content := "go test fuzz v1\n[]byte(" + strconv.Quote(string(data)) + ")\n"
	if existing, err := os.ReadFile(path); err == nil && string(existing) == content {
		return
	}
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		f.Fatalf("write corpus seed: %v", err)
	}
}

// FuzzWireMessages throws arbitrary frame bodies at the full message
// codec: decoding must never panic (truncated/corrupt frames are
// rejected with errors), and anything that decodes must survive a
// canonical re-encode/decode cycle unchanged.
func FuzzWireMessages(f *testing.F) {
	tw, yw := testWorkloads()
	c := testCodec(tw, yw)
	samples := sampleMessages(tw, yw)
	for i, m := range samples {
		enc, err := c.Append(nil, m)
		if err != nil {
			f.Fatalf("seed %d: %v", i, err)
		}
		corpusSeed(f, "FuzzWireMessages", i, enc)
	}
	for i, frame := range retiredFrames {
		corpusSeed(f, "FuzzWireMessages", len(samples)+i, frame)
	}
	// Both YCSB access forms: canonical (rows of their partitions, a write
	// among them) and escaped (row 250 of a 100-row partition is not its).
	for i, p := range []txn.Procedure{
		yw.WriteTxn([]int{0, 3}, []int{0, 99}, []byte("v")), yw.ReadTxn([]int{1, 2}, []int{250, 7}),
	} {
		enc, err := c.Append(nil, msgDefer{Req: txn.NewRequest(p, 5)})
		if err != nil {
			f.Fatal(err)
		}
		corpusSeed(f, "FuzzWireMessages", len(samples)+len(retiredFrames)+i, enc)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := c.Decode(data)
		if err != nil {
			return // rejected cleanly
		}
		enc, err := c.Append(nil, m)
		if err != nil {
			t.Fatalf("decoded %T does not re-encode: %v", m, err)
		}
		m2, err := c.Decode(enc)
		if err != nil {
			t.Fatalf("canonical encoding of %T does not decode: %v", m, err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("canonical round trip changed %T:\n%#v\nvs\n%#v", m, m, m2)
		}
	})
}
