package tpcc

import (
	"encoding/binary"
	"hash/fnv"
	"reflect"
	"testing"

	"star/internal/occ"
	"star/internal/storage"
	"star/internal/txn"
	"star/internal/wire/prim"
)

func smallCfg() Config {
	return Config{
		Warehouses:           4,
		Districts:            2,
		CustomersPerDistrict: 30,
		Items:                100,
	}
}

func loadSmall(t *testing.T) (*Workload, *storage.DB) {
	t.Helper()
	w := New(smallCfg())
	db := w.BuildDB(4, nil)
	w.Load(db)
	return w, db
}

// executor is the reference single-threaded Ctx (no concurrency control).
type executor struct {
	db  *storage.DB
	set txn.RWSet
	gen occ.TIDGen
}

func (e *executor) Read(tb storage.TableID, part int, key storage.Key) ([]byte, bool) {
	rec := e.db.Table(tb).Get(part, key)
	if rec == nil {
		return nil, false
	}
	val, tid, present := rec.ReadStable(nil)
	if !present {
		return nil, false
	}
	if !e.db.Table(tb).Replicated() {
		e.set.AddRead(tb, part, key, rec, tid)
	}
	// Apply own pending writes (read-your-writes) — the reference
	// executor is strict so procedure logic can rely on it.
	if w := e.set.FindWrite(tb, part, key); w != nil && !w.Insert {
		val = append([]byte(nil), val...)
		for _, op := range w.Ops {
			op.Apply(e.db.Table(tb).Schema(), val)
		}
	}
	return val, true
}

func (e *executor) Write(tb storage.TableID, part int, key storage.Key, ops ...storage.FieldOp) {
	e.set.AddWrite(tb, part, key, ops...)
}

func (e *executor) Insert(tb storage.TableID, part int, key storage.Key, row []byte) {
	e.set.AddInsert(tb, part, key, row)
}

func (e *executor) Delete(tb storage.TableID, part int, key storage.Key) {
	e.set.AddDelete(tb, part, key)
}

func (e *executor) LookupIndex(tb storage.TableID, part, idx int, val []byte, dst []storage.Key) []storage.Key {
	return e.db.Table(tb).IndexLookup(part, idx, val, storage.IndexAllEpochs, dst)
}

func (e *executor) commit(t *testing.T, db *storage.DB) {
	t.Helper()
	if _, ok := occ.CommitSerial(db, &e.set, 2, &e.gen, false); !ok {
		t.Fatal("commit refused: duplicate insert, or update/delete of an absent record")
	}
	e.set.Reset()
}

func TestLoadPopulatesAllTables(t *testing.T) {
	w, db := loadSmall(t)
	cfg := w.Config()
	if db.Table(TWarehouse).Partition(0).Len() != 1 {
		t.Fatal("warehouse row missing")
	}
	if got := db.Table(TDistrict).Partition(1).Len(); got != cfg.Districts {
		t.Fatalf("districts=%d", got)
	}
	if got := db.Table(TCustomer).Partition(2).Len(); got != cfg.Districts*cfg.CustomersPerDistrict {
		t.Fatalf("customers=%d", got)
	}
	if got := db.Table(TStock).Partition(3).Len(); got != cfg.Items {
		t.Fatalf("stock=%d", got)
	}
	if got := db.Table(TItem).Partition(0).Len(); got != cfg.Items {
		t.Fatalf("items=%d", got)
	}
}

func TestLoadDeterministicAcrossReplicas(t *testing.T) {
	w := New(smallCfg())
	a := w.BuildDB(4, nil)
	w.Load(a)
	b := w.BuildDB(4, []bool{true, true, false, false})
	w.Load(b)
	for p := 0; p < 2; p++ {
		if a.PartitionChecksum(p) != b.PartitionChecksum(p) {
			t.Fatalf("partition %d differs", p)
		}
	}
}

func TestCustomerNameIndex(t *testing.T) {
	_, db := loadSmall(t)
	// Customer 5 of district 0, warehouse 1 has LastName(5).
	keys := db.Table(TCustomer).IndexLookup(1, CustNameIdx,
		CustNameVal(nil, 0, []byte(LastName(5))), storage.IndexAllEpochs, nil)
	if len(keys) == 0 {
		t.Fatal("name index empty")
	}
	found := false
	for _, k := range keys {
		if k == CKey(1, 0, 5) {
			found = true
		}
	}
	if !found {
		t.Fatalf("customer key missing from index: %v", keys)
	}
}

// TestPaymentByNameResolvesMedianThroughIndex pins the §2.5.2.2 rule:
// the by-name path resolves at execution time to the median of the
// key-sorted index matches — the same customer the pre-index generator
// used to compute arithmetically at generation time.
func TestPaymentByNameResolvesMedianThroughIndex(t *testing.T) {
	cfg := smallCfg()
	cfg.CustomersPerDistrict = 25 // names 0..24 have exactly one match
	w := New(cfg)
	db := w.BuildDB(4, nil)
	w.Load(db)

	pay := &PaymentTxn{
		W: w, WID: 0, DID: 0, CWID: 1, CDID: 1,
		ByName: true, CLast: []byte(LastName(7)), CID: -1,
		Amount: 5, HSeq: 1, GenID: 1,
	}
	ex := &executor{db: db}
	if err := pay.Run(ex); err != nil {
		t.Fatal(err)
	}
	ex.commit(t, db)
	// cid 7 is the only (hence median) match for LastName(7).
	crow, _, _ := db.Table(TCustomer).Get(1, CKey(1, 1, 7)).ReadStable(nil)
	if got := w.customer.GetFloat64(crow, CBalance); got != -10-pay.Amount {
		t.Fatalf("median-match customer balance %v, want %v", got, -10-pay.Amount)
	}

	// An unknown name aborts (generation never produces one, §2.5.2.2
	// guarantees matches at standard scale).
	bad := &PaymentTxn{W: w, WID: 0, DID: 0, CWID: 1, CDID: 1,
		ByName: true, CLast: []byte(LastName(997)), CID: -1, Amount: 5, HSeq: 2, GenID: 1}
	if err := bad.Run(&executor{db: db}); err != txn.ErrUserAbort {
		t.Fatalf("unknown name: err=%v, want ErrUserAbort", err)
	}
}

// TestOrderStatusReadsLastOrder drives NewOrder then Order-Status by
// name and by id through the reference executor: the query must find
// the order just inserted via the order_by_customer index.
func TestOrderStatusReadsLastOrder(t *testing.T) {
	w, db := loadSmall(t)
	no := &NewOrderTxn{
		W: w, WID: 2, DID: 1, CID: 4,
		Lines: []orderLineSpec{{IID: 1, SupplyW: 2, Quantity: 3}, {IID: 2, SupplyW: 2, Quantity: 1}},
	}
	ex := &executor{db: db}
	if err := no.Run(ex); err != nil {
		t.Fatal(err)
	}
	ex.commit(t, db)

	os := &OrderStatusTxn{W: w, WID: 2, CWID: 2, CDID: 1, CID: 4}
	if err := os.Run(&executor{db: db}); err != nil {
		t.Fatal(err)
	}
	if os.OrderID != 1 || os.Lines != 2 {
		t.Fatalf("order-status found oid=%d lines=%d, want 1/2", os.OrderID, os.Lines)
	}

	// By name: customer 4 carries LastName(4); the median (only) match
	// is the same customer, so the same order is found.
	osn := &OrderStatusTxn{W: w, WID: 0, CWID: 2, CDID: 1, CID: -1,
		ByName: true, CLast: []byte(LastName(4))}
	if err := osn.Run(&executor{db: db}); err != nil {
		t.Fatal(err)
	}
	if osn.OrderID != 1 || osn.Lines != 2 {
		t.Fatalf("by-name order-status oid=%d lines=%d, want 1/2", osn.OrderID, osn.Lines)
	}
	if osn.Balance != -10 {
		t.Fatalf("balance %v, want loader's -10", osn.Balance)
	}

	// A customer with no orders reports an empty status and commits.
	empty := &OrderStatusTxn{W: w, WID: 2, CWID: 2, CDID: 0, CID: 9}
	if err := empty.Run(&executor{db: db}); err != nil || empty.OrderID != 0 {
		t.Fatalf("empty status: err=%v oid=%d", err, empty.OrderID)
	}
}

// TestOrderIndexRevertedInsertDisappears is the epoch-revert pin for
// secondary indexes: a reverted NewOrder's order_by_customer entry must
// vanish with its row, and re-inserting after the revert must revive it.
func TestOrderIndexRevertedInsertDisappears(t *testing.T) {
	w, db := loadSmall(t)
	tbl := db.Table(TOrder)
	row := w.order.NewRow()
	w.order.SetUint64(row, OCID, 4)
	w.order.SetInt64(row, OOlCnt, 1)

	lookup := func() []storage.Key {
		return tbl.IndexLookup(2, OrderCustIdx, OrderCustVal(nil, 1, 4), storage.IndexAllEpochs, nil)
	}
	if _, ok := tbl.Insert(2, OKey(2, 1, 1), 5, storage.MakeTID(5, 1), row); !ok {
		t.Fatal("insert failed")
	}
	if got := lookup(); len(got) != 1 {
		t.Fatalf("index after insert: %v", got)
	}
	db.RevertEpoch(5)
	if got := lookup(); len(got) != 0 {
		t.Fatalf("index entry survived the epoch revert: %v", got)
	}
	if tbl.Get(2, OKey(2, 1, 1)) != nil {
		t.Fatal("order row survived the epoch revert")
	}
	// Re-insert (the post-revert re-execution): row and entry revive.
	if _, ok := tbl.Insert(2, OKey(2, 1, 1), 6, storage.MakeTID(6, 1), row); !ok {
		t.Fatal("re-insert failed")
	}
	if got := lookup(); len(got) != 1 || got[0] != OKey(2, 1, 1) {
		t.Fatalf("index after re-insert: %v", got)
	}
	db.CommitEpoch()
}

func TestNewOrderCommitsAndAdvancesOID(t *testing.T) {
	w, db := loadSmall(t)
	g := w.NewGen(1).(*Gen)
	var no *NewOrderTxn
	for {
		p := g.Single(0)
		if nt, ok := p.(*NewOrderTxn); ok && !nt.Invalid {
			no = nt
			break
		}
	}
	ex := &executor{db: db}
	if err := no.Run(ex); err != nil {
		t.Fatal(err)
	}
	ex.commit(t, db)

	drow, _, _ := db.Table(TDistrict).Get(no.WID, DKey(no.WID, no.DID)).ReadStable(nil)
	if got := w.district.GetUint64(drow, DNextOID); got != 2 {
		t.Fatalf("d_next_o_id=%d, want 2", got)
	}
	if db.Table(TOrder).Get(no.WID, OKey(no.WID, no.DID, 1)) == nil {
		t.Fatal("order row missing")
	}
	if db.Table(TNewOrder).Get(no.WID, OKey(no.WID, no.DID, 1)) == nil {
		t.Fatal("new_order row missing")
	}
	for i := range no.Lines {
		if db.Table(TOrderLine).Get(no.WID, OLKey(no.WID, no.DID, 1, i+1)) == nil {
			t.Fatalf("order line %d missing", i+1)
		}
	}
}

func TestNewOrderInvalidItemRollsBack(t *testing.T) {
	w, db := loadSmall(t)
	g := w.NewGen(2).(*Gen)
	var no *NewOrderTxn
	for {
		if nt, ok := g.Single(1).(*NewOrderTxn); ok && nt.Invalid {
			no = nt
			break
		}
	}
	ex := &executor{db: db}
	if err := no.Run(ex); err != txn.ErrUserAbort {
		t.Fatalf("err=%v, want ErrUserAbort", err)
	}
}

func TestPaymentMovesMoney(t *testing.T) {
	w, db := loadSmall(t)
	g := w.NewGen(3).(*Gen)
	var pay *PaymentTxn
	for {
		if pt, ok := g.Single(2).(*PaymentTxn); ok {
			pay = pt
			break
		}
	}
	before, _, _ := db.Table(TWarehouse).Get(pay.WID, WKey(pay.WID)).ReadStable(nil)
	ytdBefore := w.warehouse.GetFloat64(before, WYtd)
	cBefore, _, _ := db.Table(TCustomer).Get(pay.CWID, CKey(pay.CWID, pay.CDID, pay.CID)).ReadStable(nil)
	balBefore := w.customer.GetFloat64(cBefore, CBalance)

	ex := &executor{db: db}
	if err := pay.Run(ex); err != nil {
		t.Fatal(err)
	}
	ex.commit(t, db)

	after, _, _ := db.Table(TWarehouse).Get(pay.WID, WKey(pay.WID)).ReadStable(nil)
	if got := w.warehouse.GetFloat64(after, WYtd); got != ytdBefore+pay.Amount {
		t.Fatalf("w_ytd=%v, want %v", got, ytdBefore+pay.Amount)
	}
	cAfter, _, _ := db.Table(TCustomer).Get(pay.CWID, CKey(pay.CWID, pay.CDID, pay.CID)).ReadStable(nil)
	if got := w.customer.GetFloat64(cAfter, CBalance); got != balBefore-pay.Amount {
		t.Fatalf("c_balance=%v, want %v", got, balBefore-pay.Amount)
	}
	if db.Table(THistory).Get(pay.WID, HKey(pay.WID, pay.GenID, pay.HSeq)) == nil {
		t.Fatal("history row missing")
	}
}

func TestBadCreditCustomerGetsCDataPrepend(t *testing.T) {
	w, db := loadSmall(t)
	// Find a bad-credit customer in warehouse 0 district 0.
	var bc int = -1
	for cid := 0; cid < w.Config().CustomersPerDistrict; cid++ {
		crow, _, _ := db.Table(TCustomer).Get(0, CKey(0, 0, cid)).ReadStable(nil)
		if string(w.customer.GetBytes(crow, CCredit)) == "BC" {
			bc = cid
			break
		}
	}
	if bc == -1 {
		t.Skip("no bad-credit customer in tiny config")
	}
	pay := &PaymentTxn{W: w, WID: 0, DID: 0, CWID: 0, CDID: 0, CID: bc, Amount: 10, HSeq: 1, GenID: 9}
	ex := &executor{db: db}
	if err := pay.Run(ex); err != nil {
		t.Fatal(err)
	}
	// The customer write must include a prepend op (the op-replication
	// payload is tiny compared to the 500-byte C_DATA field).
	found := false
	for _, wr := range ex.set.Writes {
		if wr.Table == TCustomer {
			for _, op := range wr.Ops {
				if op.Kind == storage.OpPrepend {
					found = true
					if size := prim.FieldOpLen(&op); size > 60 {
						t.Fatalf("prepend op %dB; should be small", size)
					}
				}
			}
		}
	}
	if !found {
		t.Fatal("bad-credit payment must carry a C_DATA prepend op")
	}
}

// deliver runs one Delivery batch through the reference executor.
func deliver(t *testing.T, w *Workload, db *storage.DB, wid int) {
	t.Helper()
	d := &DeliveryTxn{W: w, WID: wid, Carrier: 3, DeliveryD: 77}
	ex := &executor{db: db}
	if err := d.Run(ex); err != nil {
		t.Fatalf("delivery: %v", err)
	}
	ex.commit(t, db)
}

// TestDeliveryDeletesNewOrderRow: a delivered order's NEW-ORDER row is
// physically deleted, not just stamped (the unbounded-memory fix).
func TestDeliveryDeletesNewOrderRow(t *testing.T) {
	w, db := loadSmall(t)
	no := &NewOrderTxn{W: w, WID: 1, DID: 0, CID: 2,
		Lines: []orderLineSpec{{IID: 1, SupplyW: 1, Quantity: 1}}}
	ex := &executor{db: db}
	if err := no.Run(ex); err != nil {
		t.Fatal(err)
	}
	ex.commit(t, db)
	if db.Table(TNewOrder).Get(1, OKey(1, 0, 1)) == nil {
		t.Fatal("new_order row missing before delivery")
	}

	deliver(t, w, db, 1)
	rec := db.Table(TNewOrder).Get(1, OKey(1, 0, 1))
	if rec != nil {
		if _, _, present := rec.ReadStable(nil); present {
			t.Fatal("delivered NEW-ORDER row still present")
		}
	}
	// The order itself survives, stamped with the carrier.
	orow, _, ok := db.Table(TOrder).Get(1, OKey(1, 0, 1)).ReadStable(nil)
	if !ok || w.order.GetInt64(orow, OCarrierID) != 3 {
		t.Fatal("order row lost or carrier not stamped")
	}
}

// TestDeliverySkipsDistrictWithMissingNewOrder pins §2.7.4.2: when the
// NEW-ORDER row at the cursor is gone, Delivery skips the district —
// the batch still commits (nil, not an abort) and, because the row is
// confirmed before the cursor write is buffered, it leaves no district
// write behind for that district.
func TestDeliverySkipsDistrictWithMissingNewOrder(t *testing.T) {
	w, db := loadSmall(t)
	no := &NewOrderTxn{W: w, WID: 1, DID: 0, CID: 2,
		Lines: []orderLineSpec{{IID: 1, SupplyW: 1, Quantity: 1}}}
	ex := &executor{db: db}
	if err := no.Run(ex); err != nil {
		t.Fatal(err)
	}
	ex.commit(t, db)

	// Corrupt the queue: remove the NEW-ORDER row out from under the
	// cursor (the only way a miss can arise — deliveries themselves
	// always advance the cursor past the rows they delete).
	ex = &executor{db: db}
	ex.Delete(TNewOrder, 1, OKey(1, 0, 1))
	ex.commit(t, db)

	d := &DeliveryTxn{W: w, WID: 1, Carrier: 5, DeliveryD: 9}
	ex = &executor{db: db}
	if err := d.Run(ex); err != nil {
		t.Fatalf("delivery with a missing NEW-ORDER must still commit: %v", err)
	}
	for _, wr := range ex.set.Writes {
		if wr.Table == TDistrict {
			t.Fatal("skipped district must not buffer a cursor write")
		}
	}
	ex.commit(t, db)
	drow, _, _ := db.Table(TDistrict).Get(1, DKey(1, 0)).ReadStable(nil)
	if got := w.district.GetUint64(drow, DNextDelOID); got != 1 {
		t.Fatalf("d_next_del_o_id=%d after a skipped district, want 1", got)
	}
}

// TestTrimReclaimsDeliveredOrdersAndHistory drives the trimmer through
// the reference executor: delivered orders more than Retain behind the
// cursor are deleted with their order lines, the low-water cursor
// advances exactly over the reclaimed range, undelivered and retained
// orders survive, and the listed history rows are reclaimed.
func TestTrimReclaimsDeliveredOrdersAndHistory(t *testing.T) {
	w, db := loadSmall(t)
	// Four orders in (w1, d0), three of them delivered.
	for oid := 1; oid <= 4; oid++ {
		no := &NewOrderTxn{W: w, WID: 1, DID: 0, CID: 2,
			Lines: []orderLineSpec{{IID: oid, SupplyW: 1, Quantity: 1}, {IID: oid + 10, SupplyW: 1, Quantity: 2}}}
		ex := &executor{db: db}
		if err := no.Run(ex); err != nil {
			t.Fatal(err)
		}
		ex.commit(t, db)
	}
	for i := 0; i < 3; i++ {
		deliver(t, w, db, 1)
	}
	// One history row from a payment, to ride along.
	pay := &PaymentTxn{W: w, WID: 1, DID: 0, CWID: 1, CDID: 0, CID: 2, Amount: 5, HSeq: 7, GenID: 9}
	ex := &executor{db: db}
	if err := pay.Run(ex); err != nil {
		t.Fatal(err)
	}
	ex.commit(t, db)

	// Cursor state: d_next_o_id=5, d_next_del_o_id=4, d_trim_o_id=1.
	// Retain=1 → trim oids [1, 4-1-1] = {1, 2}.
	tr := &TrimTxn{W: w, WID: 1, Retain: 1, Batch: 8, GenID: 9, HistSeqs: []uint64{7}}
	ex = &executor{db: db}
	if err := tr.Run(ex); err != nil {
		t.Fatal(err)
	}
	ex.commit(t, db)

	present := func(tb storage.TableID, key storage.Key) bool {
		rec := db.Table(tb).Get(1, key)
		if rec == nil {
			return false
		}
		_, _, p := rec.ReadStable(nil)
		return p
	}
	for oid := 1; oid <= 2; oid++ {
		if present(TOrder, OKey(1, 0, oid)) {
			t.Fatalf("trimmed order %d still present", oid)
		}
		for ol := 1; ol <= 2; ol++ {
			if present(TOrderLine, OLKey(1, 0, oid, ol)) {
				t.Fatalf("order line %d/%d survived the trim", oid, ol)
			}
		}
	}
	for oid := 3; oid <= 4; oid++ {
		if !present(TOrder, OKey(1, 0, oid)) {
			t.Fatalf("order %d above the trim horizon was deleted", oid)
		}
	}
	if present(THistory, HKey(1, 9, 7)) {
		t.Fatal("listed history row survived the trim")
	}
	drow, _, _ := db.Table(TDistrict).Get(1, DKey(1, 0)).ReadStable(nil)
	if got := w.district.GetUint64(drow, DTrimOID); got != 3 {
		t.Fatalf("d_trim_o_id=%d, want 3", got)
	}
	// A second trim with nothing below the horizon is a no-op commit.
	tr2 := &TrimTxn{W: w, WID: 1, Retain: 1, Batch: 8, GenID: 9}
	ex = &executor{db: db}
	if err := tr2.Run(ex); err != nil {
		t.Fatal(err)
	}
	for _, wr := range ex.set.Writes {
		if wr.Delete {
			t.Fatal("idle trim deleted something")
		}
	}
}

func TestCrossPartitionFootprints(t *testing.T) {
	w := New(smallCfg())
	g := w.NewGen(5)
	sawNO, sawPay := false, false
	for i := 0; i < 100; i++ {
		p := g.Cross(1)
		req := txn.NewRequest(p, 0)
		switch pt := p.(type) {
		case *NewOrderTxn:
			if !req.Cross {
				t.Fatal("cross NewOrder stayed local")
			}
			sawNO = true
		case *PaymentTxn:
			if pt.CWID == pt.WID || !req.Cross {
				t.Fatal("cross Payment stayed local")
			}
			sawPay = true
		}
	}
	if !sawNO || !sawPay {
		t.Fatal("mix must alternate NewOrder and Payment")
	}
}

func TestMixedCrossRates(t *testing.T) {
	cfg := smallCfg()
	cfg.CrossPctNewOrder = 10
	cfg.CrossPctPayment = 15
	w := New(cfg)
	g := w.NewGen(6)
	crossNO, nNO, crossPay, nPay := 0, 0, 0, 0
	for i := 0; i < 4000; i++ {
		p := g.Mixed(0)
		req := txn.NewRequest(p, 0)
		switch p.(type) {
		case *NewOrderTxn:
			nNO++
			if req.Cross {
				crossNO++
			}
		case *PaymentTxn:
			nPay++
			if req.Cross {
				crossPay++
			}
		}
	}
	if nNO == 0 || nPay == 0 {
		t.Fatal("mix broken")
	}
	noRate := float64(crossNO) / float64(nNO) * 100
	payRate := float64(crossPay) / float64(nPay) * 100
	if noRate < 6 || noRate > 14 {
		t.Fatalf("NewOrder cross rate %.1f%%, want ≈10%%", noRate)
	}
	if payRate < 10 || payRate > 20 {
		t.Fatalf("Payment cross rate %.1f%%, want ≈15%%", payRate)
	}
}

func TestSetCrossPctZeroDisablesCross(t *testing.T) {
	cfg := smallCfg()
	cfg.SetCrossPct(0)
	w := New(cfg)
	g := w.NewGen(7)
	for i := 0; i < 500; i++ {
		if txn.NewRequest(g.Mixed(2), 0).Cross {
			t.Fatal("cross txn generated with CrossPct=0")
		}
	}
}

func TestGeneratorDeterminism(t *testing.T) {
	w := New(smallCfg())
	g1, g2 := w.NewGen(11), w.NewGen(11)
	for i := 0; i < 40; i++ {
		a, b := g1.Mixed(0), g2.Mixed(0)
		ra, rb := txn.NewRequest(a, 0), txn.NewRequest(b, 0)
		if a.Name() != b.Name() || len(ra.Parts) != len(rb.Parts) {
			t.Fatal("same seed must generate identical streams")
		}
		aa, ba := a.Accesses(), b.Accesses()
		if len(aa) != len(ba) {
			t.Fatal("access sets differ")
		}
		for j := range aa {
			if !reflect.DeepEqual(aa[j], ba[j]) {
				t.Fatal("access sets differ")
			}
		}
	}
}

func TestLastNameSyllables(t *testing.T) {
	if LastName(0) != "BARBARBAR" || LastName(371) != "PRICALLYOUGHT" {
		t.Fatalf("LastName broken: %q %q", LastName(0), LastName(371))
	}
}

func TestKeyPackingNoCollisions(t *testing.T) {
	// Keys only need to be unique within a table (tables are separate
	// hash maps); check each table's packing over a dense component grid.
	orders := map[storage.Key]bool{}
	lines := map[storage.Key]bool{}
	custs := map[storage.Key]bool{}
	for d := 0; d < 5; d++ {
		for o := 0; o < 50; o++ {
			if k := OKey(1, d, o); orders[k] {
				t.Fatalf("order key collision d=%d o=%d", d, o)
			} else {
				orders[k] = true
			}
			for l := 1; l <= 15; l++ {
				if k := OLKey(1, d, o, l); lines[k] {
					t.Fatalf("orderline key collision d=%d o=%d l=%d", d, o, l)
				} else {
					lines[k] = true
				}
			}
		}
		for c := 0; c < 100; c++ {
			if k := CKey(1, d, c); custs[k] {
				t.Fatalf("customer key collision d=%d c=%d", d, c)
			} else {
				custs[k] = true
			}
		}
	}
	if HKey(1, 3, 9) == HKey(1, 3, 10) || HKey(1, 3, 9) == HKey(1, 4, 9) {
		t.Fatal("history key collision")
	}
}

// TestLoadChecksumsPinned holds Load's generated data to fixed checksums
// — each warehouse's rows and index entries, and the replicated item
// table's rows: an edit to the row emitters that changes a row, a key or
// a TID fails here rather than silently shifting every benchmark's data.
func TestLoadChecksumsPinned(t *testing.T) {
	_, db := loadSmall(t)
	want := []uint64{0x7c6d148512867295, 0x2e4d1fe6c1b3d0ae, 0x6554d09970ab0773, 0x1c6742e69c060178}
	for p, sum := range want {
		if got := db.PartitionChecksum(p); got != sum {
			t.Errorf("warehouse %d: checksum %#x, want %#x", p, got, sum)
		}
	}
	var items uint64 // order-independent, as PartitionChecksum is
	db.Table(TItem).Partition(0).Range(func(key storage.Key, tid uint64, val []byte) bool {
		h := fnv.New64a()
		h.Write(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, key.Lo), tid))
		h.Write(val)
		items += h.Sum64()
		return true
	})
	if got, sum := items, uint64(0x8ed4ea5896e0836f); got != sum {
		t.Errorf("item table: checksum %#x, want %#x", got, sum)
	}
}
