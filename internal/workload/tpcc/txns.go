package tpcc

import (
	"math/rand"

	"star/internal/storage"
	"star/internal/txn"
	"star/internal/workload"
)

// Gen implements workload.Gen for TPC-C. With the paper's 2-txn subset
// (the default) the mix is approximated as the paper does: "a NewOrder
// transaction is followed by a Payment transaction" (50/50 alternation).
// With Delivery/Stock-Level percentages configured (SetFullMix) classes
// are drawn by weight, the NewOrder/Payment remainder keeping its
// standard 45:43 ratio.
type Gen struct {
	w     *Workload
	rng   *rand.Rand
	id    int // embedded in history keys for uniqueness
	hseq  uint64
	next  int       // 0 → NewOrder, 1 → Payment
	cload int       // NURand C constant
	hist  []histEnt // payment-history FIFO the trimmer drains (TrimPct > 0)
}

// histEnt remembers where one Payment put its history row so a later
// Trim batch can reclaim it.
type histEnt struct {
	wid int
	seq uint64
}

// Transaction classes pick() draws from.
const (
	clsNewOrder = iota
	clsPayment
	clsDelivery
	clsStockLevel
	clsOrderStatus
	clsTrim
)

// pick draws the next transaction class. The paper subset (no Delivery,
// Stock-Level, Order-Status or Trim share) keeps the seed's strict
// alternation — and its rng stream — so existing runs reproduce
// bit-for-bit.
func (g *Gen) pick() int {
	cfg := g.w.cfg
	if cfg.DeliveryPct <= 0 && cfg.StockLevelPct <= 0 && cfg.OrderStatusPct <= 0 && cfg.TrimPct <= 0 {
		g.next = 1 - g.next
		if g.next == 1 {
			return clsNewOrder
		}
		return clsPayment
	}
	r := g.rng.Intn(100)
	d, sl, os, tr := cfg.DeliveryPct, cfg.StockLevelPct, cfg.OrderStatusPct, cfg.TrimPct
	switch {
	case r < d:
		return clsDelivery
	case r < d+sl:
		return clsStockLevel
	case r < d+sl+os:
		return clsOrderStatus
	case r < d+sl+os+tr:
		return clsTrim
	default:
		rem := r - d - sl - os - tr
		span := 100 - d - sl - os - tr
		if rem*88 < span*45 { // NewOrder:Payment stays 45:43
			return clsNewOrder
		}
		return clsPayment
	}
}

// NewGen implements workload.Workload.
func (w *Workload) NewGen(seed int64) workload.Gen {
	rng := rand.New(rand.NewSource(seed))
	return &Gen{w: w, rng: rng, id: int(uint64(seed) % 255), cload: rng.Intn(256)}
}

// nuRand is the standard TPC-C non-uniform random function.
func (g *Gen) nuRand(a, x, y int) int {
	return (((g.rng.Intn(a+1) | (x + g.rng.Intn(y-x+1))) + g.cload) % (y - x + 1)) + x
}

func (g *Gen) customerID() int { return g.nuRand(1023, 0, g.w.cfg.CustomersPerDistrict-1) }
func (g *Gen) itemID() int     { return g.nuRand(8191, 0, g.w.cfg.Items-1) }

// Mixed implements workload.Gen: the configured mix, each class
// cross-partition with its configured probability.
func (g *Gen) Mixed(home int) txn.Procedure {
	switch g.pick() {
	case clsDelivery:
		return g.delivery(home)
	case clsTrim:
		return g.trim(home)
	case clsStockLevel:
		return g.stockLevel(home, g.rng.Intn(100) < g.w.cfg.CrossPctStockLevel)
	case clsOrderStatus:
		return g.orderStatus(home, g.rng.Intn(100) < g.w.cfg.CrossPctOrderStatus)
	case clsNewOrder:
		return g.newOrder(home, g.rng.Intn(100) < g.w.cfg.CrossPctNewOrder)
	default:
		return g.payment(home, g.rng.Intn(100) < g.w.cfg.CrossPctPayment)
	}
}

// Single implements workload.Gen.
func (g *Gen) Single(home int) txn.Procedure {
	switch g.pick() {
	case clsDelivery:
		return g.delivery(home)
	case clsTrim:
		return g.trim(home)
	case clsStockLevel:
		return g.stockLevel(home, false)
	case clsOrderStatus:
		return g.orderStatus(home, false)
	case clsNewOrder:
		return g.newOrder(home, false)
	default:
		return g.payment(home, false)
	}
}

// Cross implements workload.Gen. Delivery and Trim have no
// cross-partition form (both serve exactly one warehouse), so their
// shares map to cross NewOrder here.
func (g *Gen) Cross(home int) txn.Procedure {
	switch g.pick() {
	case clsStockLevel:
		return g.stockLevel(home, true)
	case clsOrderStatus:
		return g.orderStatus(home, true)
	case clsNewOrder, clsDelivery, clsTrim:
		return g.newOrder(home, true)
	default:
		return g.payment(home, true)
	}
}

func (g *Gen) remoteWarehouse(home int) int {
	if g.w.cfg.Warehouses == 1 {
		return home
	}
	for {
		if r := g.rng.Intn(g.w.cfg.Warehouses); r != home {
			return r
		}
	}
}

// ---- NewOrder ----

type orderLineSpec struct {
	IID      int
	SupplyW  int
	Quantity int
}

// NewOrderTxn is the TPC-C NewOrder transaction.
type NewOrderTxn struct {
	W        *Workload
	WID, DID int
	CID      int
	Lines    []orderLineSpec
	Invalid  bool // carries an unused item id: must roll back
	EntryD   int64
}

// Name implements txn.Procedure.
func (t *NewOrderTxn) Name() string { return "tpcc.neworder" }

// Accesses implements txn.Procedure.
func (t *NewOrderTxn) Accesses() []txn.Access {
	accs := make([]txn.Access, 0, 3+len(t.Lines))
	accs = append(accs,
		txn.Access{Table: TWarehouse, Part: t.WID, Key: WKey(t.WID)},
		txn.Access{Table: TDistrict, Part: t.WID, Key: DKey(t.WID, t.DID), Write: true},
		txn.Access{Table: TCustomer, Part: t.WID, Key: CKey(t.WID, t.DID, t.CID)},
	)
	for _, l := range t.Lines {
		accs = append(accs, txn.Access{Table: TStock, Part: l.SupplyW, Key: SKey(l.SupplyW, l.IID), Write: true})
	}
	return accs
}

// Run implements txn.Procedure, following TPC-C §2.4.2.
func (t *NewOrderTxn) Run(ctx txn.Ctx) error {
	w := t.W
	if _, ok := ctx.Read(TWarehouse, t.WID, WKey(t.WID)); !ok {
		return txn.ErrConflict
	}
	drow, ok := ctx.Read(TDistrict, t.WID, DKey(t.WID, t.DID))
	if !ok {
		return txn.ErrConflict
	}
	oid := int(w.district.GetUint64(drow, DNextOID))
	ctx.Write(TDistrict, t.WID, DKey(t.WID, t.DID), storage.AddInt64Op(DNextOID, 1))
	if _, ok := ctx.Read(TCustomer, t.WID, CKey(t.WID, t.DID, t.CID)); !ok {
		return txn.ErrConflict
	}

	allLocal := int64(1)
	var total float64
	for i, l := range t.Lines {
		if l.IID >= w.cfg.Items { // invalid item: §2.4.1.5 rollback
			return txn.ErrUserAbort
		}
		irow, ok := ctx.Read(TItem, 0, IKey(l.IID))
		if !ok {
			return txn.ErrUserAbort
		}
		price := w.item.GetFloat64(irow, IPrice)
		srow, ok := ctx.Read(TStock, l.SupplyW, SKey(l.SupplyW, l.IID))
		if !ok {
			return txn.ErrConflict
		}
		qty := w.stock.GetInt64(srow, SQuantity)
		newQty := qty - int64(l.Quantity)
		if newQty < 10 {
			newQty += 91
		}
		ops := []storage.FieldOp{
			storage.AddInt64Op(SQuantity, newQty-qty),
			storage.AddFloat64Op(SYtd, float64(l.Quantity)),
			storage.AddInt64Op(SOrderCnt, 1),
		}
		if l.SupplyW != t.WID {
			allLocal = 0
			ops = append(ops, storage.AddInt64Op(SRemoteCnt, 1))
		}
		ctx.Write(TStock, l.SupplyW, SKey(l.SupplyW, l.IID), ops...)

		olrow := w.orderLine.NewRow()
		w.orderLine.SetUint64(olrow, OLIID, uint64(l.IID))
		w.orderLine.SetUint64(olrow, OLSupplyWID, uint64(l.SupplyW))
		w.orderLine.SetInt64(olrow, OLQuantity, int64(l.Quantity))
		amount := float64(l.Quantity) * price
		w.orderLine.SetFloat64(olrow, OLAmount, amount)
		w.orderLine.SetString(olrow, OLDistInfo, "dist-info-123456789012")
		ctx.Insert(TOrderLine, t.WID, OLKey(t.WID, t.DID, oid, i+1), olrow)
		total += amount
	}

	orow := w.order.NewRow()
	w.order.SetUint64(orow, OCID, uint64(t.CID))
	w.order.SetInt64(orow, OEntryD, t.EntryD)
	w.order.SetInt64(orow, OOlCnt, int64(len(t.Lines)))
	w.order.SetInt64(orow, OAllLocal, allLocal)
	ctx.Insert(TOrder, t.WID, OKey(t.WID, t.DID, oid), orow)

	norow := w.newOrder.NewRow()
	w.newOrder.SetUint64(norow, 0, uint64(oid))
	ctx.Insert(TNewOrder, t.WID, OKey(t.WID, t.DID, oid), norow)
	_ = total
	return nil
}

func (g *Gen) newOrder(home int, cross bool) txn.Procedure {
	cfg := g.w.cfg
	t := &NewOrderTxn{
		W:   g.w,
		WID: home,
		DID: g.rng.Intn(cfg.Districts),
		CID: g.customerID(),
	}
	nLines := 5 + g.rng.Intn(11)
	remote := -1
	if cross {
		remote = g.remoteWarehouse(home)
	}
	seen := make(map[int]struct{}, nLines)
	for i := 0; i < nLines; i++ {
		iid := g.itemID()
		for attempt := 0; ; attempt++ {
			if _, dup := seen[iid]; !dup || attempt > 8 {
				break
			}
			iid = g.itemID()
		}
		seen[iid] = struct{}{}
		supply := home
		if cross && (g.rng.Intn(2) == 0 || i == nLines-1) && remote != home {
			supply = remote
		}
		t.Lines = append(t.Lines, orderLineSpec{IID: iid, SupplyW: supply, Quantity: 1 + g.rng.Intn(10)})
	}
	if g.rng.Intn(100) < cfg.InvalidItemPct {
		t.Invalid = true
		t.Lines[len(t.Lines)-1].IID = cfg.Items + 1 // unused id → rollback
	}
	return t
}

// ---- Payment ----

// PaymentTxn is the TPC-C Payment transaction.
type PaymentTxn struct {
	W          *Workload
	WID, DID   int // home warehouse/district (takes the money)
	CWID, CDID int // customer residence (remote on cross-partition runs)
	CID        int
	ByName     bool
	CLast      []byte
	Amount     float64
	HSeq       uint64
	GenID      int
	Date       int64
}

// Name implements txn.Procedure.
func (t *PaymentTxn) Name() string { return "tpcc.payment" }

// Accesses implements txn.Procedure. A by-last-name Payment cannot name
// its customer a priori: it declares an index-prefetch access instead —
// a synthetic lock name (serializing conflicting by-name lookups on
// deterministic engines) carrying the index id and lookup value, which
// push-based engines resolve on the customer partition's master. The
// dependent customer update is made of commutative record-latched field
// ops, the same tolerance Delivery's cursor-dependent writes rely on.
func (t *PaymentTxn) Accesses() []txn.Access {
	cust := txn.Access{Table: TCustomer, Part: t.CWID, Key: CKey(t.CWID, t.CDID, t.CID), Write: true}
	if t.ByName {
		cust = txn.Access{
			Table: TCustomer, Part: t.CWID, Key: nameLockKey(t.CWID, t.CDID, t.CLast),
			Write: true, LockOnly: true,
			Index: CustNameIdx, IndexVal: CustNameVal(nil, t.CDID, t.CLast),
		}
	}
	return []txn.Access{
		{Table: TWarehouse, Part: t.WID, Key: WKey(t.WID), Write: true},
		{Table: TDistrict, Part: t.WID, Key: DKey(t.WID, t.DID), Write: true},
		cust,
	}
}

// Run implements txn.Procedure, following TPC-C §2.5.2.
func (t *PaymentTxn) Run(ctx txn.Ctx) error {
	w := t.W
	if _, ok := ctx.Read(TWarehouse, t.WID, WKey(t.WID)); !ok {
		return txn.ErrConflict
	}
	ctx.Write(TWarehouse, t.WID, WKey(t.WID), storage.AddFloat64Op(WYtd, t.Amount))
	if _, ok := ctx.Read(TDistrict, t.WID, DKey(t.WID, t.DID)); !ok {
		return txn.ErrConflict
	}
	ctx.Write(TDistrict, t.WID, DKey(t.WID, t.DID), storage.AddFloat64Op(DYtd, t.Amount))

	cid := t.CID
	if t.ByName {
		// §2.5.2.2: resolve C_LAST through the secondary index at
		// execution time — sorted matches, pick the median. The loader
		// aligns customer ids with first names, so key order is the
		// standard sort order.
		var kbuf [8]storage.Key
		var vbuf [24]byte
		matches := ctx.LookupIndex(TCustomer, t.CWID, CustNameIdx,
			CustNameVal(vbuf[:0], t.CDID, t.CLast), kbuf[:0])
		if len(matches) == 0 {
			return txn.ErrUserAbort // no customer carries this name
		}
		cid = CIDOfKey(matches[len(matches)/2])
	}
	ckey := CKey(t.CWID, t.CDID, cid)
	crow, ok := ctx.Read(TCustomer, t.CWID, ckey)
	if !ok {
		return txn.ErrConflict
	}
	ops := []storage.FieldOp{
		storage.AddFloat64Op(CBalance, -t.Amount),
		storage.AddFloat64Op(CYtdPayment, t.Amount),
		storage.AddInt64Op(CPaymentCnt, 1),
	}
	if string(w.customer.GetBytes(crow, CCredit)) == "BC" {
		// Bad credit: prepend payment info to C_DATA, truncated at 500 —
		// the §5 poster child for operation replication.
		info := paymentInfo(cid, t.CDID, t.CWID, t.DID, t.WID, t.Amount)
		ops = append(ops, storage.PrependOp(CData, info))
	}
	ctx.Write(TCustomer, t.CWID, ckey, ops...)

	hrow := w.history.NewRow()
	w.history.SetFloat64(hrow, HAmount, t.Amount)
	w.history.SetInt64(hrow, HDate, t.Date)
	w.history.SetString(hrow, HData, "payment-history")
	ctx.Insert(THistory, t.WID, HKey(t.WID, t.GenID, t.HSeq), hrow)
	return nil
}

func paymentInfo(cid, cdid, cwid, did, wid int, amount float64) []byte {
	b := make([]byte, 0, 32)
	put := func(v int) {
		b = appendInt(b, v)
		b = append(b, ' ')
	}
	put(cid)
	put(cdid)
	put(cwid)
	put(did)
	put(wid)
	b = appendInt(b, int(amount*100))
	b = append(b, ';')
	return b
}

func appendInt(b []byte, v int) []byte {
	if v < 0 {
		b = append(b, '-')
		v = -v
	}
	var tmp [20]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = byte('0' + v%10)
		v /= 10
		if v == 0 {
			break
		}
	}
	return append(b, tmp[i:]...)
}

// ---- Delivery ----

// DeliveryTxn is the TPC-C Delivery transaction (§2.7): one batch that,
// for every district of a warehouse, delivers the oldest undelivered
// order — stamping O_CARRIER_ID and OL_DELIVERY_D and crediting the
// customer's balance with the order's total. Per §2.7.2 it executes in
// deferred mode (Deferred() is true): phase-switching engines queue it
// to the single-master phase instead of running it inline.
//
// The oldest undelivered order is tracked by the district's
// D_NEXT_DEL_O_ID cursor (undelivered ids are [cursor, D_NEXT_O_ID)), a
// standard in-memory TPC-C device that makes the lookup a point read.
// Delivery deletes the NEW-ORDER row it serves (§2.7.4.2's "the row in
// the NEW-ORDER table is deleted"), so row presence and the cursor
// agree on "undelivered". The NEW-ORDER read happens before the cursor
// write: read-first means a missing row skips the district per
// §2.7.4.2 with no cursor advance left behind to revert on abort.
type DeliveryTxn struct {
	W         *Workload
	WID       int
	Carrier   int64 // O_CARRIER_ID ∈ [1,10]
	DeliveryD int64 // OL_DELIVERY_D stamp
}

// Name implements txn.Procedure.
func (t *DeliveryTxn) Name() string { return "tpcc.delivery" }

// Deferred implements txn.DeferredMarker (§2.7.2 deferred execution).
func (t *DeliveryTxn) Deferred() bool { return true }

// Accesses implements txn.Procedure: the per-district delivery cursors,
// in write mode. The order/order-line/customer rows depend on cursor
// values read at execution time and cannot be declared a priori;
// lock-based engines serialise conflicting Deliveries (and NewOrders)
// on the district rows, and the dependent updates are commutative
// record-latched field ops.
func (t *DeliveryTxn) Accesses() []txn.Access {
	accs := make([]txn.Access, 0, t.W.cfg.Districts)
	for did := 0; did < t.W.cfg.Districts; did++ {
		accs = append(accs, txn.Access{Table: TDistrict, Part: t.WID, Key: DKey(t.WID, did), Write: true})
	}
	return accs
}

// Run implements txn.Procedure, following §2.7.4. Districts with no
// undelivered order are skipped (§2.7.4.2: the result is still a
// committed transaction).
func (t *DeliveryTxn) Run(ctx txn.Ctx) error {
	w := t.W
	for did := 0; did < w.cfg.Districts; did++ {
		drow, ok := ctx.Read(TDistrict, t.WID, DKey(t.WID, did))
		if !ok {
			return txn.ErrConflict
		}
		nextO := int(w.district.GetUint64(drow, DNextOID))
		oid := int(w.district.GetUint64(drow, DNextDelOID))
		if oid >= nextO {
			continue // nothing undelivered in this district
		}
		// Confirm the NEW-ORDER row before touching the cursor: a miss
		// skips the district (§2.7.4.2 — the batch still commits), and
		// read-first leaves no cursor write behind to revert on abort.
		if _, ok := ctx.Read(TNewOrder, t.WID, OKey(t.WID, did, oid)); !ok {
			continue
		}
		ctx.Write(TDistrict, t.WID, DKey(t.WID, did), storage.AddInt64Op(DNextDelOID, 1))
		ctx.Delete(TNewOrder, t.WID, OKey(t.WID, did, oid))
		orow, ok := ctx.Read(TOrder, t.WID, OKey(t.WID, did, oid))
		if !ok {
			return txn.ErrConflict
		}
		cid := int(w.order.GetUint64(orow, OCID))
		olCnt := int(w.order.GetInt64(orow, OOlCnt))
		ctx.Write(TOrder, t.WID, OKey(t.WID, did, oid), storage.SetInt64Op(OCarrierID, t.Carrier))
		var total float64
		for ol := 1; ol <= olCnt; ol++ {
			olrow, ok := ctx.Read(TOrderLine, t.WID, OLKey(t.WID, did, oid, ol))
			if !ok {
				return txn.ErrConflict
			}
			total += w.orderLine.GetFloat64(olrow, OLAmount)
			ctx.Write(TOrderLine, t.WID, OLKey(t.WID, did, oid, ol),
				storage.SetInt64Op(OLDeliveryD, t.DeliveryD))
		}
		ctx.Write(TCustomer, t.WID, CKey(t.WID, did, cid),
			storage.AddFloat64Op(CBalance, total),
			storage.AddInt64Op(CDeliveryCnt, 1))
	}
	return nil
}

func (g *Gen) delivery(home int) txn.Procedure {
	return &DeliveryTxn{
		W:         g.w,
		WID:       home,
		Carrier:   int64(1 + g.rng.Intn(10)),
		DeliveryD: int64(1 + g.rng.Intn(1<<20)),
	}
}

// ---- Trim ----

// trimBatch bounds one Trim's work per district; trimHistBatch bounds
// the history rows riding along.
const (
	trimBatch     = 8
	trimHistBatch = 32
)

// TrimTxn is the garbage-collecting batch behind sustained-load runs:
// for every district of a warehouse it physically deletes delivered
// orders — and their order lines — more than Retain behind the
// delivery cursor, advancing the district's D_TRIM_O_ID low-water
// cursor; the generating worker's old payment-history rows ride along.
// Delivery stamps rows and moves on, so without trimming a long
// full-mix run grows ORDER/ORDER-LINE/HISTORY without bound. Like
// Delivery it executes deferred and declares only the district
// cursors: conflicting Trims, Deliveries and NewOrders serialise on
// those rows, and the trimmed range sits below every reader's window
// (Stock-Level reads near D_NEXT_O_ID, Order-Status walks back from
// the newest visible order; both tolerate missing rows by design).
type TrimTxn struct {
	W        *Workload
	WID      int
	Retain   int // delivered orders left in place per district
	Batch    int // max orders reclaimed per district per batch
	GenID    int
	HistSeqs []uint64 // this generator's history rows to reclaim
}

// Name implements txn.Procedure.
func (t *TrimTxn) Name() string { return "tpcc.trim" }

// Deferred implements txn.DeferredMarker: like Delivery, trimming is
// background work queued to the single-master phase.
func (t *TrimTxn) Deferred() bool { return true }

// Accesses implements txn.Procedure: the per-district trim cursors, in
// write mode (the same declaration shape as Delivery — the deleted
// rows depend on cursor values read at execution time).
func (t *TrimTxn) Accesses() []txn.Access {
	accs := make([]txn.Access, 0, t.W.cfg.Districts)
	for did := 0; did < t.W.cfg.Districts; did++ {
		accs = append(accs, txn.Access{Table: TDistrict, Part: t.WID, Key: DKey(t.WID, did), Write: true})
	}
	return accs
}

// Run implements txn.Procedure. Only rows read as present are deleted,
// so a batch racing a snapshot or an earlier trim skips instead of
// aborting; the cursor advances over skipped ids too (they are gone
// either way).
func (t *TrimTxn) Run(ctx txn.Ctx) error {
	w := t.W
	for did := 0; did < w.cfg.Districts; did++ {
		drow, ok := ctx.Read(TDistrict, t.WID, DKey(t.WID, did))
		if !ok {
			return txn.ErrConflict
		}
		lo := int(w.district.GetUint64(drow, DTrimOID))
		hi := int(w.district.GetUint64(drow, DNextDelOID)) - 1 - t.Retain
		n := 0
		for oid := lo; oid <= hi && n < t.Batch; oid++ {
			if orow, ok := ctx.Read(TOrder, t.WID, OKey(t.WID, did, oid)); ok {
				olCnt := int(w.order.GetInt64(orow, OOlCnt))
				for ol := 1; ol <= olCnt; ol++ {
					if _, ok := ctx.Read(TOrderLine, t.WID, OLKey(t.WID, did, oid, ol)); ok {
						ctx.Delete(TOrderLine, t.WID, OLKey(t.WID, did, oid, ol))
					}
				}
				ctx.Delete(TOrder, t.WID, OKey(t.WID, did, oid))
			}
			n++
		}
		if n > 0 {
			ctx.Write(TDistrict, t.WID, DKey(t.WID, did), storage.AddInt64Op(DTrimOID, int64(n)))
		}
	}
	for _, seq := range t.HistSeqs {
		if _, ok := ctx.Read(THistory, t.WID, HKey(t.WID, t.GenID, seq)); ok {
			ctx.Delete(THistory, t.WID, HKey(t.WID, t.GenID, seq))
		}
	}
	return nil
}

func (g *Gen) trim(home int) txn.Procedure {
	cfg := g.w.cfg
	t := &TrimTxn{W: g.w, WID: home, Retain: cfg.TrimRetain, Batch: trimBatch, GenID: g.id}
	// Drain this generator's payment-history FIFO: entries beyond the
	// retained tail that were written at the home warehouse ride along.
	if excess := len(g.hist) - cfg.TrimRetain; excess > 0 {
		kept := g.hist[:0]
		for i, h := range g.hist {
			if i < excess && h.wid == home && len(t.HistSeqs) < trimHistBatch {
				t.HistSeqs = append(t.HistSeqs, h.seq)
				continue
			}
			kept = append(kept, h)
		}
		g.hist = kept
	}
	return t
}

// ---- Stock-Level ----

// maxScanLines bounds Stock-Level's distinct-item scratch: 20 orders of
// at most 15 lines each (§2.8.2.2).
const maxScanLines = 20 * 15

// StockLevelTxn is the TPC-C Stock-Level transaction (§2.8): count the
// distinct items of the district's last 20 orders whose stock quantity
// is below a threshold. It is read-only (ReadOnly() is true), so an
// engine with epoch-fenced replicas can serve it from a local snapshot.
// The non-standard Remote variant additionally checks the same items'
// stock in other warehouses (low anywhere counts) — the read-only
// cross-partition class the snapshot path exists for.
type StockLevelTxn struct {
	W         *Workload
	WID, DID  int
	Threshold int64 // §2.8.1.2: uniform within [10,20]
	Remote    []int // extra warehouses to check (empty = standard)

	// LowStock is the result (set by Run; not a parameter, not encoded).
	LowStock int
}

// Name implements txn.Procedure.
func (t *StockLevelTxn) Name() string { return "tpcc.stocklevel" }

// ReadOnly implements txn.ReadOnlyMarker.
func (t *StockLevelTxn) ReadOnly() bool { return true }

// Accesses implements txn.Procedure: the district cursor read plus one
// warehouse-row read per remote warehouse (which also declares the
// partition for routing). The order/order-line/stock point reads are
// cursor-dependent and resolved at execution time.
func (t *StockLevelTxn) Accesses() []txn.Access {
	accs := make([]txn.Access, 0, 1+len(t.Remote))
	accs = append(accs, txn.Access{Table: TDistrict, Part: t.WID, Key: DKey(t.WID, t.DID)})
	for _, rw := range t.Remote {
		accs = append(accs, txn.Access{Table: TWarehouse, Part: rw, Key: WKey(rw)})
	}
	return accs
}

// Run implements txn.Procedure, following §2.8.2. The count is returned
// to the terminal and nothing is written, so reads that miss — e.g. a
// remote row on an engine that cannot serve undeclared remote reads —
// skip the item instead of aborting.
func (t *StockLevelTxn) Run(ctx txn.Ctx) error {
	w := t.W
	drow, ok := ctx.Read(TDistrict, t.WID, DKey(t.WID, t.DID))
	if !ok {
		return txn.ErrConflict
	}
	nextO := int(w.district.GetUint64(drow, DNextOID))
	lo := nextO - 20
	if lo < 1 {
		lo = 1
	}
	var seen [maxScanLines]uint32
	nSeen, low := 0, 0
	for oid := lo; oid < nextO; oid++ {
		orow, ok := ctx.Read(TOrder, t.WID, OKey(t.WID, t.DID, oid))
		if !ok {
			continue
		}
		olCnt := int(w.order.GetInt64(orow, OOlCnt))
		for ol := 1; ol <= olCnt; ol++ {
			olrow, ok := ctx.Read(TOrderLine, t.WID, OLKey(t.WID, t.DID, oid, ol))
			if !ok {
				continue
			}
			iid := uint32(w.orderLine.GetUint64(olrow, OLIID))
			dup := false
			for i := 0; i < nSeen; i++ {
				if seen[i] == iid {
					dup = true
					break
				}
			}
			if dup || nSeen == len(seen) {
				continue
			}
			seen[nSeen] = iid
			nSeen++
			below := false
			if srow, ok := ctx.Read(TStock, t.WID, SKey(t.WID, int(iid))); ok {
				below = w.stock.GetInt64(srow, SQuantity) < t.Threshold
			}
			for _, rw := range t.Remote {
				if below {
					break
				}
				if srow, ok := ctx.Read(TStock, rw, SKey(rw, int(iid))); ok {
					below = w.stock.GetInt64(srow, SQuantity) < t.Threshold
				}
			}
			if below {
				low++
			}
		}
	}
	t.LowStock = low
	return nil
}

func (g *Gen) stockLevel(home int, cross bool) txn.Procedure {
	t := &StockLevelTxn{
		W:         g.w,
		WID:       home,
		DID:       g.rng.Intn(g.w.cfg.Districts),
		Threshold: int64(10 + g.rng.Intn(11)),
	}
	if cross {
		if rw := g.remoteWarehouse(home); rw != home {
			t.Remote = []int{rw}
		}
	}
	return t
}

func (g *Gen) payment(home int, cross bool) txn.Procedure {
	cfg := g.w.cfg
	g.hseq++
	t := &PaymentTxn{
		W:      g.w,
		WID:    home,
		DID:    g.rng.Intn(cfg.Districts),
		CWID:   home,
		CDID:   g.rng.Intn(cfg.Districts),
		Amount: 1 + float64(g.rng.Intn(499999))/100,
		HSeq:   g.hseq,
		GenID:  g.id,
	}
	if cross {
		t.CWID = g.remoteWarehouse(home)
	}
	if cfg.TrimPct > 0 {
		// Remember where the history row lands so a later Trim batch
		// can reclaim it once it falls out of the retained tail.
		g.hist = append(g.hist, histEnt{wid: home, seq: g.hseq})
	}
	if g.rng.Intn(100) < cfg.PaymentByName {
		num := g.nuRand(255, 0, 999)
		if num < cfg.CustomersPerDistrict {
			// The customer is named, not numbered: resolution to the
			// median match happens at execution time through the
			// secondary index (PaymentTxn.Run).
			t.ByName = true
			t.CLast = []byte(LastName(num))
			t.CID = -1
		} else {
			// No customer carries this name at this (sub-standard)
			// scale; fall back to the by-id form. Same rng draws as the
			// seed's generation-time fallback.
			t.CID = g.customerID()
		}
	} else {
		t.CID = g.customerID()
	}
	return t
}

// ---- Order-Status ----

// osMaxLines bounds an order's line scratch (§2.6: up to 15 lines).
const osMaxLines = 15

// OrderStatusTxn is the TPC-C Order-Status transaction (§2.6): report a
// customer's balance and the state of their most recent order (carrier,
// entry date, every line's item/quantity/amount/delivery date). The
// customer is selected by last name PaymentByName percent of the time
// and resolved — sorted matches, pick the median — through the
// customer_by_name secondary index at execution time; the most recent
// order comes from the order_by_customer index (entries sort by
// ascending order id within a customer, so the last match is the newest
// order). It is read-only (ReadOnly() is true), so an engine with
// epoch-fenced replicas serves it from a local snapshot.
//
// The non-standard cross variant (CWID != WID) asks about a customer of
// a remote warehouse from the home terminal — the by-name read-only
// cross-partition class the snapshot path exists for, symmetric with
// Payment's remote-customer form.
type OrderStatusTxn struct {
	W          *Workload
	WID        int // home terminal's warehouse (read; declares routing)
	CWID, CDID int // customer residence (remote on the cross variant)
	CID        int // -1 when ByName
	ByName     bool
	CLast      []byte

	// Results (set by Run; not parameters, not encoded).
	Balance float64
	OrderID int
	Lines   int
}

// Name implements txn.Procedure.
func (t *OrderStatusTxn) Name() string { return "tpcc.orderstatus" }

// ReadOnly implements txn.ReadOnlyMarker.
func (t *OrderStatusTxn) ReadOnly() bool { return true }

// Accesses implements txn.Procedure: the home warehouse row (which also
// declares the home partition for routing) plus the customer — named
// directly, or as an index-prefetch access (see PaymentTxn.Accesses).
// The order/order-line reads depend on index lookups resolved at
// execution time and are undeclared, like Stock-Level's cursor walk;
// reads that miss skip instead of aborting.
func (t *OrderStatusTxn) Accesses() []txn.Access {
	cust := txn.Access{Table: TCustomer, Part: t.CWID, Key: CKey(t.CWID, t.CDID, t.CID)}
	if t.ByName {
		cust = txn.Access{
			Table: TCustomer, Part: t.CWID, Key: nameLockKey(t.CWID, t.CDID, t.CLast),
			LockOnly: true,
			Index:    CustNameIdx, IndexVal: CustNameVal(nil, t.CDID, t.CLast),
		}
	}
	return []txn.Access{
		{Table: TWarehouse, Part: t.WID, Key: WKey(t.WID)},
		cust,
	}
}

// Run implements txn.Procedure, following §2.6.2. Nothing is written;
// a snapshot or remote read that misses ends the query early with what
// was found (still a committed read-only transaction).
func (t *OrderStatusTxn) Run(ctx txn.Ctx) error {
	w := t.W
	if _, ok := ctx.Read(TWarehouse, t.WID, WKey(t.WID)); !ok {
		return txn.ErrConflict
	}
	cid := t.CID
	if t.ByName {
		var kbuf [8]storage.Key
		var vbuf [24]byte
		matches := ctx.LookupIndex(TCustomer, t.CWID, CustNameIdx,
			CustNameVal(vbuf[:0], t.CDID, t.CLast), kbuf[:0])
		if len(matches) == 0 {
			return nil // nobody by that name: empty status, committed
		}
		cid = CIDOfKey(matches[len(matches)/2])
	}
	crow, ok := ctx.Read(TCustomer, t.CWID, CKey(t.CWID, t.CDID, cid))
	if !ok {
		return nil
	}
	t.Balance = w.customer.GetFloat64(crow, CBalance)

	// Only the newest few orders matter: contexts that implement the
	// bounded tail lookup (the STAR execution and snapshot paths) resolve
	// it in one descent instead of materialising the customer's whole
	// order history; remote-resolution contexts fall back to the full
	// lookup and the tail is taken below either way.
	var obuf [16]storage.Key
	var vbuf [16]byte
	oval := OrderCustVal(vbuf[:0], t.CDID, cid)
	var orders []storage.Key
	if tr, ok := ctx.(txn.IndexTailReader); ok {
		orders = tr.LookupIndexTail(TOrder, t.CWID, OrderCustIdx, oval, len(obuf), obuf[:0])
	} else {
		orders = ctx.LookupIndex(TOrder, t.CWID, OrderCustIdx, oval, obuf[:0])
	}
	if len(orders) == 0 {
		return nil // no order yet (fresh database): empty status
	}
	// Entries are ascending by order id: the last one is the newest.
	// The index may overshoot (an entry whose insert is in flight on the
	// snapshot path reads absent) — walk backwards to the newest order
	// that is actually visible.
	for i := len(orders) - 1; i >= 0; i-- {
		okey := orders[i]
		orow, ok := ctx.Read(TOrder, t.CWID, okey)
		if !ok {
			continue
		}
		oid := OIDOfKey(okey)
		t.OrderID = oid
		olCnt := int(w.order.GetInt64(orow, OOlCnt))
		if olCnt > osMaxLines {
			olCnt = osMaxLines
		}
		for ol := 1; ol <= olCnt; ol++ {
			olrow, ok := ctx.Read(TOrderLine, t.CWID, OLKey(t.CWID, t.CDID, oid, ol))
			if !ok {
				continue
			}
			_ = w.orderLine.GetInt64(olrow, OLDeliveryD)
			t.Lines++
		}
		return nil
	}
	return nil
}

func (g *Gen) orderStatus(home int, cross bool) txn.Procedure {
	cfg := g.w.cfg
	t := &OrderStatusTxn{
		W:    g.w,
		WID:  home,
		CWID: home,
		CDID: g.rng.Intn(cfg.Districts),
	}
	if cross {
		t.CWID = g.remoteWarehouse(home)
	}
	if g.rng.Intn(100) < cfg.PaymentByName {
		num := g.nuRand(255, 0, 999)
		if num < cfg.CustomersPerDistrict {
			t.ByName = true
			t.CLast = []byte(LastName(num))
			t.CID = -1
		} else {
			t.CID = g.customerID()
		}
	} else {
		t.CID = g.customerID()
	}
	return t
}
