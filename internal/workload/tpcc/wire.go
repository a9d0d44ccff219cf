package tpcc

import "star/internal/wire"

// Wire procedure ids. The id space is shared with other workloads in
// one codec, so each workload takes a distinct block (tpcc: 1–2, and
// 4–7 for the full-mix extension and the trimmer; ycsb took 3 and now
// takes 9, examples/bank 8).
const (
	wireNewOrder    uint8 = 1
	wirePayment     uint8 = 2
	wireDelivery    uint8 = 4
	wireStockLevel  uint8 = 5
	wireOrderStatus uint8 = 6
	wireTrim        uint8 = 7
)

// RegisterWire binds the TPC-C procedures to c, each by the one walk
// that describes its parameters. Every process of a cluster must call it
// with an identically configured Workload: a decoded transaction is
// bound to this process's Workload instance (schemas and configuration
// must match for the replayed transaction to behave identically).
func (w *Workload) RegisterWire(c *wire.Codec) {
	wire.RegisterProc(c, wireNewOrder, func() *NewOrderTxn { return &NewOrderTxn{W: w} }, checked(newOrderFields))
	wire.RegisterProc(c, wirePayment, func() *PaymentTxn { return &PaymentTxn{W: w} }, checked(paymentFields))
	wire.RegisterProc(c, wireDelivery, func() *DeliveryTxn { return &DeliveryTxn{W: w} }, checked(deliveryFields))
	wire.RegisterProc(c, wireStockLevel, func() *StockLevelTxn { return &StockLevelTxn{W: w} }, checked(stockLevelFields))
	wire.RegisterProc(c, wireOrderStatus, func() *OrderStatusTxn { return &OrderStatusTxn{W: w} }, checked(orderStatusFields))
	wire.RegisterProc(c, wireTrim, func() *TrimTxn { return &TrimTxn{W: w} }, checked(trimFields))
}

// checked is a procedure's walk that refuses, decoding, a request naming
// an id outside the workload's configuration. Every id came off the wire:
// a warehouse outside it indexes a partition no process has, and a
// district, customer or item outside it names a row that never exists,
// which an engine would retry as a conflict every phase.
func checked[T interface{ inRange() bool }](fields func(*wire.Fields, T)) func(*wire.Fields, T) {
	return func(f *wire.Fields, t T) {
		if fields(f, t); f.Decoding() {
			f.Check(t.inRange())
		}
	}
}

func (w *Workload) isW(id int) bool { return id >= 0 && id < w.cfg.Warehouses }
func (w *Workload) isD(id int) bool { return id >= 0 && id < w.cfg.Districts }
func (w *Workload) isC(id int) bool { return id >= 0 && id < w.cfg.CustomersPerDistrict }

func (t *NewOrderTxn) inRange() bool {
	w := t.W
	ok := w.isW(t.WID) && w.isD(t.DID) && w.isC(t.CID)
	for _, l := range t.Lines {
		// An unused item id is how an Invalid order asks for its §2.4.1.5
		// rollback.
		ok = ok && w.isW(l.SupplyW) && l.IID >= 0 && (l.IID < w.cfg.Items || t.Invalid)
	}
	return ok
}

func (t *PaymentTxn) inRange() bool {
	w := t.W
	return w.isW(t.WID) && w.isD(t.DID) && w.isW(t.CWID) && w.isD(t.CDID) && (t.ByName || w.isC(t.CID))
}

func (t *DeliveryTxn) inRange() bool { return t.W.isW(t.WID) }

func (t *StockLevelTxn) inRange() bool {
	ok := t.W.isW(t.WID) && t.W.isD(t.DID)
	for _, rw := range t.Remote {
		ok = ok && t.W.isW(rw)
	}
	return ok
}

func (t *OrderStatusTxn) inRange() bool {
	w := t.W
	return w.isW(t.WID) && w.isW(t.CWID) && w.isD(t.CDID) && (t.ByName || w.isC(t.CID))
}

func (t *TrimTxn) inRange() bool { return t.W.isW(t.WID) }

func newOrderFields(f *wire.Fields, t *NewOrderTxn) {
	f.Int(&t.WID)
	f.Int(&t.DID)
	f.Int(&t.CID)
	wire.Len(f, &t.Lines, 3)
	for i := range t.Lines {
		l := &t.Lines[i]
		f.Int(&l.IID)
		f.Int(&l.SupplyW)
		f.Int(&l.Quantity)
	}
	f.Bool(&t.Invalid)
	f.I64(&t.EntryD)
}

func paymentFields(f *wire.Fields, t *PaymentTxn) {
	f.Int(&t.WID)
	f.Int(&t.DID)
	f.Int(&t.CWID)
	f.Int(&t.CDID)
	f.Int(&t.CID)
	f.Bool(&t.ByName)
	f.BytesCopy(&t.CLast)
	f.F64(&t.Amount)
	f.Uvarint(&t.HSeq)
	f.Int(&t.GenID)
	f.I64(&t.Date)
}

func deliveryFields(f *wire.Fields, t *DeliveryTxn) {
	f.Int(&t.WID)
	f.I64(&t.Carrier)
	f.I64(&t.DeliveryD)
}

func orderStatusFields(f *wire.Fields, t *OrderStatusTxn) {
	f.Int(&t.WID)
	f.Int(&t.CWID)
	f.Int(&t.CDID)
	f.Int(&t.CID)
	f.Bool(&t.ByName)
	f.BytesCopy(&t.CLast)
}

func trimFields(f *wire.Fields, t *TrimTxn) {
	f.Int(&t.WID)
	f.Int(&t.Retain)
	f.Int(&t.Batch)
	f.Int(&t.GenID)
	wire.Len(f, &t.HistSeqs, 1)
	for i := range t.HistSeqs {
		f.Uvarint(&t.HistSeqs[i])
	}
}

func stockLevelFields(f *wire.Fields, t *StockLevelTxn) {
	f.Int(&t.WID)
	f.Int(&t.DID)
	f.I64(&t.Threshold)
	f.Ints(&t.Remote)
}

// WireSize returns the exact encoded parameter size: the size pass of
// the walk that encodes them (msgDefer's and ClientReq's Size count it).
func (t *NewOrderTxn) WireSize() int { return wire.SizeOf(t, newOrderFields) }

// WireSize returns the exact encoded parameter size.
func (t *PaymentTxn) WireSize() int { return wire.SizeOf(t, paymentFields) }

// WireSize returns the exact encoded parameter size.
func (t *DeliveryTxn) WireSize() int { return wire.SizeOf(t, deliveryFields) }

// WireSize returns the exact encoded parameter size.
func (t *OrderStatusTxn) WireSize() int { return wire.SizeOf(t, orderStatusFields) }

// WireSize returns the exact encoded parameter size.
func (t *TrimTxn) WireSize() int { return wire.SizeOf(t, trimFields) }

// WireSize returns the exact encoded parameter size.
func (t *StockLevelTxn) WireSize() int { return wire.SizeOf(t, stockLevelFields) }
