// Package tpcc implements the TPC-C benchmark: the paper's NewOrder +
// Payment subset (§7.1.1) by default, and — with Config.SetFullMix —
// the standard-weighted four-transaction mix adding Delivery (deferred
// cross-district batch, §2.7) and Stock-Level (read-only multi-record
// scan, §2.8) at their standard 4%/4% shares. All nine tables are
// partitioned by warehouse id, with a configurable fraction of
// cross-partition transactions (defaults: 10% of NewOrder, 15% of
// Payment). The ITEM table is read-only and replicated to every node.
// Customer lookup by last name goes through a secondary index.
package tpcc

import (
	"encoding/binary"
	"math/rand"
	"strconv"

	"star/internal/storage"
)

// Table ids, in creation order.
const (
	TWarehouse storage.TableID = iota
	TDistrict
	TCustomer
	TStock
	TItem
	TOrder
	TNewOrder
	TOrderLine
	THistory
)

// Config parameterises the workload. A partition is one warehouse.
type Config struct {
	// Warehouses is the partition count.
	Warehouses int
	// Districts per warehouse (standard: 10).
	Districts int
	// CustomersPerDistrict (standard: 3000).
	CustomersPerDistrict int
	// Items in the catalogue (standard: 100_000).
	Items int
	// CrossPctNewOrder is the percentage of NewOrder transactions that
	// order from a remote warehouse (paper default: 10).
	CrossPctNewOrder int
	// CrossPctPayment is the percentage of Payment transactions paying
	// for a customer of a remote warehouse (paper default: 15).
	CrossPctPayment int
	// PaymentByName selects customers by last name this percent of the
	// time (standard: 60).
	PaymentByName int
	// InvalidItemPct is the percentage of NewOrder transactions carrying
	// an unused item id, which must roll back (standard: 1).
	InvalidItemPct int
	// DeliveryPct is the percentage of generated transactions that are
	// Delivery batches (standard mix: 4; 0 = paper's 2-txn subset).
	DeliveryPct int
	// StockLevelPct is the percentage of generated transactions that are
	// Stock-Level scans (standard mix: 4; 0 = paper's 2-txn subset).
	// The NewOrder/Payment remainder keeps its standard 45:43 ratio.
	StockLevelPct int
	// CrossPctStockLevel is the percentage of Stock-Level transactions
	// that additionally check stock in a remote warehouse — the
	// read-only cross-partition class the snapshot-read path serves
	// without master routing (standard Stock-Level is single-warehouse;
	// default: 0).
	CrossPctStockLevel int
	// OrderStatusPct is the percentage of generated transactions that
	// are Order-Status queries (standard mix: 4; 0 = no Order-Status).
	// Order-Status is read-only and resolves its customer by last name
	// PaymentByName percent of the time, through the secondary index at
	// execution time.
	OrderStatusPct int
	// CrossPctOrderStatus is the percentage of Order-Status transactions
	// that ask about a customer of a remote warehouse (the home
	// terminal's warehouse row is still read, making the footprint
	// cross-partition) — the by-name read-only class the snapshot path
	// serves without master routing. Default: 0 (standard Order-Status
	// is local).
	CrossPctOrderStatus int
	// TrimPct is the percentage of generated transactions that are Trim
	// batches physically reclaiming delivered orders (and the
	// generator's old payment-history rows) via Ctx.Delete. 0 = no
	// trimming (the default): delivered rows are kept forever, which is
	// fine for bounded runs but grows memory without bound under
	// sustained load.
	TrimPct int
	// TrimRetain is how many delivered orders per district (and history
	// rows per generator) a Trim batch leaves in place behind the
	// delivery cursor, keeping Stock-Level's and Order-Status's recent
	// read windows intact (default when TrimPct > 0: 100).
	TrimRetain int
}

func (c Config) withDefaults() Config {
	if c.Districts == 0 {
		c.Districts = 10
	}
	if c.CustomersPerDistrict == 0 {
		c.CustomersPerDistrict = 3000
	}
	if c.Items == 0 {
		c.Items = 100_000
	}
	if c.CrossPctNewOrder == 0 {
		c.CrossPctNewOrder = 10
	}
	if c.CrossPctPayment == 0 {
		c.CrossPctPayment = 15
	}
	if c.PaymentByName == 0 {
		c.PaymentByName = 60
	}
	if c.InvalidItemPct == 0 {
		c.InvalidItemPct = 1
	}
	if c.TrimPct > 0 && c.TrimRetain == 0 {
		c.TrimRetain = 100
	}
	return c
}

// SetCrossPct sets every per-transaction cross-partition percentage —
// the x-axis knob of the paper's sweeps. Delivery has no cross-partition
// form (a delivery batch serves exactly one warehouse).
func (c *Config) SetCrossPct(p int) {
	c.CrossPctNewOrder = p
	c.CrossPctPayment = p
	c.CrossPctStockLevel = p
	c.CrossPctOrderStatus = p
	if p == 0 {
		c.CrossPctNewOrder = -1 // disable entirely (withDefaults would reset 0)
		c.CrossPctPayment = -1
		c.CrossPctStockLevel = 0  // 0 already means "never" (no default to dodge)
		c.CrossPctOrderStatus = 0 // likewise
	}
}

// SetFullMix enables the standard-weighted TPC-C mix: 45/43/4/4/4
// NewOrder/Payment/Delivery/Stock-Level/Order-Status.
func (c *Config) SetFullMix() {
	c.DeliveryPct = 4
	c.StockLevelPct = 4
	c.OrderStatusPct = 4
}

// Workload implements workload.Workload for TPC-C.
type Workload struct {
	cfg Config

	warehouse, district, customer *storage.Schema
	stock, item                   *storage.Schema
	order, newOrder, orderLine    *storage.Schema
	history                       *storage.Schema
}

// Column indexes used by the transactions.
const (
	WYtd = iota // warehouse
	WTax
	WName
)

const (
	DNextOID = iota // district
	DYtd
	DTax
	DNextDelOID // next undelivered order id (Delivery's batch cursor)
	DTrimOID    // next untrimmed order id (the trimmer's low-water cursor)
	DName
)

const (
	CBalance = iota // customer
	CYtdPayment
	CPaymentCnt
	CDeliveryCnt
	CDiscount
	CCreditLim
	CCredit
	CLast
	CFirst
	CData
)

const (
	SQuantity = iota // stock
	SYtd
	SOrderCnt
	SRemoteCnt
	SDist
	SData
)

const (
	IPrice = iota // item
	IName
	IData
)

const (
	OCID = iota // order
	OEntryD
	OCarrierID
	OOlCnt
	OAllLocal
)

const (
	OLIID = iota // order line
	OLSupplyWID
	OLQuantity
	OLAmount
	OLDeliveryD
	OLDistInfo
)

const (
	HAmount = iota // history
	HDate
	HData
)

// New builds the workload.
func New(cfg Config) *Workload {
	cfg = cfg.withDefaults()
	if cfg.Warehouses <= 0 {
		panic("tpcc: Warehouses must be positive")
	}
	b := func(name string, capacity int) storage.Field {
		return storage.Field{Name: name, Type: storage.FieldBytes, Cap: capacity}
	}
	f := func(name string) storage.Field { return storage.Field{Name: name, Type: storage.FieldFloat64} }
	i := func(name string) storage.Field { return storage.Field{Name: name, Type: storage.FieldInt64} }
	u := func(name string) storage.Field { return storage.Field{Name: name, Type: storage.FieldUint64} }

	return &Workload{
		cfg: cfg,
		warehouse: storage.NewSchema(
			f("w_ytd"), f("w_tax"), b("w_name", 10), b("w_street", 40), b("w_city", 20), b("w_zip", 9),
		),
		district: storage.NewSchema(
			u("d_next_o_id"), f("d_ytd"), f("d_tax"), u("d_next_del_o_id"), u("d_trim_o_id"),
			b("d_name", 10), b("d_street", 40), b("d_city", 20), b("d_zip", 9),
		),
		customer: storage.NewSchema(
			f("c_balance"), f("c_ytd_payment"), i("c_payment_cnt"), i("c_delivery_cnt"),
			f("c_discount"), f("c_credit_lim"), b("c_credit", 2), b("c_last", 16), b("c_first", 16),
			b("c_data", 500), b("c_street", 40), b("c_city", 20), b("c_zip", 9), b("c_phone", 16),
		),
		stock: storage.NewSchema(
			i("s_quantity"), f("s_ytd"), i("s_order_cnt"), i("s_remote_cnt"), b("s_dist", 24), b("s_data", 50),
		),
		item: storage.NewSchema(
			f("i_price"), b("i_name", 24), b("i_data", 50),
		),
		order: storage.NewSchema(
			u("o_c_id"), i("o_entry_d"), i("o_carrier_id"), i("o_ol_cnt"), i("o_all_local"),
		),
		newOrder:  storage.NewSchema(u("no_o_id")),
		orderLine: storage.NewSchema(u("ol_i_id"), u("ol_supply_w_id"), i("ol_quantity"), f("ol_amount"), i("ol_delivery_d"), b("ol_dist_info", 24)),
		history:   storage.NewSchema(f("h_amount"), i("h_date"), b("h_data", 24)),
	}
}

// Name implements workload.Workload.
func (w *Workload) Name() string { return "tpcc" }

// Config returns the effective configuration.
func (w *Workload) Config() Config { return w.cfg }

// ---- key packing ----
// Partition index == warehouse id (0-based).

// WKey is the warehouse primary key.
func WKey(wid int) storage.Key { return storage.K2(uint64(wid), 0) }

// DKey is the district primary key.
func DKey(wid, did int) storage.Key { return storage.K2(uint64(wid), uint64(did)) }

// CKey is the customer primary key.
func CKey(wid, did, cid int) storage.Key {
	return storage.K2(uint64(wid), uint64(did)<<32|uint64(cid))
}

// SKey is the stock primary key.
func SKey(wid, iid int) storage.Key { return storage.K2(uint64(wid), uint64(iid)) }

// IKey is the item primary key.
func IKey(iid int) storage.Key { return storage.K1(uint64(iid)) }

// OKey is the order (and new-order) primary key.
func OKey(wid, did, oid int) storage.Key {
	return storage.K2(uint64(wid), uint64(did)<<40|uint64(oid))
}

// OLKey is the order-line primary key.
func OLKey(wid, did, oid, ol int) storage.Key {
	return storage.K2(uint64(wid), uint64(did)<<56|uint64(oid)<<8|uint64(ol))
}

// HKey is the history primary key; uniqueness comes from the generating
// worker's id and a per-worker sequence number.
func HKey(wid, genID int, seq uint64) storage.Key {
	return storage.K2(uint64(wid), uint64(genID)<<40|seq)
}

// Secondary-index names and per-table ids (AddIndex declaration order).
const (
	// CNameIndex maps (district, C_LAST) → customer keys: Payment's and
	// Order-Status's by-name lookup.
	CNameIndex = "customer_by_name"
	// CustNameIdx is CNameIndex's id on the customer table.
	CustNameIdx = 0
	// OCustIndex maps (district, O_C_ID) → order keys, ascending order
	// id: Order-Status's "customer's most recent order" lookup.
	OCustIndex = "order_by_customer"
	// OrderCustIdx is OCustIndex's id on the order table.
	OrderCustIdx = 0
)

// CustNameVal appends the customer_by_name index value for (did, last):
// one district byte followed by the raw name (partition = warehouse, so
// the warehouse id is implicit).
func CustNameVal(dst []byte, did int, last []byte) []byte {
	dst = append(dst, byte(did))
	return append(dst, last...)
}

// OrderCustVal appends the order_by_customer index value for (did, cid):
// district byte + big-endian customer id, so entries sort by customer
// and, within one customer, by ascending order id (the primary key).
func OrderCustVal(dst []byte, did, cid int) []byte {
	dst = append(dst, byte(did))
	var b [8]byte
	binary.BigEndian.PutUint64(b[:], uint64(cid))
	return append(dst, b[:]...)
}

// CIDOfKey recovers the customer id from a customer primary key.
func CIDOfKey(k storage.Key) int { return int(k.Lo & 0xffffffff) }

// OIDOfKey recovers the order id from an order primary key.
func OIDOfKey(k storage.Key) int { return int(k.Lo & (1<<40 - 1)) }

// nameLockKey synthesises the lock name a by-name access declares in its
// footprint: deterministic engines serialize conflicting by-name lookups
// on it. Bit 62 of Hi keeps it disjoint from every real customer key
// (whose Hi is a warehouse id); name hash collisions only cause spurious
// conflicts, never incorrect data access.
func nameLockKey(wid, did int, last []byte) storage.Key {
	h := uint64(14695981039346656037)
	for _, b := range last {
		h = (h ^ uint64(b)) * 1099511628211
	}
	return storage.K2(uint64(wid)|1<<62, uint64(did)<<32|h&0xffffffff)
}

// BuildDB implements workload.Workload.
func (w *Workload) BuildDB(nparts int, holds []bool) *storage.DB {
	if nparts != w.cfg.Warehouses {
		panic("tpcc: nparts must equal Warehouses")
	}
	db := storage.NewDB(nparts, holds)
	db.AddTable("warehouse", w.warehouse, false)
	db.AddTable("district", w.district, false)
	c := db.AddTable("customer", w.customer, false)
	c.AddIndex(storage.IndexSpec{Name: CNameIndex, Extract: custNameExtract})
	db.AddTable("stock", w.stock, false)
	db.AddTable("item", w.item, true) // replicated read-only catalogue
	o := db.AddTable("order", w.order, false)
	o.AddIndex(storage.IndexSpec{Name: OCustIndex, Extract: orderCustExtract})
	db.AddTable("new_order", w.newOrder, false)
	db.AddTable("order_line", w.orderLine, false)
	db.AddTable("history", w.history, false)
	return db
}

// custNameExtract derives the customer_by_name value from a customer
// row: the district comes from the key (CKey packs did<<32|cid), the
// name from C_LAST. Maintained automatically on every insert path.
func custNameExtract(s *storage.Schema, key storage.Key, row []byte, dst []byte) []byte {
	return CustNameVal(dst, int(key.Lo>>32), s.GetBytes(row, CLast))
}

// orderCustExtract derives the order_by_customer value from an order
// row: district from the key (OKey packs did<<40|oid), customer id from
// O_C_ID.
func orderCustExtract(s *storage.Schema, key storage.Key, row []byte, dst []byte) []byte {
	return OrderCustVal(dst, int(key.Lo>>40), int(s.GetUint64(row, OCID)))
}

// lastNames are the standard TPC-C syllables.
var lastSyllables = []string{"BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING"}

// LastName renders the standard TPC-C last name for a number in [0,999].
func LastName(num int) string { return string(appendLastName(nil, num)) }

func appendLastName(dst []byte, num int) []byte {
	return append(append(append(dst, lastSyllables[num/100]...), lastSyllables[(num/10)%10]...), lastSyllables[num%10]...)
}

// Load implements workload.Workload: each table's rows are emitted into
// its partition's Fill from one scratch row per table, cleared per row.
// Every warehouse is generated from an RNG seeded by its id and the
// replicated item table from its own, so they fill concurrently.
func (w *Workload) Load(db *storage.DB) {
	db.FillHeld(func(wid int) { w.loadWarehouse(db, wid) }, func() { w.loadItems(db) })
}

func (w *Workload) loadItems(db *storage.DB) {
	f := db.Table(TItem).Fill(0, w.cfg.Items)
	rng := rand.New(rand.NewSource(42))
	row, buf := w.item.NewRow(), make([]byte, 50)
	var name []byte
	for iid := 0; iid < w.cfg.Items; iid++ {
		clear(row)
		w.item.SetFloat64(row, IPrice, 1+rng.Float64()*99)
		name = strconv.AppendInt(append(name[:0], "item-"...), int64(iid), 10)
		w.item.SetBytes(row, IName, name)
		rng.Read(buf)
		w.item.SetBytes(row, IData, buf)
		f.Add(IKey(iid), storage.MakeTID(1, uint64(iid+1)), row)
	}
	f.Done()
}

func (w *Workload) loadWarehouse(db *storage.DB, wid int) {
	rng := rand.New(rand.NewSource(int64(wid) + 1))
	seq := uint64(1)
	tid := func() uint64 { seq++; return storage.MakeTID(1, seq) }
	wf := db.Table(TWarehouse).Fill(wid, 1)
	df := db.Table(TDistrict).Fill(wid, w.cfg.Districts)
	cf := db.Table(TCustomer).Fill(wid, w.cfg.Districts*w.cfg.CustomersPerDistrict)
	sf := db.Table(TStock).Fill(wid, w.cfg.Items)

	row := w.warehouse.NewRow()
	w.warehouse.SetFloat64(row, WYtd, 300000)
	w.warehouse.SetFloat64(row, WTax, rng.Float64()*0.2)
	name := strconv.AppendInt([]byte("W"), int64(wid), 10)
	w.warehouse.SetBytes(row, WName, name)
	wf.Add(WKey(wid), tid(), row)

	const since = "customer since 2019 "
	drow, crow := w.district.NewRow(), w.customer.NewRow()
	var data []byte
	for did := 0; did < w.cfg.Districts; did++ {
		clear(drow)
		w.district.SetUint64(drow, DNextOID, 1)
		w.district.SetUint64(drow, DNextDelOID, 1) // == next_o_id: nothing undelivered
		w.district.SetUint64(drow, DTrimOID, 1)    // == next_del_o_id: nothing trimmable
		w.district.SetFloat64(drow, DYtd, 30000)
		w.district.SetFloat64(drow, DTax, rng.Float64()*0.2)
		name = strconv.AppendInt(append(strconv.AppendInt(append(name[:0], 'D'), int64(wid), 10), '-'), int64(did), 10)
		w.district.SetBytes(drow, DName, name)
		df.Add(DKey(wid, did), tid(), drow)

		for cid := 0; cid < w.cfg.CustomersPerDistrict; cid++ {
			clear(crow)
			w.customer.SetFloat64(crow, CBalance, -10)
			w.customer.SetFloat64(crow, CYtdPayment, 10)
			w.customer.SetFloat64(crow, CDiscount, rng.Float64()*0.5)
			w.customer.SetFloat64(crow, CCreditLim, 50000)
			credit := "GC"
			if rng.Intn(10) == 0 { // 10% bad credit
				credit = "BC"
			}
			w.customer.SetString(crow, CCredit, credit)
			// First 1000 customers get the standard NURand-reachable names.
			nameNum := cid % 1000
			data = appendLastName(append(data[:0], since...), nameNum)
			w.customer.SetBytes(crow, CLast, data[len(since):])
			name = strconv.AppendInt(append(name[:0], 'f'), int64(cid), 10)
			w.customer.SetBytes(crow, CFirst, name)
			w.customer.SetBytes(crow, CData, data)
			cf.Add(CKey(wid, did, cid), tid(), crow)
		}
	}

	srow, sbuf := w.stock.NewRow(), make([]byte, 24)
	for iid := 0; iid < w.cfg.Items; iid++ {
		clear(srow)
		w.stock.SetInt64(srow, SQuantity, int64(10+rng.Intn(91)))
		rng.Read(sbuf)
		w.stock.SetBytes(srow, SDist, sbuf)
		w.stock.SetString(srow, SData, "stockdata")
		sf.Add(SKey(wid, iid), tid(), srow)
	}
	for _, f := range []*storage.Filler{wf, df, cf, sf} {
		f.Done()
	}
}
