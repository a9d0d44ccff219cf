package tpcc

import (
	"errors"
	"testing"

	"star/internal/txn"
	"star/internal/wire"
	"star/internal/wire/prim"
	"star/internal/wire/wiretest"
)

// goldenProcs is one instance of every TPC-C procedure id with a
// different value in every parameter, at GenAt stamps of several varint
// widths. Their request encodings were captured from the hand-written
// codecs of commit 44cf024 into testdata/golden_requests.txt.
func goldenProcs(w *Workload) map[string]*txn.Request {
	return map[string]*txn.Request{
		"new_order": txn.NewRequest(&NewOrderTxn{W: w, WID: 1, DID: 1, CID: 29,
			Lines:   []orderLineSpec{{IID: 7, SupplyW: 1, Quantity: 5}, {IID: 99, SupplyW: 3, Quantity: 10}},
			Invalid: true, EntryD: 1234567}, 12345),
		"payment": txn.NewRequest(&PaymentTxn{W: w, WID: 2, DID: 1, CWID: 3, CDID: 0, CID: 17, Amount: 123.45,
			HSeq: 1<<40 | 9, GenID: 6, Date: -8}, 1<<40),
		"payment_by_name": txn.NewRequest(&PaymentTxn{W: w, WID: 0, DID: 1, CWID: 0, CDID: 1, CID: -1,
			ByName: true, CLast: []byte("BAROUGHTABLE"), Amount: 5000, HSeq: 3, GenID: 300, Date: 77}, -3),
		"delivery":     txn.NewRequest(&DeliveryTxn{W: w, WID: 3, Carrier: 7, DeliveryD: 99999}, 0),
		"stock_level":  txn.NewRequest(&StockLevelTxn{W: w, WID: 1, DID: 0, Threshold: 15, Remote: []int{2, 0}}, 556),
		"stock_local":  txn.NewRequest(&StockLevelTxn{W: w, WID: 2, DID: 1, Threshold: 20}, 64),
		"order_status": txn.NewRequest(&OrderStatusTxn{W: w, WID: 1, CWID: 2, CDID: 1, CID: 7}, 557),
		"order_status_by_name": txn.NewRequest(&OrderStatusTxn{W: w, WID: 0, CWID: 3, CDID: 0, CID: -1,
			ByName: true, CLast: []byte("BARBARBAR")}, 558),
		"trim": txn.NewRequest(&TrimTxn{W: w, WID: 2, Retain: 20, Batch: 8, GenID: 5,
			HistSeqs: []uint64{1, 300, 1 << 33}}, 90000),
	}
}

// TestGoldenFrames: every procedure id encodes to the parent commit's
// bytes, those bytes decode to the same parameters and re-encode
// unchanged, WireSize() is the parent's number and the exact body
// length, and every strict prefix is rejected with a wire error.
func TestGoldenFrames(t *testing.T) {
	w := New(smallCfg())
	c := wire.NewCodec()
	w.RegisterWire(c)
	if ids := wiretest.Requests(t, c, "testdata/golden_requests.txt", goldenProcs(w)); len(ids) != 6 {
		t.Fatalf("golden requests cover procedure ids %v, want all 6", ids)
	}
}

// TestDecodeRefusesIDsOutsideTheConfiguration: per procedure, each
// warehouse, district, customer and item id a request names, one step
// outside the workload's configuration, makes decoding refuse it; an
// Invalid order's unused item and a by-name customer's missing id decode.
func TestDecodeRefusesIDsOutsideTheConfiguration(t *testing.T) {
	w := New(smallCfg()) // 4 warehouses, 2 districts, 30 customers, 100 items
	c := wire.NewCodec()
	w.RegisterWire(c)
	lines := func(iid, supply int) []orderLineSpec {
		return []orderLineSpec{{IID: 0, SupplyW: 0, Quantity: 1}, {IID: iid, SupplyW: supply, Quantity: 1}}
	}
	decode := func(p txn.Procedure) error {
		b, err := c.AppendRequest(nil, txn.NewRequest(p, 0))
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = c.DecodeRequest(b)
		return err
	}
	for name, p := range map[string]txn.Procedure{
		"new_order warehouse":               &NewOrderTxn{W: w, WID: 4, Lines: lines(0, 0)},
		"new_order district":                &NewOrderTxn{W: w, DID: 2, Lines: lines(0, 0)},
		"new_order customer":                &NewOrderTxn{W: w, CID: -1, Lines: lines(0, 0)},
		"new_order item":                    &NewOrderTxn{W: w, Lines: lines(100, 0)},
		"new_order supplying warehouse":     &NewOrderTxn{W: w, Lines: lines(0, -1)},
		"payment warehouse":                 &PaymentTxn{W: w, WID: -1},
		"payment district":                  &PaymentTxn{W: w, DID: 2},
		"payment customer warehouse":        &PaymentTxn{W: w, CWID: 4},
		"payment customer district":         &PaymentTxn{W: w, CDID: -1},
		"payment customer":                  &PaymentTxn{W: w, CID: 30},
		"delivery warehouse":                &DeliveryTxn{W: w, WID: 4},
		"stock_level warehouse":             &StockLevelTxn{W: w, WID: 4},
		"stock_level district":              &StockLevelTxn{W: w, DID: 2},
		"stock_level remote warehouse":      &StockLevelTxn{W: w, Remote: []int{1, 4}},
		"order_status warehouse":            &OrderStatusTxn{W: w, WID: -1},
		"order_status customer warehouse":   &OrderStatusTxn{W: w, CWID: 4},
		"order_status customer district":    &OrderStatusTxn{W: w, CDID: 2},
		"order_status customer":             &OrderStatusTxn{W: w, CID: 30},
		"trim warehouse":                    &TrimTxn{W: w, WID: 4},
		"order_status by-name warehouse":    &OrderStatusTxn{W: w, CWID: 4, CID: -1, ByName: true, CLast: []byte("BAR")},
		"payment by-name customer district": &PaymentTxn{W: w, CDID: 2, CID: -1, ByName: true, CLast: []byte("BAR")},
	} {
		if err := decode(p); !errors.Is(err, prim.ErrCorrupt) {
			t.Errorf("%s: decode err = %v, want a corrupt-request refusal", name, err)
		}
	}
	for name, p := range map[string]txn.Procedure{
		"new_order unused item": &NewOrderTxn{W: w, WID: 3, DID: 1, CID: 29, Lines: lines(101, 3), Invalid: true},
		"payment by name":       &PaymentTxn{W: w, CWID: 3, CDID: 1, CID: -1, ByName: true, CLast: []byte("BAR")},
		"order_status by name":  &OrderStatusTxn{W: w, WID: 3, CID: -1, ByName: true, CLast: []byte("BAR")},
	} {
		if err := decode(p); err != nil {
			t.Errorf("%s: decode err = %v, want it accepted", name, err)
		}
	}
}
