package ycsb

import "star/internal/wire"

// wireTxn is the YCSB procedure id (tpcc takes 1–2 and 4–5; ycsb
// takes 3).
const wireTxn uint8 = 3

// RegisterWire binds the YCSB transaction to c by the one walk that
// describes it. A decoded transaction is bound to this process's
// Workload instance, so every process must construct the workload with
// the same configuration.
func (w *Workload) RegisterWire(c *wire.Codec) {
	wire.RegisterProc(c, wireTxn, func() *Txn { return &Txn{w: w} }, txnFields)
}

func txnFields(f *wire.Fields, t *Txn) {
	wire.Len(f, &t.accs, 4)
	for i := range t.accs {
		a := &t.accs[i]
		f.Int(&a.Part)
		if f.Decoding() {
			a.Table = TableID
			// The partition came off the wire: one the configuration does
			// not have would index past every partition slice serving it.
			f.Check(a.Part >= 0 && a.Part < t.w.cfg.Partitions)
		}
		// Row numbers are small: two varints (Hi is zero) are 4-5
		// bytes where the fixed-width key is 16, and the keys are
		// most of a routed request.
		f.Uvarint(&a.Key.Hi)
		f.Uvarint(&a.Key.Lo)
		f.Bool(&a.Write)
	}
	wire.Len(f, &t.ops, 3)
	for i := range t.ops {
		f.FieldOp(&t.ops[i])
	}
}

// WireSize returns the exact encoded parameter size: the size pass of
// the walk that encodes them.
func (t *Txn) WireSize() int { return wire.SizeOf(t, txnFields) }
