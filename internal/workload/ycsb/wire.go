package ycsb

import "star/internal/wire"

// wireTxn is the YCSB procedure id. TPC-C takes 1–2 and 4–7 and
// examples/bank 8. Id 3 stays retired: it carried each access as four
// fields, and a process that still speaks it refuses id 9 as unknown
// instead of misparsing the shorter accesses.
const wireTxn uint8 = 9

// RegisterWire binds the YCSB transaction to c by the one walk that
// describes it. A decoded transaction is bound to this process's
// Workload instance, so every process must construct the workload with
// the same configuration.
func (w *Workload) RegisterWire(c *wire.Codec) {
	wire.RegisterProc(c, wireTxn, func() *Txn { return &Txn{w: w} }, txnFields)
}

// txnFields walks the accesses, then the write op, which the usertable
// must fit. An access is one uvarint head. Every access Gen, ReadTxn and
// WriteTxn build (Hi zero, Lo below 2^62, Part the partition whose rows
// hold Lo) sends only Lo<<2 | write<<1, and the decoder derives Part: 3 B
// at the benchmark's 400 000 rows, where four fields sent 6. Any other
// access escapes as write<<1 | 1 followed by Part, Hi and Lo. The encoder
// writes the shorter form; the decoder reads either.
func txnFields(f *wire.Fields, t *Txn) {
	// Bound the count at the one byte of a canonical row-0 access: a
	// larger bound refuses valid short requests as lying.
	wire.Len(f, &t.accs, 1)
	rpp, parts := uint64(t.w.cfg.RecordsPerPartition), t.w.cfg.Partitions
	for i := range t.accs {
		a := &t.accs[i]
		head := uint64(1) // decoding, the uvarint overwrites it
		if a.Key.Hi == 0 && a.Key.Lo < 1<<62 && a.Part >= 0 && uint64(a.Part) == a.Key.Lo/rpp {
			head = a.Key.Lo << 2
		}
		if a.Write {
			head |= 2
		}
		if f.Uvarint(&head); head&1 == 1 {
			f.Int(&a.Part)
			f.Uvarint(&a.Key.Hi)
			f.Uvarint(&a.Key.Lo)
		} else if f.Decoding() {
			a.Key.Lo = head >> 2
			a.Part = int(a.Key.Lo / rpp)
		}
		if f.Decoding() {
			// Part came off the wire or from a key that did: one the
			// configuration lacks would index past every partition slice.
			f.Check((head < 4 || head&1 == 0) && a.Part >= 0 && a.Part < parts)
			a.Table, a.Write = TableID, head&2 != 0
		}
	}
	f.FieldOps(&t.ops, t.w.schema)
}

// WireSize returns the exact encoded parameter size: the size pass of
// the walk that encodes them.
func (t *Txn) WireSize() int { return wire.SizeOf(t, txnFields) }
