package ycsb

import (
	"fmt"

	"star/internal/storage"
	"star/internal/txn"
	"star/internal/wire"
)

// wireTxn is the YCSB procedure id (tpcc takes 1–2 and 4–5; ycsb
// takes 3).
const wireTxn uint8 = 3

// RegisterWire binds the YCSB transaction codec to c. The decoder binds
// decoded transactions to this process's Workload instance, so every
// process must construct the workload with the same configuration.
func (w *Workload) RegisterWire(c *wire.Codec) {
	c.RegisterProc(wireTxn, (*Txn)(nil),
		func(b []byte, p txn.Procedure) []byte {
			t := p.(*Txn)
			b = wire.AppendUvarint(b, uint64(len(t.accs)))
			for i := range t.accs {
				a := &t.accs[i]
				b = wire.AppendVarint(b, int64(a.Part))
				// Row numbers are small: two varints (Hi is zero) are 4-5
				// bytes where the fixed-width key is 16, and the keys are
				// most of a routed request.
				b = wire.AppendUvarint(b, a.Key.Hi)
				b = wire.AppendUvarint(b, a.Key.Lo)
				b = wire.AppendBool(b, a.Write)
			}
			b = wire.AppendUvarint(b, uint64(len(t.ops)))
			for i := range t.ops {
				b = wire.AppendFieldOp(b, &t.ops[i])
			}
			return b
		},
		func(b []byte) (txn.Procedure, []byte, error) {
			n, b, err := wire.Uvarint(b)
			if err != nil {
				return nil, nil, err
			}
			// Each access costs ≥ 4 bytes on the wire.
			if n > uint64(len(b))/4+1 {
				return nil, nil, fmt.Errorf("%w: %d ycsb accesses", wire.ErrCorrupt, n)
			}
			t := &Txn{w: w, accs: make([]txn.Access, n)}
			for i := range t.accs {
				a := &t.accs[i]
				a.Table = TableID
				var x int64
				if x, b, err = wire.Varint(b); err != nil {
					return nil, nil, err
				}
				a.Part = int(x)
				if a.Key.Hi, b, err = wire.Uvarint(b); err != nil {
					return nil, nil, err
				}
				if a.Key.Lo, b, err = wire.Uvarint(b); err != nil {
					return nil, nil, err
				}
				if a.Write, b, err = wire.Bool(b); err != nil {
					return nil, nil, err
				}
			}
			nops, b, err := wire.Uvarint(b)
			if err != nil {
				return nil, nil, err
			}
			if nops > uint64(len(b))/3+1 {
				return nil, nil, fmt.Errorf("%w: %d ycsb ops", wire.ErrCorrupt, nops)
			}
			t.ops = make([]storage.FieldOp, nops)
			for i := range t.ops {
				if t.ops[i], b, err = wire.DecodeFieldOp(b); err != nil {
					return nil, nil, err
				}
			}
			return t, b, nil
		})
}

// WireSize returns the exact encoded parameter size (kept in lock-step
// with the encoder above).
func (t *Txn) WireSize() int {
	n := wire.UvarintLen(uint64(len(t.accs)))
	for i := range t.accs {
		a := &t.accs[i]
		n += wire.VarintLen(int64(a.Part)) + wire.UvarintLen(a.Key.Hi) + wire.UvarintLen(a.Key.Lo) + 1
	}
	n += wire.UvarintLen(uint64(len(t.ops)))
	for i := range t.ops {
		n += wire.FieldOpLen(&t.ops[i])
	}
	return n
}
