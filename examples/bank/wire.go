package main

import "star/internal/wire"

// wireTransfer is the transfer's procedure id (the built-in workloads
// take 1–2, 4–7 and 9; 3 is retired).
const wireTransfer uint8 = 8

// RegisterWire binds the transfer to c by the one walk that describes
// it. A cross-partition transfer is deferred to the master, and a
// deferred procedure is sized by its encoding on every runtime (and
// encoded by it on a real transport), so a custom workload whose
// procedures can be deferred needs a codec.
func (b *bankWorkload) RegisterWire(c *wire.Codec) {
	wire.RegisterProc(c, wireTransfer, func() *transfer { return &transfer{b: b} }, transferFields)
}

// transferFields walks a transfer: an account key is (partition,
// account), so each side is its partition and account number.
func transferFields(f *wire.Fields, t *transfer) {
	f.Uint(&t.fromP)
	f.Uvarint(&t.from.Lo)
	f.Uint(&t.toP)
	f.Uvarint(&t.to.Lo)
	f.I64(&t.amount)
	if f.Decoding() {
		t.from.Hi, t.to.Hi = uint64(t.fromP), uint64(t.toP)
	}
}

// WireSize returns the exact encoded parameter size: the size pass of
// the walk that encodes them.
func (t *transfer) WireSize() int { return wire.SizeOf(t, transferFields) }
