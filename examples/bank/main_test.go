package main

import (
	"testing"

	"star"
	"star/internal/core"
	"star/internal/txn"
	"star/internal/wire"
)

// TestTransferCrossesTheWire pins the transfer's codec: the cluster codec
// picks it up from the workload, a deferred transfer decodes to the one
// sent, and WireSize is what its encoding adds to the request.
func TestTransferCrossesTheWire(t *testing.T) {
	wl := newBank(6)
	c := core.NewWireCodec(wl)
	in := &transfer{b: wl, from: star.K2(1, 5), to: star.K2(4, 63), fromP: 1, toP: 4, amount: 17}
	req := txn.NewRequest(in, 0)
	b, err := c.AppendRequest(nil, req)
	if err != nil {
		t.Fatal(err)
	}
	if want := wire.RequestOverhead(req) + in.WireSize(); len(b) != want {
		t.Fatalf("encoded %d bytes, sized %d", len(b), want)
	}
	got, rest, err := c.DecodeRequest(b)
	if err != nil || len(rest) != 0 {
		t.Fatalf("decode: %v (%d bytes left)", err, len(rest))
	}
	if out, ok := got.Proc.(*transfer); !ok || *out != *in {
		t.Fatalf("decoded %+v, sent %+v", got.Proc, in)
	}
}
