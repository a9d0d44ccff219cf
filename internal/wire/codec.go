package wire

import (
	"fmt"
	"reflect"

	"star/internal/transport"
	"star/internal/txn"
	"star/internal/wire/prim"
)

// EncodeFunc appends a message body (no type id) to b.
type EncodeFunc func(b []byte, m transport.Message) []byte

// DecodeFunc decodes a message body, returning any unconsumed bytes —
// Codec.Decode rejects the frame if a decoder leaves a remainder, so
// trailing garbage after a structurally valid message is corrupt, not
// silently ignored. Byte payloads in the result may alias b.
type DecodeFunc func(b []byte) (transport.Message, []byte, error)

// entry is one registration: its id and the codec of the values
// registered under it, message bodies or procedure parameters (which are
// self-delimiting: the decoder returns the rest of the buffer).
type entry[V any] struct {
	id  uint8
	enc func(b []byte, v V) []byte
	dec func(b []byte) (V, []byte, error)
}

// Codec maps message and procedure types to their binary codecs. A
// cluster's processes must build identical codecs (same registrations in
// the same ids); core.NewWireCodec does that from a Config. Codecs are
// populated at construction and read-only afterwards, so concurrent use
// by transport goroutines needs no locking.
type Codec struct {
	msgByID    map[uint8]*entry[transport.Message]
	msgByType  map[reflect.Type]*entry[transport.Message]
	procByID   map[uint8]*entry[txn.Procedure]
	procByType map[reflect.Type]*entry[txn.Procedure]

	// now, when set, is the process-local clock used to re-base request
	// generation stamps at the transport boundary (see SetClock).
	now func() int64
}

// NewCodec returns an empty codec.
func NewCodec() *Codec {
	return &Codec{
		msgByID:    map[uint8]*entry[transport.Message]{},
		msgByType:  map[reflect.Type]*entry[transport.Message]{},
		procByID:   map[uint8]*entry[txn.Procedure]{},
		procByType: map[reflect.Type]*entry[txn.Procedure]{},
	}
}

// Register binds a message type id to a hand-written codec — the
// replication envelope's (replication.AppendBatch / DecodeBatch), which
// is coded against its context; every fixed-layout message goes through
// the generic Register and its field walk instead. sample carries the
// concrete type messages of this id have on the wire (value or pointer
// form must match what senders pass to Transport.Send). Duplicate ids or
// types panic: registration is a wiring-time error, not input.
func (c *Codec) Register(id uint8, sample transport.Message, enc EncodeFunc, dec DecodeFunc) {
	register(c.msgByID, c.msgByType, id, sample, &entry[transport.Message]{id, enc, dec})
}

func register[V any](byID map[uint8]*entry[V], byType map[reflect.Type]*entry[V], id uint8, sample any, e *entry[V]) {
	t := reflect.TypeOf(sample)
	if byID[id] != nil || byType[t] != nil {
		panic(fmt.Sprintf("wire: id %d or type %v registered twice", id, t))
	}
	byID[id], byType[t] = e, e
}

// Append encodes m as [type id][body], appending to b.
func (c *Codec) Append(b []byte, m transport.Message) ([]byte, error) {
	e := c.msgByType[reflect.TypeOf(m)]
	if e == nil {
		return b, fmt.Errorf("wire: no codec for message type %T", m)
	}
	b = append(b, e.id)
	return e.enc(b, m), nil
}

// Decode decodes one [type id][body] message occupying all of b.
func (c *Codec) Decode(b []byte) (transport.Message, error) {
	if len(b) == 0 {
		return nil, fmt.Errorf("%w: empty message", prim.ErrTruncated)
	}
	e := c.msgByID[b[0]]
	if e == nil {
		return nil, fmt.Errorf("%w: unknown message id %d", prim.ErrCorrupt, b[0])
	}
	m, rest, err := e.dec(b[1:])
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after message id %d", prim.ErrCorrupt, len(rest), b[0])
	}
	return m, nil
}

// ---- transaction requests ----

// SetClock installs the transport-boundary clock for request stamps.
// With a clock set, AppendRequest records the sender's "now" next to
// GenAt, and DecodeRequest re-bases GenAt into the receiver's clock
// domain: GenAt' = GenAt + (recvNow − sendNow), i.e. the request keeps
// its age (plus one-way transit) rather than a raw foreign timestamp.
// Multi-process time-driven clusters need this — each process's runtime
// clock has its own origin, so raw GenAt stamps skew every wire-deferred
// latency sample by the inter-process start delta. Scripted runs do NOT
// set a clock: their GenAt carries a deterministic total-order stamp
// that must cross the wire verbatim (see core.scriptStamp).
func (c *Codec) SetClock(now func() int64) { c.now = now }

// RequestOverhead is the encoded size of r minus its procedure body:
// [proc id][GenAt zig-zag][sendNow u64][Retries uvarint].
func RequestOverhead(r *txn.Request) int {
	return 1 + prim.VarintLen(r.GenAt) + 8 + prim.UvarintLen(uint64(r.Retries))
}

// AppendRequest encodes a routing request as
// [proc id][GenAt][sendNow][Retries][proc body]. Home/Parts/Cross are
// not shipped: the decoder recomputes them from the procedure's declared
// footprint, which both keeps the frame small and guarantees the two
// sides agree. sendNow is zero when no clock is installed.
func (c *Codec) AppendRequest(b []byte, r *txn.Request) ([]byte, error) {
	e := c.procByType[reflect.TypeOf(r.Proc)]
	if e == nil {
		return b, fmt.Errorf("wire: no codec for procedure type %T", r.Proc)
	}
	b = append(b, e.id)
	b = prim.AppendVarint(b, r.GenAt)
	var sendNow int64
	if c.now != nil {
		sendNow = c.now()
	}
	b = prim.AppendU64(b, uint64(sendNow))
	b = prim.AppendUvarint(b, uint64(r.Retries))
	return e.enc(b, r.Proc), nil
}

// DecodeRequest decodes a request, returning the rest of the buffer.
// When both sides run clocked codecs, GenAt is re-based into this
// process's clock domain (see SetClock).
func (c *Codec) DecodeRequest(b []byte) (*txn.Request, []byte, error) {
	if len(b) == 0 {
		return nil, nil, fmt.Errorf("%w: empty request", prim.ErrTruncated)
	}
	e := c.procByID[b[0]]
	if e == nil {
		return nil, nil, fmt.Errorf("%w: unknown procedure id %d", prim.ErrCorrupt, b[0])
	}
	genAt, b, err := prim.Varint(b[1:])
	if err != nil {
		return nil, nil, err
	}
	sendNow, b, err := prim.U64(b)
	if err != nil {
		return nil, nil, err
	}
	retries, b, err := prim.Uvarint(b)
	if err != nil {
		return nil, nil, err
	}
	proc, rest, err := e.dec(b)
	if err != nil {
		return nil, nil, err
	}
	if c.now != nil && sendNow != 0 {
		genAt += c.now() - int64(sendNow)
	}
	req := txn.NewRequest(proc, genAt)
	req.Retries = int(retries)
	return req, rest, nil
}
