package wire

import (
	"encoding/binary"
	"fmt"
	"io"

	"star/internal/transport"
	"star/internal/wire/prim"
)

// Frame layout (the unit a TCP stream carries):
//
//	[u32 LE body length][body]
//	body = [class u8][src u16 LE][dst u16 LE][msg id u8][msg payload]
//
// The length prefix covers the body only. Src/dst ride in every frame so
// a receiving process can demux one stream into its local inboxes
// without per-connection state. Everything but the message payload is
// prim.FrameOverhead bytes, which every Size() counts.

// MaxFrame is the default bound a reader enforces on the body length —
// far above any legal message (snapshots dominate; one carries a whole
// partition, rows zero-packed) but small enough to reject corrupt
// prefixes before allocating.
const MaxFrame = 64 << 20

// MaxClientFrame bounds frames accepted from untrusted client
// connections. Client requests are a session header plus one procedure's
// parameters — kilobytes, not megabytes — so the front door rejects
// anything bigger before buffering it.
const MaxClientFrame = 1 << 20

// frameReadChunk is ReadFrame's initial/incremental buffer step: the
// length prefix is a claim, not a fact, so allocation grows with the
// bytes that actually arrive instead of trusting the header.
const frameReadChunk = 64 << 10

// AppendFrame appends a whole frame (length prefix included) for m.
func AppendFrame(b []byte, src, dst int, class transport.Class, c *Codec, m transport.Message) ([]byte, error) {
	if src < 0 || src > 0xffff || dst < 0 || dst > 0xffff {
		return b, fmt.Errorf("wire: endpoint out of range: src=%d dst=%d", src, dst)
	}
	lenAt := len(b)
	b = append(b, 0, 0, 0, 0) // patched below
	b = append(b, byte(class))
	b = binary.LittleEndian.AppendUint16(b, uint16(src))
	b = binary.LittleEndian.AppendUint16(b, uint16(dst))
	b, err := c.Append(b, m)
	if err != nil {
		return b[:lenAt], err
	}
	binary.LittleEndian.PutUint32(b[lenAt:], uint32(len(b)-lenAt-4))
	return b, nil
}

// FrameInfo is a decoded frame's routing header.
type FrameInfo struct {
	Src, Dst int
	Class    transport.Class
}

// DecodeFrameBody decodes a frame body (everything after the length
// prefix). The message's byte payloads alias body.
func DecodeFrameBody(body []byte, c *Codec) (FrameInfo, transport.Message, error) {
	var fi FrameInfo
	if len(body) < 5 {
		return fi, nil, fmt.Errorf("%w: %d-byte frame body", prim.ErrTruncated, len(body))
	}
	fi.Class = transport.Class(body[0])
	if fi.Class >= transport.NumClasses {
		return fi, nil, fmt.Errorf("%w: traffic class %d", prim.ErrCorrupt, body[0])
	}
	fi.Src = int(binary.LittleEndian.Uint16(body[1:]))
	fi.Dst = int(binary.LittleEndian.Uint16(body[3:]))
	m, err := c.Decode(body[5:])
	return fi, m, err
}

// ReadFrame reads one length-prefixed frame body from r into a fresh
// buffer (each frame owns its buffer so decoded messages may alias it
// for their whole lifetime). max bounds the body length (0 = MaxFrame).
//
// The length prefix is attacker-controlled on a real wire, so it is
// never trusted for allocation: the buffer starts at one chunk and grows
// (doubling, capped by the claimed length) only as payload bytes
// actually arrive. A peer that claims max bytes and sends none costs one
// 64 KiB chunk, not max; a claim over max is rejected before any
// allocation at all.
func ReadFrame(r io.Reader, max int) ([]byte, error) {
	if max == 0 {
		max = MaxFrame
	}
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.LittleEndian.Uint32(hdr[:]))
	if n > max {
		return nil, fmt.Errorf("%w: %d-byte frame exceeds %d", prim.ErrCorrupt, n, max)
	}
	body := make([]byte, min(n, frameReadChunk))
	filled := 0
	for filled < n {
		if filled == len(body) {
			grow := min(n-filled, len(body)) // double, capped by the claim
			nb := make([]byte, filled+grow)
			copy(nb, body)
			body = nb
		}
		got, err := io.ReadFull(r, body[filled:])
		filled += got
		if err != nil {
			return nil, err
		}
	}
	return body, nil
}
