package replication

import (
	"bytes"
	"fmt"
	"math/bits"

	"star/internal/storage"
	"star/internal/wire/prim"
)

// Envelope format — the one encoding of a record image: the replication
// stream ships it, a recovery log and a checkpoint are frames of it
// (package wal), and a catch-up copy is one per partition (core's
// msgSnapshot).
//
// An envelope (Batch) comes from one worker and one epoch, nearly always
// for one partition and a run of one table, so an entry is coded against
// the entry before it, in arrival order — a worker emits a transaction's
// writes in key order, a record's op entries FIFO — and sends no repeats:
//
//	batch:  [from uvarint][epoch uvarint][n uvarint] n × entry
//	entry:  [flags u8]
//	        [table u8][part uvarint]    unless flagSamePart
//	        [key.Hi uvarint][key.Lo uvarint]
//	                                    or, with flagRawKey, 16 raw bytes
//	                                    or, with flagKeyDelta, [Lo − previous Lo zig-zag varint]
//	        [tid delta zig-zag varint]  TID − previous TID, wrapping
//	        value entry: [row len uvarint][row bytes]
//	                                    or, with flagPacked, [row len uvarint]
//	                                    then per 8-byte word of the row:
//	                                    [mask u8][its non-zero bytes]
//	        op entry:    [nops uvarint] nops × field op (prim.AppendFieldOp)
//	                                    or, with flagSameOps, nops × argument
//
// "Previous" for the first entry of a batch is table 0, partition 0, key
// 0 and TID Epoch<<34 (the epoch's first possible TID; 0 for an ad-hoc
// stream with Epoch 0). Entries of one transaction share a TID and pay 1
// byte for it, the next transaction's pay 1–2; TIDs may step backwards
// (several single-master workers interleave on one link), hence zig-zag.
//
// Flag bits (the rest must be zero):
//
//	bit 0  flagOp        operation entry: field ops follow, not a row
//	bit 1  flagAbsent    tombstone (a value entry whose row is empty)
//	bit 2  flagSamePart  table and partition are the previous entry's
//	bit 3  flagRawKey    key is 16 little-endian bytes: its halves as
//	                     uvarints would be longer (TPC-C history keys set
//	                     bit 62), so a key never costs more than 16
//	bit 4  flagPacked    the row is zero-packed: each mask names its
//	                     word's non-zero bytes (bit i: byte i; none past
//	                     the row's end), which follow it. Only a present
//	                     value entry's, and only when strictly shorter
//	bit 5  flagKeyDelta  key.Hi is the previous entry's, key.Lo a delta from
//	                     its Lo (an order line behind its neighbour: 1 byte,
//	                     not 10); only with flagSamePart, not flagRawKey
//	bit 6  flagSameOps   nops and each op's head (field, kind and argument
//	                     form) are the envelope's previous op entry's, of 1
//	                     to maxShapeOps ops: only the arguments follow
//
// A key or op argument goes in its shortest form (a key delta only when
// strictly so) but decodes in any, so logs written before a form existed
// still read; only a packed row is held to one encoding, packedLen's.
//
// Rows are fixed-width images — 8-byte integers holding small numbers,
// byte columns padded to capacity — so most of a TPC-C row is 0x00 and
// it packs to about half (a 683-byte customer row to ≈ 170); YCSB's
// random bytes stay raw. A mask byte yields at most 8 bytes, so whatever
// length it declares (storage.MaxRowSize at most) a row unpacks to under
// 8× what it arrived in, and DecodeBatch allocates no more than that for
// a frame's rows. There is no run-length form for zero words: it measured
// 49 % of raw on TPC-C's rows against 50 % here, and would let 2 bytes
// claim 2 KiB.
//
// Sizes: a YCSB op entry after the first is flags 1 + key delta 3 + TID 1
// + argument 11 (the 10-byte value behind its length: storage.OpSetBytes)
// = 16 bytes (43 with every field fixed-width and the column's padded
// image), a TPC-C stock update ≈ 8; a header is MinEntryLen−1 to
// MaxEntryHeaderLen bytes.
// DecodeBatch allocates at most 4 ops per 7 frame bytes (a same-shape entry).
// Everything that prices an entry asks EntryCoder.Next — the Stream's byte
// bound, Batch.Size, what a worker reports it replicated — so all of them
// count these bytes.
const (
	flagOp       = 1 << 0
	flagAbsent   = 1 << 1
	flagSamePart = 1 << 2
	flagRawKey   = 1 << 3
	flagPacked   = 1 << 4
	flagKeyDelta = 1 << 5
	flagSameOps  = 1 << 6
	flagsKnown   = flagOp | flagAbsent | flagSamePart | flagRawKey | flagPacked | flagKeyDelta | flagSameOps
	maxShapeOps  = 4 // TPC-C's widest op entries: a remote stock update, a bad-credit Payment

	// MinEntryLen is the smallest encoded entry: flags, a 1-byte key
	// delta, a 1-byte TID delta and a 1-byte empty payload (row length or
	// op count 0). Decoders bound entry counts by it before they allocate
	// from an untrusted count.
	MinEntryLen = 4

	// upfrontEntries is how many entries DecodeBatch allocates on the
	// strength of the count alone: eight default flushes
	// (core.DefaultFlushEntries), 88 KiB of Entry structs.
	upfrontEntries = 1024

	// MaxEntryHeaderLen is the largest encoded entry header — everything
	// in front of the payload: flags 1, table 1, partition 5 (uvarint of
	// a uint32), raw key 16, TID delta 10.
	MaxEntryHeaderLen = 1 + 1 + 5 + prim.KeyLen + 10
)

// entryPrev is what the next entry is coded against: the table, partition,
// key and TID of the entry before it, or the envelope's for the first, and
// the op count and first maxShapeOps heads of the op entry before it.
type entryPrev struct {
	table storage.TableID
	part  int32
	key   storage.Key
	tid   uint64
	nops  int
	heads [maxShapeOps]prim.OpHead
}

// nextOps makes ops the previous op entry's and returns their entry's op
// flags and payload size: no count or heads if they repeat its shape.
func (p *entryPrev) nextOps(ops []storage.FieldOp) (flags byte, payload int) {
	var heads [maxShapeOps]prim.OpHead
	for i := range ops {
		h, n := prim.HeadOf(&ops[i])
		if payload += n; i < maxShapeOps {
			heads[i] = h
		}
	}
	same := len(ops) == p.nops && heads == p.heads && p.nops > 0 && p.nops <= maxShapeOps
	if p.nops, p.heads = len(ops), heads; same {
		return flagOp | flagSameOps, payload
	}
	return flagOp, payload + prim.UvarintLen(uint64(len(ops))) + len(prim.OpHead{})*len(ops)
}

// decodeOps consumes an op entry's payload coded against p (with same,
// only arguments) into the front of pool unless it is nil, makes its ops
// the previous op entry's, and returns their count.
func (p *entryPrev) decodeOps(b []byte, same bool, pool []storage.FieldOp) (_ int, _ []byte, err error) {
	if !same {
		var n uint64
		if n, b, err = prim.Uvarint(b); err != nil {
			return 0, nil, err
		}
		// Each op costs at least 3 bytes, so the count is bounded by the
		// buffer — reject early instead of allocating from a corrupt count.
		if n > uint64(len(b))/3 {
			return 0, nil, fmt.Errorf("%w: %d ops in %d-byte buffer", prim.ErrCorrupt, n, len(b))
		}
		p.nops = int(n)
	}
	for i := 0; i < p.nops && err == nil; i++ {
		op, head := storage.FieldOp{}, b
		if same {
			op, b, err = prim.DecodeOpArg(b, p.heads[i])
		} else if op, b, err = prim.DecodeFieldOp(b); err == nil && i < maxShapeOps {
			p.heads[i] = prim.OpHead(head)
		}
		if pool != nil {
			pool[i] = op
		}
	}
	return p.nops, b, err
}

// batchPrev returns the context of the first entry of an envelope
// stamped with epoch.
func batchPrev(epoch uint64) entryPrev {
	return entryPrev{tid: storage.MakeTID(epoch, 0)}
}

// packedLen returns the size of row's body on the wire: of its packed
// form — a mask byte per word plus the non-zero bytes — when that is
// strictly shorter, else of the row. It is the one rule for which of its
// two forms a row takes: encoder and sizer ask it, the decoder holds
// every packed row to it.
func packedLen(row []byte) int {
	return min(len(row), (len(row)+7)/8+len(row)-bytes.Count(row, []byte{0}))
}

// appendPacked appends row's masks and non-zero bytes.
func appendPacked(b, row []byte) []byte {
	for ; len(row) > 0; row = row[min(8, len(row)):] {
		mask := len(b)
		b = append(b, 0)
		for i, c := range row[:min(8, len(row))] {
			if c != 0 {
				b[mask] |= 1 << i
				b = append(b, c)
			}
		}
	}
	return b
}

// appendHeader appends everything of e in front of its payload, coded
// against prev, and advances prev to e: the one place an entry's layout
// is decided (the sizer runs it into a stack buffer), including the form
// its payload takes — body is the ops' payload size (nextOps), the
// row's packedLen if it goes packed, else its length.
func appendHeader(b []byte, prev *entryPrev, e *Entry) (_ []byte, flags byte, body int) {
	body = len(e.Row)
	if e.IsOp() {
		flags, body = prev.nextOps(e.Ops)
	}
	if e.Absent {
		flags |= flagAbsent
	}
	if flags == 0 { // a present value entry
		if body = packedLen(e.Row); body < len(e.Row) {
			flags = flagPacked
		}
	}
	same := e.Table == prev.table && e.Part == prev.part
	if same {
		flags |= flagSamePart
	}
	delta, keyLen := int64(e.Key.Lo-prev.key.Lo), prim.UvarintLen(e.Key.Hi)+prim.UvarintLen(e.Key.Lo)
	if same && e.Key.Hi == prev.key.Hi && prim.VarintLen(delta) < min(keyLen, prim.KeyLen) {
		flags |= flagKeyDelta
	} else if keyLen > prim.KeyLen {
		flags |= flagRawKey
	}
	b = append(b, flags)
	if !same {
		b = append(b, byte(e.Table))
		b = prim.AppendUvarint(b, uint64(uint32(e.Part)))
		prev.table, prev.part = e.Table, e.Part
	}
	switch flags & (flagRawKey | flagKeyDelta) {
	case flagRawKey:
		b = prim.AppendKey(b, e.Key)
	case flagKeyDelta:
		b = prim.AppendVarint(b, delta)
	default:
		b = prim.AppendUvarint(prim.AppendUvarint(b, e.Key.Hi), e.Key.Lo)
	}
	b = prim.AppendVarint(b, int64(e.TID-prev.tid))
	prev.key, prev.tid = e.Key, e.TID
	return b, flags, body
}

// EntryCoder codes an envelope's entries one at a time, each against the
// one before: Next sizes the next entry, Append encodes it (behind
// AppendBatchHeader, for the recovery log, which learns the count last).
// The zero value codes the first entry of an Epoch-0 envelope.
type EntryCoder struct{ prev entryPrev }

// Reset starts a new envelope stamped with epoch.
func (c *EntryCoder) Reset(epoch uint64) { c.prev = batchPrev(epoch) }

// Append appends e as the envelope's next entry: the one entry encoder.
func (c *EntryCoder) Append(b []byte, e *Entry) []byte {
	b, flags, body := appendHeader(b, &c.prev, e)
	if flags&flagSameOps != 0 {
		for i := range e.Ops {
			b = prim.AppendOpArg(b, &e.Ops[i], c.prev.heads[i])
		}
		return b
	}
	if e.IsOp() {
		b = prim.AppendUvarint(b, uint64(len(e.Ops)))
		for i := range e.Ops {
			b = prim.AppendFieldOp(b, &e.Ops[i])
		}
		return b
	}
	if body == len(e.Row) {
		return prim.AppendBytes(b, e.Row)
	}
	return appendPacked(prim.AppendUvarint(b, uint64(len(e.Row))), e.Row)
}

// Next returns the encoded size of e as the envelope's next entry, split
// into its header (flags, table, partition, key, TID) and its payload
// (row or ops, length prefix included), and beside them raw: the payload
// had its row not packed. The split lets a caller price the entry as the
// whole row it stands for — header + raw, or for an operation entry
// header + the length-prefixed size of its table's row.
func (c *EntryCoder) Next(e *Entry) (header, payload, raw int) {
	var buf [MaxEntryHeaderLen]byte
	b, _, body := appendHeader(buf[:0], &c.prev, e)
	if e.IsOp() {
		return len(b), body, body
	}
	raw = prim.BytesLen(e.Row)
	return len(b), raw - len(e.Row) + body, raw
}

// What scanEntry leaves in e.Ops to mark a payload it left encoded in
// e.Row, told apart by capacity: noOps for an operation entry's ops (IsOp
// is Ops != nil), sameOps for its arguments alone, packedRow for a row.
var (
	noOps     = []storage.FieldOp{}
	sameOps   = make([]storage.FieldOp, 0, 1)
	packedRow = make([]storage.FieldOp, 0, 2)
)

// batchScan is the decoder's state across an envelope: what the next
// entry is coded against, and how many op structs and unpacked row bytes
// the payloads left encoded so far expand to.
type batchScan struct {
	prev        entryPrev
	nops, nrows int
}

// scanEntry is the one entry decoder: it consumes one entry coded against
// s.prev into the zero *e, advances s, and validates all of it, but leaves
// an operation entry's ops and a packed row encoded — marked in e.Ops, in
// e.Row (count or length, if sent, included) for decodeOps or fillRow, and
// counted in s. That split lets DecodeBatch learn the batch's totals in
// the one pass that decodes everything else, and then carve every entry's
// Ops from one allocation and every packed row from another. A raw value
// entry comes back complete.
func scanEntry(b []byte, s *batchScan, e *Entry) (rest []byte, err error) {
	if len(b) < MinEntryLen {
		return nil, prim.ErrTruncated
	}
	flags := b[0]
	if flags&^flagsKnown != 0 || flags&flagPacked != 0 && flags&(flagOp|flagAbsent) != 0 ||
		flags&flagKeyDelta != 0 && flags&(flagSamePart|flagRawKey) != flagSamePart ||
		flags&flagSameOps != 0 && (flags&flagOp == 0 || s.prev.nops == 0 || s.prev.nops > maxShapeOps) {
		return nil, fmt.Errorf("%w: entry flags %#x", prim.ErrCorrupt, flags)
	}
	b = b[1:]
	prev := &s.prev
	if flags&flagSamePart == 0 {
		prev.table = storage.TableID(b[0])
		var part uint64
		if part, b, err = prim.Uvarint(b[1:]); err != nil {
			return nil, err
		}
		prev.part = int32(uint32(part))
	}
	e.Absent = flags&flagAbsent != 0
	e.Table, e.Part = prev.table, prev.part
	switch flags & (flagRawKey | flagKeyDelta) {
	case flagRawKey:
		e.Key, b, err = prim.Key(b)
	case flagKeyDelta:
		var d int64
		d, b, err = prim.Varint(b)
		e.Key = storage.Key{Hi: prev.key.Hi, Lo: prev.key.Lo + uint64(d)}
	default:
		if e.Key.Hi, b, err = prim.Uvarint(b); err == nil {
			e.Key.Lo, b, err = prim.Uvarint(b)
		}
	}
	if err != nil {
		return nil, err
	}
	prev.key = e.Key
	delta, b, err := prim.Varint(b)
	if err != nil {
		return nil, err
	}
	prev.tid += uint64(delta)
	e.TID = prev.tid
	if flags&(flagOp|flagPacked) == 0 {
		e.Row, b, err = prim.Bytes(b)
		return b, err
	}
	if flags&flagOp != 0 {
		n, body, err := prev.decodeOps(b, flags&flagSameOps != 0, nil)
		if err != nil {
			return nil, err
		}
		if e.Ops, e.Row, s.nops = noOps, b[:len(b)-len(body)], s.nops+n; flags&flagSameOps != 0 {
			e.Ops = sameOps
		}
		return body, nil
	}
	n, body, err := prim.Uvarint(b)
	if err != nil {
		return nil, err
	}
	packed, zeroMasks := body, 0
	for left := int(n); left > 0; left -= 8 {
		if len(body) == 0 || bits.OnesCount8(body[0]) >= len(body) {
			return nil, prim.ErrTruncated
		}
		if body[0] == 0 {
			zeroMasks++
		} else if left < 8 && body[0]>>left != 0 {
			return nil, fmt.Errorf("%w: packed row mask %#x past the row's end", prim.ErrCorrupt, body[0])
		}
		body = body[1+bits.OnesCount8(body[0]):]
	}
	// One encoding per row: shorter than the row — and as every word
	// cost its mask byte, the row is under 8× what it arrived in — and
	// with no zero byte but the masks of zero words.
	packed = packed[:len(packed)-len(body)]
	if n > storage.MaxRowSize || len(packed) >= int(n) || bytes.Count(packed, []byte{0}) != zeroMasks {
		return nil, fmt.Errorf("%w: row of %d bytes packed into %d", prim.ErrCorrupt, n, len(packed))
	}
	s.nrows += int(n)
	e.Ops, e.Row = packedRow, b[:len(b)-len(body)]
	return body, nil
}

// fillRow unpacks the row scanEntry left packed in e.Row into the front
// of arena, which is zeroed, and returns the rest.
func fillRow(e *Entry, arena []byte) []byte {
	n, body, _ := prim.Uvarint(e.Row)
	e.Ops, e.Row = nil, arena[:n:n]
	for row := e.Row; len(row) > 0; row = row[min(8, len(row)):] {
		mask := body[0]
		body = body[1:]
		for ; mask != 0; mask &= mask - 1 {
			row[bits.TrailingZeros8(mask)], body = body[0], body[1:]
		}
	}
	return arena[n:]
}

// AppendBatchHeader appends what precedes an envelope's n entries.
func AppendBatchHeader(b []byte, from int, epoch uint64, n int) []byte {
	b = prim.AppendUvarint(b, uint64(from))
	b = prim.AppendUvarint(b, epoch)
	return prim.AppendUvarint(b, uint64(n))
}

// AppendBatch appends a batch body: what follows the message id in its
// frame.
func AppendBatch(b []byte, batch *Batch) []byte {
	b = AppendBatchHeader(b, batch.From, batch.Epoch, len(batch.Entries))
	var enc EntryCoder
	enc.Reset(batch.Epoch)
	for i := range batch.Entries {
		b = enc.Append(b, &batch.Entries[i])
	}
	return b
}

// BatchLen returns the encoded size of a batch body.
func BatchLen(batch *Batch) int {
	n := prim.UvarintLen(uint64(batch.From)) + prim.UvarintLen(batch.Epoch) +
		prim.UvarintLen(uint64(len(batch.Entries)))
	var c EntryCoder
	c.Reset(batch.Epoch)
	for i := range batch.Entries {
		header, payload, _ := c.Next(&batch.Entries[i])
		n += header + payload
	}
	return n
}

// DecodeBatch decodes a whole batch body. Entry payloads alias b, rows
// that arrived packed the one arena they are unpacked into.
func DecodeBatch(b []byte) (*Batch, error) {
	from, b, err := prim.Uvarint(b)
	if err != nil {
		return nil, err
	}
	epoch, b, err := prim.Uvarint(b)
	if err != nil {
		return nil, err
	}
	n, b, err := prim.Uvarint(b)
	if err != nil {
		return nil, err
	}
	if n > uint64(len(b))/MinEntryLen {
		return nil, fmt.Errorf("%w: %d entries in %d-byte buffer", prim.ErrCorrupt, n, len(b))
	}
	// A count the buffer could hold is still only a claim, and an Entry
	// in memory is 88 bytes to the 4 of the smallest encoding: allocate
	// a few flushes' worth up front — an envelope as the engine sends
	// them costs one allocation — and past that only as entries scan,
	// doubling, so the memory stays in proportion to bytes that decoded.
	entries := make([]Entry, min(n, upfrontEntries))
	s := batchScan{prev: batchPrev(epoch)}
	for i := 0; i < int(n); i++ {
		if i == len(entries) {
			entries = append(entries, make([]Entry, min(i, int(n)-i))...)
		}
		if b, err = scanEntry(b, &s, &entries[i]); err != nil {
			return nil, err
		}
	}
	if len(b) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes after batch", prim.ErrCorrupt, len(b))
	}
	// One allocation holds every operation entry's Ops — the mirror of
	// the send side's per-destination ops arena — and one more every
	// packed row, so decoding costs the receiving node a constant number
	// of allocations per envelope, not one per entry (neither is made for
	// a batch without ops or without packed rows).
	pool, arena := make([]storage.FieldOp, s.nops), make([]byte, s.nrows)
	var prev entryPrev // the heads the ops left encoded are coded against
	for i := range entries {
		if e := &entries[i]; cap(e.Ops) == cap(packedRow) {
			arena = fillRow(e, arena)
		} else if e.IsOp() { // validated by the scan; pool is non-nil, so a zero-op entry stays one
			n, _, _ := prev.decodeOps(e.Row, cap(e.Ops) == cap(sameOps), pool)
			e.Row, e.Ops, pool = nil, pool[:n:n], pool[n:]
		}
	}
	return &Batch{From: int(from), Epoch: epoch, Entries: entries}, nil
}
