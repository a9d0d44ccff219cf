// Package wire is the hand-rolled binary encoding for everything the
// cluster sends over a real transport: the field walker that describes
// each fixed-layout message once (Fields: one walk encodes, decodes and
// sizes it), length-prefixed frames, the request header, and a registry
// that maps message and procedure type ids to their codecs. Its
// primitives and decode errors are wire/prim's; the replication
// envelope, coded against its context, lives with Batch in replication.
//
// Design rules:
//
//   - Append-style encoders: every encoder appends to a caller-supplied
//     buffer and returns it, so a sender builds a frame in one allocation
//     of its Size(): the size pass of its walk plus the frame header.
//   - Arena-friendly decoders: decoded byte payloads (field op arguments,
//     row images bar the zero-packed) alias the input buffer instead of
//     copying. A frame's buffer must therefore outlive the decoded
//     message — tcpnet reads each frame into its own buffer and lets the
//     GC collect it with the message.
//   - Decoders never panic on malformed input: every length is checked
//     against the remaining buffer and errors propagate up, so a corrupt
//     or truncated frame is rejected, not a crash.
package wire
