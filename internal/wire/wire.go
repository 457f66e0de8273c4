// Package wire implements the LLA binary wire protocol: the message
// envelope and payload types of the distributed runtime, and the versioned,
// CRC-guarded frame codec that is the only dialect a connection carries.
// PROTOCOL.md is the normative byte-level specification; this package is
// the reference implementation.
//
// The payload structs of frames.go are the message definitions: a node
// builds one, Endpoint.Send carries that Go value, Codec.Encode picks the
// frame type from its Go type, Codec.Read returns it, and the receiving node
// type-switches on it. A payload the protocol has no frame type for is
// marshalled to JSON once (NewMessage) and rides a RAW frame verbatim — the
// one place JSON meets a frame. internal/transport builds on this package:
// TCP opens every connection with the codec's handshake, and Inproc can
// round-trip every delivery through the codec.
//
// Decoding is defensive: the byteio cursor internal/recover reads
// checkpoints with (a latched first error, explicit limits on every length
// field, non-finite floats refused), CRC verification before any payload
// interpretation, and rejection of reserved flag bits.
package wire

import "lla/internal/byteio"

// Protocol version bounds. Version is the only frame version this
// implementation emits and accepts; MinVersion..Version is the range
// advertised in the negotiation hello.
const (
	Version    = 2
	MinVersion = 2
)

// FrameMagic is the first byte of every data frame.
const FrameMagic = 0xA7

// Frame type codes. PROTOCOL.md documents the body layout of each (a docs
// test reads this block and checks it does).
const (
	FramePrice     = 0x01 // resource price update(s) (PriceUpdate)
	FrameLatency   = 0x02 // share/latency report(s) (ShareReport)
	FrameReport    = 0x03 // controller utility report (UtilityReport)
	FrameStop      = 0x04 // coordinator stop (Stop)
	FrameFin       = 0x05 // resource fin handshake (Fin)
	FrameRejoin    = 0x06 // coordinator rejoin announcement (Rejoin)
	FrameRejoinAck = 0x07 // controller rejoin answer (RejoinAck)
	FrameRaw       = 0x0F // escape hatch: any kind, verbatim JSON payload
)

// Frame header flag bits. Reserved bits must be zero; decoders reject
// frames that set them (evolution rule: a new optional behavior needs a new
// version, not a quietly ignored bit).
const (
	// flagDict marks ids encoded as indexes into the negotiated dictionary.
	// Every frame sets it: it is the only id encoding there is.
	flagDict = 0x01
	// flagBatch marks a payload that is a slice of entries rather than one
	// entry, so a one-element slice and a bare entry round-trip as what
	// they were.
	flagBatch = 0x02

	flagsKnown = flagDict | flagBatch
)

// Size limits, enforced on both encode and decode so a corrupt or hostile
// length field cannot trigger a huge allocation.
const (
	// maxBodyBytes bounds a frame body.
	maxBodyBytes = 16 << 20
	// maxStrLen bounds an inline string: a literal address or a RAW kind.
	maxStrLen = 1 << 16
	// maxBatch bounds the entry count of a batched frame.
	maxBatch = 1 << 20
)

// pick reads a dictionary index and returns the name it selects with the
// index; "" and 0 once the cursor has failed or the index is out of range.
func pick(d *byteio.Dec, names []string, what string) (string, int) {
	n := d.Uvarint()
	if d.Err != nil {
		return "", 0
	}
	if n >= uint64(len(names)) {
		d.Fail("%s index %d out of range (dictionary has %d)", what, n, len(names))
		return "", 0
	}
	return names[n], int(n)
}
