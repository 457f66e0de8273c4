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
// one place JSON meets a frame. The transport package builds on this one:
// TCP checks version and dictionary per connection with the codec's
// handshake, and Inproc can round-trip every delivery through the codec so
// in-process runs exercise the same bytes.
//
// Decoding follows the defensive-decoder discipline of internal/recover:
// a bounds-checked cursor with a latched first error, explicit limits on
// every length field, CRC verification before any payload interpretation,
// and rejection of non-finite floats and reserved flag bits.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// Protocol version bounds. Version is the only frame version this
// implementation emits and accepts; MinVersion..Version is the range
// advertised in the negotiation hello.
const (
	Version    = 1
	MinVersion = 1
)

// FrameMagic is the first byte of every data frame.
const FrameMagic = 0xA7

// Frame type codes. PROTOCOL.md documents the body layout of each;
// FrameTypes lists them for the docs coverage test.
const (
	FramePrice     = 0x01 // resource price update(s) (PriceUpdate)
	FrameLatency   = 0x02 // share/latency report(s) (ShareReport)
	FrameReport    = 0x03 // controller utility report (UtilityReport)
	FrameStop      = 0x04 // coordinator stop (Stop)
	FrameFin       = 0x05 // resource fin handshake (Fin)
	FrameRejoin    = 0x06 // coordinator rejoin announcement (Rejoin)
	FrameRejoinAck = 0x07 // controller rejoin answer (RejoinAck)
	FramePriceAgg  = 0x08 // fleet boundary-price broadcast (BoundaryPrice)
	FrameBoundary  = 0x09 // shard boundary-demand report (BoundaryDemand)
	FrameRaw       = 0x0F // escape hatch: any kind, verbatim JSON payload
)

// FrameTypes maps every frame type this codec can emit to its wire code.
// docs_test.go asserts PROTOCOL.md documents each entry.
func FrameTypes() map[string]byte {
	return map[string]byte{
		"PRICE":      FramePrice,
		"LATENCY":    FrameLatency,
		"REPORT":     FrameReport,
		"STOP":       FrameStop,
		"FIN":        FrameFin,
		"REJOIN":     FrameRejoin,
		"REJOIN_ACK": FrameRejoinAck,
		"PRICE_AGG":  FramePriceAgg,
		"BOUNDARY":   FrameBoundary,
		"RAW":        FrameRaw,
	}
}

// Frame header flag bits. Reserved bits must be zero; decoders reject
// frames that set them (evolution rule: a new optional behavior needs a new
// version, not a quietly ignored bit).
const (
	// flagDict marks ids encoded as indexes into the negotiated dictionary
	// instead of inline strings.
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
	// maxStrLen bounds any inline identifier (addresses, ids, kinds).
	maxStrLen = 1 << 16
	// maxBatch bounds the entry count of a batched frame.
	maxBatch = 1 << 20
)

// errDictMiss is latched by the encoder when dictionary mode is requested
// but an id is not in the dictionary; the caller retries in string mode.
var errDictMiss = errors.New("wire: id not in dictionary")

// enc is an append-only encode buffer with a latched first error, the
// write-side counterpart of dec.
type enc struct {
	b   []byte
	err error
}

// fail latches the first error.
func (e *enc) fail(format string, args ...any) {
	if e.err == nil {
		e.err = fmt.Errorf("wire: "+format, args...)
	}
}

// setErr latches a sentinel error.
func (e *enc) setErr(err error) {
	if e.err == nil {
		e.err = err
	}
}

func (e *enc) u8(v byte)        { e.b = append(e.b, v) }
func (e *enc) uvarint(v uint64) { e.b = binary.AppendUvarint(e.b, v) }
func (e *enc) svarint(v int64)  { e.b = binary.AppendVarint(e.b, v) }

// f64 appends a little-endian IEEE-754 value; non-finite values are a
// protocol error (prices, shares and utilities are finite by construction).
func (e *enc) f64(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.fail("non-finite float %v", v)
		return
	}
	e.b = binary.LittleEndian.AppendUint64(e.b, math.Float64bits(v))
}

// str appends a length-prefixed UTF-8 string.
func (e *enc) str(s string) {
	if len(s) > maxStrLen {
		e.fail("string of %d bytes exceeds limit", len(s))
		return
	}
	e.uvarint(uint64(len(s)))
	e.b = append(e.b, s...)
}

// bytes appends a length-prefixed byte blob.
func (e *enc) bytes(p []byte) {
	if len(p) > maxBodyBytes {
		e.fail("blob of %d bytes exceeds limit", len(p))
		return
	}
	e.uvarint(uint64(len(p)))
	e.b = append(e.b, p...)
}

// dec is a bounds-checked decode cursor over a frame body. The first
// failure latches err and every subsequent read returns zero values, so
// decode paths read linearly without per-field error checks (the
// internal/recover reader discipline).
type dec struct {
	buf []byte
	off int
	err error
}

// fail latches the first error.
func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: "+format, args...)
	}
}

// remaining reports how many bytes are left.
func (d *dec) remaining() int { return len(d.buf) - d.off }

func (d *dec) u8() byte {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 1 {
		d.fail("truncated body: need 1 byte, have 0")
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *dec) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

func (d *dec) svarint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// f64 reads a little-endian IEEE-754 value, rejecting NaN and ±Inf.
func (d *dec) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated body: need 8 bytes, have %d", d.remaining())
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.fail("non-finite float on the wire")
		return 0
	}
	return v
}

// strN reads a length-prefixed string of at most max bytes.
func (d *dec) strN(max int) string {
	n := d.uvarint()
	if d.err != nil {
		return ""
	}
	if n > uint64(max) || n > uint64(d.remaining()) {
		d.fail("string length %d exceeds limit or remaining bytes", n)
		return ""
	}
	s := string(d.buf[d.off : d.off+int(n)])
	d.off += int(n)
	return s
}

// bytesN reads a length-prefixed blob of at most max bytes, as a slice of
// the body itself (each frame is read into a buffer of its own). A zero
// length yields nil.
func (d *dec) bytesN(max int) []byte {
	n := d.uvarint()
	if d.err != nil {
		return nil
	}
	if n > uint64(max) || n > uint64(d.remaining()) {
		d.fail("blob length %d exceeds limit or remaining bytes", n)
		return nil
	}
	if n == 0 {
		return nil
	}
	p := d.buf[d.off : d.off+int(n) : d.off+int(n)]
	d.off += int(n)
	return p
}

// count reads an entry count bounded by max. Counts are additionally
// bounded by the remaining body bytes (every entry is at least one byte),
// so a hostile count cannot force a large allocation.
func (d *dec) count(max int) int {
	n := d.uvarint()
	if d.err != nil {
		return 0
	}
	if n > uint64(max) || n > uint64(d.remaining()) {
		d.fail("entry count %d exceeds limit or remaining bytes", n)
		return 0
	}
	return int(n)
}

// pick reads a dictionary index and returns the name it selects with the
// index; "" and 0 once the cursor has failed or the index is out of range.
func (d *dec) pick(names []string, what string) (string, int) {
	n := d.uvarint()
	if d.err != nil {
		return "", 0
	}
	if n >= uint64(len(names)) {
		d.fail("%s index %d out of range (dictionary has %d)", what, n, len(names))
		return "", 0
	}
	return names[n], int(n)
}

// done returns the latched error, or an error if trailing bytes remain (a
// well-formed body is consumed exactly).
func (d *dec) done() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("wire: %d trailing bytes after body", len(d.buf)-d.off)
	}
	return nil
}
