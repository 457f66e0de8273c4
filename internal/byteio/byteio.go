// Package byteio is the byte layer under the tree's two binary formats: the
// wire protocol's frames (internal/wire, PROTOCOL.md) and the checkpoints
// (internal/recover, DESIGN.md §13). Enc is an append-only buffer and Dec a
// bounds-checked cursor; each latches its first error and every later call
// is a no-op (Dec's reads return zero values), so format code writes and
// reads linearly and checks the error once at a section boundary.
//
// Fixed-width integers are little-endian, varints are encoding/binary's,
// and a float must be finite on both sides: NaN and ±Inf are an error to
// write and an error to read. Size limits belong to each format, so every
// length-prefixed read takes its own bound; no read allocates before the
// bytes it claims are known to be present.
package byteio

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Enc is an append-only encode buffer with a latched first error.
type Enc struct {
	B   []byte
	Err error
}

// Fail latches a formatted error unless one is already latched.
func (e *Enc) Fail(format string, args ...any) {
	if e.Err == nil {
		e.Err = fmt.Errorf(format, args...)
	}
}

func (e *Enc) U8(v byte)        { e.B = append(e.B, v) }
func (e *Enc) U32(v uint32)     { e.B = binary.LittleEndian.AppendUint32(e.B, v) }
func (e *Enc) U64(v uint64)     { e.B = binary.LittleEndian.AppendUint64(e.B, v) }
func (e *Enc) Uvarint(v uint64) { e.B = binary.AppendUvarint(e.B, v) }
func (e *Enc) Svarint(v int64)  { e.B = binary.AppendVarint(e.B, v) }

// F64 appends a little-endian IEEE-754 value; a non-finite one is an error.
func (e *Enc) F64(v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		e.Fail("non-finite float %v", v)
		return
	}
	e.U64(math.Float64bits(v))
}

// Str appends a uvarint-length-prefixed string of at most max bytes.
func (e *Enc) Str(s string, max int) {
	if len(s) > max {
		e.Fail("string of %d bytes exceeds limit", len(s))
		return
	}
	e.Uvarint(uint64(len(s)))
	e.B = append(e.B, s...)
}

// Bytes appends a uvarint-length-prefixed blob of at most max bytes.
func (e *Enc) Bytes(p []byte, max int) {
	if len(p) > max {
		e.Fail("blob of %d bytes exceeds limit", len(p))
		return
	}
	e.Uvarint(uint64(len(p)))
	e.B = append(e.B, p...)
}

// Dec is a bounds-checked decode cursor over Buf with a latched first error.
type Dec struct {
	Buf []byte
	off int
	Err error
}

// Fail latches a formatted error unless one is already latched.
func (d *Dec) Fail(format string, args ...any) {
	if d.Err == nil {
		d.Err = fmt.Errorf(format, args...)
	}
}

// Remaining reports how many bytes are left.
func (d *Dec) Remaining() int { return len(d.Buf) - d.off }

// need reports whether n more bytes can be read, latching a truncation
// error when they cannot.
func (d *Dec) need(n int) bool {
	if d.Err == nil && uint(n) <= uint(len(d.Buf)-d.off) { // a negative n wraps past any length
		return true
	}
	d.truncated(n)
	return false
}

func (d *Dec) truncated(n int) {
	d.Fail("truncated: need %d bytes, have %d", n, d.Remaining())
}

// Take returns the next n bytes as a slice of Buf (capacity clipped to n),
// or nil once the cursor has failed or fewer than n remain.
func (d *Dec) Take(n int) []byte {
	if !d.need(n) {
		return nil
	}
	p := d.Buf[d.off : d.off+n : d.off+n]
	d.off += n
	return p
}

func (d *Dec) U8() byte {
	if !d.need(1) {
		return 0
	}
	d.off++
	return d.Buf[d.off-1]
}

func (d *Dec) U32() uint32 {
	if !d.need(4) {
		return 0
	}
	d.off += 4
	return binary.LittleEndian.Uint32(d.Buf[d.off-4:])
}

func (d *Dec) U64() uint64 {
	if !d.need(8) {
		return 0
	}
	d.off += 8
	return binary.LittleEndian.Uint64(d.Buf[d.off-8:])
}

func (d *Dec) Uvarint() uint64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.Buf[d.off:])
	if n <= 0 {
		d.Fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

func (d *Dec) Svarint() int64 {
	if d.Err != nil {
		return 0
	}
	v, n := binary.Varint(d.Buf[d.off:])
	if n <= 0 {
		d.Fail("truncated or overlong varint")
		return 0
	}
	d.off += n
	return v
}

// F64 reads a little-endian IEEE-754 value, rejecting NaN and ±Inf.
func (d *Dec) F64() float64 {
	v := math.Float64frombits(d.U64())
	if math.IsNaN(v) || math.IsInf(v, 0) {
		d.Fail("non-finite float %v", v)
		return 0
	}
	return v
}

// Count reads a uvarint entry count bounded by max and by the bytes left
// (every entry is at least one byte), so a hostile count cannot force a
// large allocation.
func (d *Dec) Count(max int) int {
	n := d.Uvarint()
	if d.Err != nil {
		return 0
	}
	if n > uint64(max) || n > uint64(d.Remaining()) {
		d.Fail("count %d exceeds limit or remaining bytes", n)
		return 0
	}
	return int(n)
}

// Str reads a uvarint-length-prefixed string of at most max bytes.
func (d *Dec) Str(max int) string {
	return string(d.Take(d.Count(max)))
}

// Bytes reads a uvarint-length-prefixed blob of at most max bytes, as a
// slice of Buf. A zero length yields nil.
func (d *Dec) Bytes(max int) []byte {
	if n := d.Count(max); n > 0 {
		return d.Take(n)
	}
	return nil
}

// Done returns the latched error, or an error if bytes remain: a
// well-formed input is consumed exactly.
func (d *Dec) Done() error {
	if d.Err == nil && d.Remaining() != 0 {
		return fmt.Errorf("%d trailing bytes", d.Remaining())
	}
	return d.Err
}
