package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"

	"lla/internal/byteio"
	"lla/internal/obs"
)

// Message is a routed envelope. Payload is the Go value the sender built:
// one of the payload types of frames.go (or a slice of a batching one), or,
// for a kind the protocol has no frame type for, the json.RawMessage that
// NewMessage marshalled and a RAW frame carries verbatim.
type Message struct {
	// From and To are endpoint addresses (logical names).
	From, To string
	// Kind names the payload for the receiver; a frame type implies it.
	Kind string
	// Payload is immutable once the message is sent.
	Payload any
}

// NewMessage builds the envelope a Send puts on a network. A payload with a
// frame type travels as it is; anything else is marshalled to JSON here,
// once, so every network delivers the same bytes.
func NewMessage(from, to, kind string, payload any) (Message, error) {
	if !modelled(payload) {
		raw, err := json.Marshal(payload)
		if err != nil {
			return Message{}, fmt.Errorf("wire: encoding %s payload: %w", kind, err)
		}
		payload = json.RawMessage(raw)
	}
	return Message{From: from, To: to, Kind: kind, Payload: payload}, nil
}

// Codec is the binary frame codec. It is stateless apart from metrics, so
// one Codec instance can serve every connection of a process concurrently.
// The zero value is not usable; construct with NewCodec.
type Codec struct {
	dict *Dict
	// minVersion..maxVersion is the advertised handshake range; production
	// codecs use MinVersion..Version, tests skew them to exercise refusal.
	minVersion, maxVersion byte

	m *obs.WireMetrics
}

// NewCodec returns a codec using the given dictionary; nil means the empty
// one, under which only a frame naming no resource, task or subtask
// encodes. Call Observe to attach metrics.
func NewCodec(d *Dict) *Codec {
	if d == nil {
		d = emptyDict
	}
	return &Codec{dict: d, minVersion: MinVersion, maxVersion: Version, m: &obs.WireMetrics{}}
}

// Observe registers the lla_wire_* metric set on reg (nil is a no-op).
func (c *Codec) Observe(reg *obs.Registry) {
	if reg != nil {
		c.m = obs.NewWireMetrics(reg)
	}
}

// Encode renders one message as a binary frame, choosing the frame type
// from the payload's Go type; a json.RawMessage rides a RAW frame under the
// message's kind. It fails on a payload that is neither, a kind that is not
// the frame type's, a payload id outside the dictionary, and oversize or
// non-finite fields.
func (c *Codec) Encode(m Message) ([]byte, error) {
	// The body is encoded into the buffer that becomes the frame, behind
	// room for the longest header; the header is then written flush against
	// it. A typical control frame (tens of bytes) is this one allocation.
	const maxHeader = 4 + binary.MaxVarintLen32
	e := byteio.Enc{B: make([]byte, maxHeader, 128)}
	ft, flags := c.encodeBody(&e, m)
	if e.Err != nil {
		return nil, fmt.Errorf("wire: %w", e.Err)
	}
	bodyLen := len(e.B) - maxHeader
	if bodyLen > maxBodyBytes {
		return nil, fmt.Errorf("wire: frame body of %d bytes exceeds limit", bodyLen)
	}
	var lenBuf [binary.MaxVarintLen32]byte
	n := binary.PutUvarint(lenBuf[:], uint64(bodyLen))
	frame := e.B[maxHeader-4-n:]
	frame[0], frame[1], frame[2], frame[3] = FrameMagic, Version, ft, flags
	copy(frame[4:], lenBuf[:n])
	frame = binary.LittleEndian.AppendUint32(frame, crc32.ChecksumIEEE(frame))
	c.m.FramesEncoded.Inc()
	c.m.BytesEncoded.Add(int64(len(frame)))
	if ft == FrameRaw {
		c.m.RawFrames.Inc()
	}
	return frame, nil
}

// encodeBody renders the frame body into e and returns the frame type and
// flags; failures latch on e.
func (c *Codec) encodeBody(e *byteio.Enc, m Message) (ft, flags byte) {
	c.addr(e, m.From)
	c.addr(e, m.To)
	switch p := m.Payload.(type) {
	case PriceUpdate:
		ft = FramePrice
		c.encPrice(e, []PriceUpdate{p})
	case []PriceUpdate:
		ft, flags = FramePrice, flagBatch
		c.encPrice(e, p)
	case ShareReport:
		ft = FrameLatency
		c.encLatency(e, []ShareReport{p})
	case []ShareReport:
		ft, flags = FrameLatency, flagBatch
		c.encLatency(e, p)
	case UtilityReport:
		ft = FrameReport
		c.taskRef(e, p.Task)
		e.Svarint(int64(p.Round))
		e.Uvarint(p.Epoch)
		e.F64(p.Utility)
		e.F64(p.KKTMax)
		e.F64(p.PathViolation)
		e.F64(p.Excess)
	case Stop:
		ft = FrameStop
		e.Svarint(int64(p.AfterRound))
		e.Uvarint(p.Epoch)
	case Fin:
		ft = FrameFin
		c.resRef(e, p.Resource)
	case Rejoin:
		ft = FrameRejoin
		e.Uvarint(p.Epoch)
	case RejoinAck:
		ft = FrameRejoinAck
		c.taskRef(e, p.Task)
		e.Svarint(int64(p.Round))
		e.Uvarint(p.Epoch)
	case json.RawMessage:
		ft = FrameRaw
		e.Str(m.Kind, maxStrLen)
		e.Bytes(p, maxBodyBytes)
	default:
		e.Fail("%s payload is a %T: neither a frame type nor JSON", m.Kind, p)
		return 0, 0
	}
	if ft != FrameRaw && m.Kind != frameKinds[ft] {
		e.Fail("kind %q on a %s payload", m.Kind, frameKinds[ft])
	}
	return ft, flags | flagDict
}

// Read consumes exactly one binary frame from r and returns the message it
// carries. A frame that fits in r's buffer is decoded there; a larger one's
// buffer grows only as bytes actually arrive, so a corrupt length field on a
// truncated stream cannot force a large up-front allocation.
func (c *Codec) Read(r *bufio.Reader) (Message, error) {
	msg, n, err := c.readFrame(r)
	if err != nil {
		if err != io.EOF {
			c.m.DecodeErrors.Inc()
		}
		return Message{}, err
	}
	c.m.FramesDecoded.Inc()
	c.m.BytesDecoded.Add(int64(n))
	return msg, nil
}

func (c *Codec) readFrame(r *bufio.Reader) (Message, int, error) {
	// The header and the length behind it are peeked, so that the whole
	// frame then sits in one buffer and the CRC runs over it in one piece.
	hdr, err := r.Peek(4)
	if err != nil {
		if len(hdr) > 0 && err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return Message{}, 0, err
	}
	if hdr[0] != FrameMagic {
		return Message{}, 0, fmt.Errorf("wire: bad frame magic 0x%02x", hdr[0])
	}
	if hdr[1] != Version {
		return Message{}, 0, fmt.Errorf("wire: unsupported frame version %d", hdr[1])
	}
	ft, flags := hdr[2], hdr[3]
	if flags&^byte(flagsKnown) != 0 {
		return Message{}, 0, fmt.Errorf("wire: reserved frame flag bits 0x%02x", flags)
	}
	bodyLen, n, err := peekUvarint(r, 4)
	if err != nil {
		return Message{}, 0, err
	}
	if bodyLen > maxBodyBytes {
		return Message{}, 0, fmt.Errorf("wire: frame body of %d bytes exceeds limit", bodyLen)
	}
	size := 4 + n + int(bodyLen) + 4
	var frame []byte
	if size <= r.Size() { // decoded in place, then consumed
		frame, err = r.Peek(size)
		defer r.Discard(len(frame))
	} else { // grown only as bytes arrive
		frame, err = io.ReadAll(io.LimitReader(r, int64(size)))
	}
	if len(frame) < size && (err == nil || err == io.EOF) {
		err = io.ErrUnexpectedEOF // the header arrived, the rest did not
	}
	if err != nil {
		return Message{}, 0, fmt.Errorf("wire: truncated frame: %w", err)
	}
	sealed := len(frame) - 4
	if got, want := binary.LittleEndian.Uint32(frame[sealed:]), crc32.ChecksumIEEE(frame[:sealed]); got != want {
		return Message{}, 0, fmt.Errorf("wire: frame CRC mismatch: got %08x want %08x", got, want)
	}
	msg, err := c.decodeBody(ft, flags, frame[4+n:sealed])
	if err != nil {
		return Message{}, 0, err
	}
	return msg, len(frame), nil
}

// peekUvarint decodes the varint at offset off of r's unread bytes without
// consuming it, asking for one byte more only while the varint goes on — a
// short frame may end right behind its length.
func peekUvarint(r *bufio.Reader, off int) (v uint64, n int, err error) {
	var s uint
	for i := 0; i < binary.MaxVarintLen64; i++ {
		p, err := r.Peek(off + i + 1)
		if err != nil {
			return 0, 0, fmt.Errorf("wire: truncated frame length: %w", err)
		}
		b := p[off+i]
		if b < 0x80 {
			if i == binary.MaxVarintLen64-1 && b > 1 {
				break // overflows uint64
			}
			return v | uint64(b)<<s, i + 1, nil
		}
		v |= uint64(b&0x7f) << s
		s += 7
	}
	return 0, 0, errors.New("wire: frame length varint overflow")
}

// decodeBody reconstructs a Message from a verified frame body.
func (c *Codec) decodeBody(ft, flags byte, body []byte) (Message, error) {
	batch := flags&flagBatch != 0
	d := &byteio.Dec{Buf: body}
	switch {
	case ft != FrameRaw && (int(ft) >= len(frameKinds) || frameKinds[ft] == ""):
		d.Fail("unknown frame type 0x%02x", ft) // named before its flags are judged
	case batch && ft != FramePrice && ft != FrameLatency:
		d.Fail("batch flag on a single-entry frame")
	case flags&flagDict == 0:
		d.Fail("frame without the DICT flag: inline string ids are retired")
	}
	var m Message
	m.From = c.readAddr(d)
	m.To = c.readAddr(d)
	switch ft {
	case FramePrice:
		m.Payload = decEntries(d, batch, func() PriceUpdate { return c.decPrice(d) })
	case FrameLatency:
		m.Payload = decEntries(d, batch, func() ShareReport { return c.decLatency(d) })
	case FrameReport:
		var v UtilityReport
		v.Task, _ = c.readTaskRef(d)
		v.Round = int(d.Svarint())
		v.Epoch = d.Uvarint()
		v.Utility = d.F64()
		v.KKTMax = d.F64()
		v.PathViolation = d.F64()
		v.Excess = d.F64()
		m.Payload = v
	case FrameStop:
		m.Payload = Stop{AfterRound: int(d.Svarint()), Epoch: d.Uvarint()}
	case FrameFin:
		m.Payload = Fin{Resource: c.readResRef(d)}
	case FrameRejoin:
		m.Payload = Rejoin{Epoch: d.Uvarint()}
	case FrameRejoinAck:
		var v RejoinAck
		v.Task, _ = c.readTaskRef(d)
		v.Round = int(d.Svarint())
		v.Epoch = d.Uvarint()
		m.Payload = v
	case FrameRaw:
		m.Kind = d.Str(maxStrLen)
		m.Payload = json.RawMessage(bytes.Clone(d.Bytes(maxBodyBytes))) // not the reader's buffer
	}
	if err := d.Done(); err != nil {
		return Message{}, fmt.Errorf("wire: %w", err)
	}
	if ft != FrameRaw {
		m.Kind = frameKinds[ft]
	}
	return m, nil
}
