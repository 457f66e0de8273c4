package wire

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// Connection handshake (PROTOCOL.md §5). After dialing, the client writes
// one fixed-size hello carrying its version range and dictionary hash; the
// server answers with one fixed-size ack naming the frame version the
// connection will carry, or 0: refused. The handshake checks that both ends
// would read each other's frames the same way — it negotiates nothing else,
// and a connection that fails it carries no frame.

var (
	helloMagic = [4]byte{'L', 'L', 'A', 'W'}
	ackMagic   = [4]byte{'L', 'L', 'A', 'B'}
)

const (
	helloLen = 18 // magic(4) maxVer(1) minVer(1) dictHash(8) crc(4)
	ackLen   = 10 // magic(4) version(1) flags(1) crc(4)
)

// ErrRefused marks a connection whose handshake failed: the peers share no
// frame version, hold different dictionaries, or one of them did not speak
// the handshake at all. Dialing again would fail the same way, so senders do
// not retry it.
var ErrRefused = errors.New("wire: connection refused")

// Hello returns the client handshake blob, written once after dialing.
func (c *Codec) Hello() []byte {
	b := append(append(make([]byte, 0, helloLen), helloMagic[:]...), c.maxVersion, c.minVersion)
	b = binary.LittleEndian.AppendUint64(b, c.dict.Hash())
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// Accept is the server side: it reads the hello a connection must open with
// and returns the ack to write back. On a hello it cannot honour — first
// bytes that are not a hello, a bad CRC, no common version, a different
// dictionary — the ack says refused and err wraps ErrRefused: the caller
// writes the ack and closes the connection.
func (c *Codec) Accept(r io.Reader) (ack []byte, err error) {
	version, err := c.acceptHello(r)
	b := append(append(make([]byte, 0, ackLen), ackMagic[:]...), version, 0)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b)), c.settle(err)
}

// settle counts one end's outcome of a handshake and names a failure.
func (c *Codec) settle(err error) error {
	if err != nil {
		c.m.Refused.Inc()
		return fmt.Errorf("%w: %v", ErrRefused, err)
	}
	c.m.NegotiatedBinary.Inc()
	return nil
}

// acceptHello reads and checks one hello, returning the version to serve.
func (c *Codec) acceptHello(r io.Reader) (byte, error) {
	var hello [helloLen]byte
	// The magic is checked before the rest is awaited, so a peer speaking
	// anything else is refused on its first four bytes.
	if _, err := io.ReadFull(r, hello[:4]); err != nil {
		return 0, fmt.Errorf("reading hello: %v", err)
	}
	if !bytes.Equal(hello[:4], helloMagic[:]) {
		return 0, fmt.Errorf("connection opens with % x, not a hello", hello[:4])
	}
	if _, err := io.ReadFull(r, hello[4:]); err != nil {
		return 0, fmt.Errorf("truncated hello: %v", err)
	}
	if got, want := binary.LittleEndian.Uint32(hello[helloLen-4:]), crc32.ChecksumIEEE(hello[:helloLen-4]); got != want {
		return 0, fmt.Errorf("hello CRC mismatch: got %08x want %08x", got, want)
	}
	theirMax, theirMin := hello[4], hello[5]
	version := min(c.maxVersion, theirMax)
	if version < theirMin || version < c.minVersion {
		return 0, fmt.Errorf("no common frame version: peer speaks %d..%d, this end %d..%d", theirMin, theirMax, c.minVersion, c.maxVersion)
	}
	if theirs, ours := binary.LittleEndian.Uint64(hello[6:14]), c.dict.Hash(); theirs != ours {
		return 0, fmt.Errorf("dictionary mismatch: peer hash %016x, this end %016x", theirs, ours)
	}
	return version, nil
}

// ReadAck is the client side: it parses the server's answer to the hello.
// Anything but an intact ack naming a version this codec speaks — a refusal,
// a short read, another magic, a bad CRC — is an error wrapping ErrRefused.
func (c *Codec) ReadAck(r io.Reader) error { return c.settle(c.readAck(r)) }

func (c *Codec) readAck(r io.Reader) error {
	var b [ackLen]byte
	if _, err := io.ReadFull(r, b[:]); err != nil {
		return fmt.Errorf("reading handshake ack: %v", err)
	}
	if !bytes.Equal(b[:4], ackMagic[:]) {
		return fmt.Errorf("bad ack magic % x", b[:4])
	}
	if got, want := binary.LittleEndian.Uint32(b[ackLen-4:]), crc32.ChecksumIEEE(b[:ackLen-4]); got != want {
		return fmt.Errorf("ack CRC mismatch: got %08x want %08x", got, want)
	}
	switch version := b[4]; {
	case version == 0:
		return errors.New("peer refused the hello (version or dictionary mismatch)")
	case version < c.minVersion || version > c.maxVersion:
		return fmt.Errorf("peer chose unsupported version %d", version)
	}
	return nil
}
