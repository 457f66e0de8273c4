// Package transport provides the messaging substrate for the distributed
// LLA runtime (the message-passing system shape of Section 4.1): named
// endpoints exchanging the typed messages of internal/wire. Two networks are
// provided — an in-process channel network and a TCP network carrying the
// binary frames of PROTOCOL.md for genuinely distributed deployments
// (cmd/lla-node). Faults is the seeded fault decision stream (loss,
// delay/jitter, duplication, reordering, partitions, node crash/restart)
// that dist's virtual driver applies in virtual time for robustness testing.
package transport

import (
	"bufio"
	"io"
	"time"

	"lla/internal/wire"
)

// Message is the routed envelope networks deliver: wire.Message, whose
// Payload is the Go value the sender passed to Send (or, for a payload type
// with no frame type, its JSON as a json.RawMessage).
type Message = wire.Message

// Endpoint is one named party on a network.
type Endpoint interface {
	// Addr returns the endpoint's address.
	Addr() string
	// Send delivers a message to the named endpoint. The payload travels as
	// the value given and must not be modified afterwards: a network may
	// hand the same value to the receiver, deliver it twice, or encode it
	// later from another goroutine. Send must not block indefinitely.
	Send(to, kind string, payload any) error
	// Recv returns the channel of inbound messages. It is closed when the
	// endpoint is closed.
	Recv() <-chan Message
	// Close releases the endpoint; subsequent Sends fail.
	Close() error
}

// Network creates endpoints.
type Network interface {
	// Endpoint registers (or returns an error for a duplicate) the named
	// endpoint.
	Endpoint(addr string) (Endpoint, error)
}

// Codec is what a network needs of the frame codec: *wire.Codec implements
// it, and a decorator can wrap one (the benchmark counts frames that way).
// TCP encodes every message with it and opens every connection with its
// handshake; Inproc can round-trip every delivery through it so in-process
// tests exercise the same bytes.
//
// Implementations must be safe for concurrent use by every connection of a
// process.
type Codec interface {
	// Encode renders one message as a self-delimiting frame.
	Encode(m Message) ([]byte, error)
	// Read consumes exactly one frame from r and returns its message.
	Read(r *bufio.Reader) (Message, error)
	// Hello returns the fixed-size client handshake blob written once
	// after dialing.
	Hello() []byte
	// Accept reads the hello an inbound connection must open with and
	// returns the ack to write back; on an error (wrapping wire.ErrRefused)
	// the ack says so and the connection is closed after writing it.
	Accept(r io.Reader) (ack []byte, err error)
	// ReadAck parses the server's answer to the hello; any failure wraps
	// wire.ErrRefused.
	ReadAck(r io.Reader) error
}

// retryWindow opens a wall-clock window of length d and returns a function
// reporting whether it is still open: the one bounded-retry idiom of the
// TCP dial, the TCP re-send and the in-process registration wait.
func retryWindow(d time.Duration) func() bool {
	end := time.Now().Add(d)
	return func() bool { return time.Now().Before(end) }
}

// Stopped reports whether the stop channel (possibly nil) has fired.
func Stopped(stop <-chan struct{}) bool {
	select {
	case <-stop:
		return true
	default:
		return false
	}
}
