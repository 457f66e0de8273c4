// Package transport provides the messaging substrate for the distributed
// LLA runtime (the message-passing system shape of Section 4.1): named
// endpoints exchanging small JSON messages. Two base networks are provided
// — an in-process channel network and a TCP network with length-prefixed
// JSON frames for genuinely distributed deployments (cmd/lla-node) — plus
// Chaos, a wrapper that composes over either of them and injects
// deterministic, seeded faults (loss, delay/jitter, duplication,
// reordering, partitions, node crash/restart) for robustness testing.
package transport

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
)

// Message is a routed envelope. Payload is JSON so that both network
// implementations behave identically.
type Message struct {
	// From and To are endpoint addresses (logical names).
	From string `json:"from"`
	To   string `json:"to"`
	// Kind discriminates payload types for the receiver.
	Kind string `json:"kind"`
	// Payload is the JSON-encoded body.
	Payload json.RawMessage `json:"payload"`
}

// Decode unmarshals the payload into out.
func (m Message) Decode(out any) error {
	if err := json.Unmarshal(m.Payload, out); err != nil {
		return fmt.Errorf("transport: decoding %s payload: %w", m.Kind, err)
	}
	return nil
}

// Endpoint is one named party on a network.
type Endpoint interface {
	// Addr returns the endpoint's address.
	Addr() string
	// Send delivers a message to the named endpoint. Payload is marshaled
	// to JSON. Send must not block indefinitely.
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

// Codec is a pluggable frame codec for networks that move Messages over
// byte streams. internal/wire implements it with the binary protocol of
// PROTOCOL.md; the transport package itself stays codec-agnostic: TCP
// negotiates the codec per connection via the Sniff/Hello/Accept/ReadAck
// handshake and falls back to the legacy length-prefixed JSON framing with
// any peer that declines (or predates) it, and Inproc can round-trip every
// delivery through a codec so in-process tests exercise the same bytes.
//
// Implementations must be safe for concurrent use by every connection of a
// process.
type Codec interface {
	// Name identifies the codec (e.g. "binary") for flags and logs.
	Name() string
	// Encode renders one message as a self-delimiting frame.
	Encode(m Message) ([]byte, error)
	// Read consumes exactly one frame from r and reconstructs the message.
	Read(r *bufio.Reader) (Message, error)
	// Hello returns the fixed-size client handshake blob written once
	// after dialing.
	Hello() []byte
	// ReadAck parses the server's handshake answer; ok=false negotiates
	// the JSON fallback. An error (e.g. a pre-codec peer closing the
	// connection) tells the dialer to reconnect and speak JSON.
	ReadAck(r io.Reader) (ok bool, err error)
	// Sniff reports whether a connection's first four bytes begin a codec
	// hello (as opposed to a legacy JSON length prefix).
	Sniff(prefix []byte) bool
	// Accept consumes the rest of a sniffed hello from r and returns the
	// ack to write back; ok reports whether binary framing was agreed.
	Accept(prefix []byte, r io.Reader) (ack []byte, ok bool, err error)
}

// encode marshals a payload once, shared by the implementations.
func encode(from, to, kind string, payload any) (Message, error) {
	raw, err := json.Marshal(payload)
	if err != nil {
		return Message{}, fmt.Errorf("transport: encoding %s payload: %w", kind, err)
	}
	return Message{From: from, To: to, Kind: kind, Payload: raw}, nil
}
