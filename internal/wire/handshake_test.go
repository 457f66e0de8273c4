package wire

import (
	"bytes"
	"errors"
	"testing"

	"lla/internal/obs"
)

// shake runs a whole handshake in memory: the client's hello through the
// server's Accept, the ack back through the client's ReadAck.
func shake(client, server *Codec) (ack []byte, serverErr, clientErr error) {
	ack, serverErr = server.Accept(bytes.NewReader(client.Hello()))
	return ack, serverErr, client.ReadAck(bytes.NewReader(ack))
}

func TestHandshakeAgreesBinary(t *testing.T) {
	d := testDict(t)
	if _, serr, cerr := shake(NewCodec(d), NewCodec(d)); serr != nil || cerr != nil {
		t.Fatalf("matching codecs: server %v, client %v", serr, cerr)
	}
}

func TestHandshakeDictlessPairAgreesBinary(t *testing.T) {
	if _, serr, cerr := shake(NewCodec(nil), NewCodec(nil)); serr != nil || cerr != nil {
		t.Fatalf("dictless pair: server %v, client %v", serr, cerr)
	}
}

// TestHandshakeOverlappingRangesPickCommonVersion: a client advertising
// Version..Version+1 and a server of this version settle on Version.
func TestHandshakeOverlappingRangesPickCommonVersion(t *testing.T) {
	wide := NewCodec(nil)
	wide.maxVersion = Version + 1
	ack, serr, cerr := shake(wide, NewCodec(nil))
	if serr != nil || cerr != nil {
		t.Fatalf("overlapping ranges: server %v, client %v", serr, cerr)
	}
	if ack[4] != Version {
		t.Fatalf("agreed version %d, want %d", ack[4], Version)
	}
}

// TestHandshakeRefusals: peers that would not read each other's frames the
// same way — no common version, different dictionaries — and a connection
// that does not open with a hello are refused by name on both ends, with
// the refusal counted; nothing is downgraded.
func TestHandshakeRefusals(t *testing.T) {
	only := func(v byte) *Codec { c := NewCodec(nil); c.minVersion, c.maxVersion = v, v; return c }
	other, err := NewDict([]string{"different"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name           string
		client, server *Codec
	}{
		{"future-only client", only(Version + 1), NewCodec(nil)},
		{"future-only server", NewCodec(nil), only(Version + 1)},
		// Version 2 keeps no version 1 dialect: the REPORT body grew.
		{"v1-only client", only(1), NewCodec(nil)},
		{"v1-only server", NewCodec(nil), only(1)},
		{"dictionary mismatch", NewCodec(testDict(t)), NewCodec(other)},
		{"dictionary against none", NewCodec(testDict(t)), NewCodec(nil)},
	} {
		creg, sreg := obs.NewRegistry(), obs.NewRegistry()
		tc.client.Observe(creg)
		tc.server.Observe(sreg)
		ack, serr, cerr := shake(tc.client, tc.server)
		if !errors.Is(serr, ErrRefused) || !errors.Is(cerr, ErrRefused) {
			t.Errorf("%s: server %v, client %v; want both ErrRefused", tc.name, serr, cerr)
		}
		if ack[4] != 0 {
			t.Errorf("%s: refusing ack names version %d", tc.name, ack[4])
		}
		for side, reg := range map[string]*obs.Registry{"client": creg, "server": sreg} {
			refused := reg.Counter("lla_wire_negotiations_total", "Codec negotiations, by outcome.", "outcome", "refused").Value()
			binary := reg.Counter("lla_wire_negotiations_total", "Codec negotiations, by outcome.", "outcome", "binary").Value()
			if refused != 1 || binary != 0 {
				t.Errorf("%s: %s counted refused=%d binary=%d", tc.name, side, refused, binary)
			}
		}
	}

	// A peer speaking anything else is refused on its first four bytes: the
	// server does not wait for the other fourteen.
	for name, prefix := range map[string][]byte{
		"legacy JSON length prefix": {0, 0, 0, 2},
		"a data frame":              {FrameMagic, Version, FramePrice, 0},
		"nothing":                   {},
	} {
		ack, err := NewCodec(nil).Accept(bytes.NewReader(prefix))
		if !errors.Is(err, ErrRefused) || ack[4] != 0 {
			t.Errorf("%s: Accept = ack version %d, %v", name, ack[4], err)
		}
	}
}

func TestHandshakeCorruptHelloRejected(t *testing.T) {
	c := NewCodec(nil)
	hello := c.Hello()
	hello[6] ^= 0xFF // dict hash byte: CRC must catch it
	if _, err := c.Accept(bytes.NewReader(hello)); !errors.Is(err, ErrRefused) {
		t.Fatalf("corrupt hello: %v", err)
	}
	if _, err := c.Accept(bytes.NewReader(c.Hello()[:10])); !errors.Is(err, ErrRefused) {
		t.Fatalf("truncated hello: %v", err)
	}
}

func TestHandshakeCorruptAckRejected(t *testing.T) {
	d := testDict(t)
	client, server := NewCodec(d), NewCodec(d)
	ack, _, _ := shake(client, server)
	ack[4] ^= 0x01
	if err := client.ReadAck(bytes.NewReader(ack)); !errors.Is(err, ErrRefused) {
		t.Fatalf("corrupt ack: %v", err)
	}
	if err := client.ReadAck(bytes.NewReader(ack[:3])); !errors.Is(err, ErrRefused) {
		t.Fatalf("truncated ack: %v", err)
	}
}
