package transport_test

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"lla/internal/obs"
	"lla/internal/transport"
	"lla/internal/wire"
)

// reservePort grabs a free localhost port. There is a tiny window before
// the test rebinds it; acceptable for a local test.
func reservePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	return ln.Addr().String()
}

func recvMsg(t *testing.T, ch <-chan transport.Message) transport.Message {
	t.Helper()
	select {
	case m, ok := <-ch:
		if !ok {
			t.Fatal("inbox closed")
		}
		return m
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for message")
	}
	return transport.Message{}
}

// exchangeDict names what exchange sends.
func exchangeDict(t *testing.T) *wire.Dict {
	t.Helper()
	d, err := wire.NewDict([]string{"cpu0"}, []string{"alpha"}, [][]string{{"a1"}})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// exchange sends a price a->b and a share report b->a, through a codec
// holding exchangeDict, and asserts both arrive intact, as the values sent.
func exchange(t *testing.T, a, b transport.Endpoint) {
	t.Helper()
	want := wire.PriceUpdate{Round: 7, Resource: "cpu0", Mu: 1.5}
	if err := a.Send(b.Addr(), wire.KindPrice, want); err != nil {
		t.Fatalf("a->b send: %v", err)
	}
	m := recvMsg(t, b.Recv())
	if got, ok := m.Payload.(wire.PriceUpdate); !ok || m.From != a.Addr() || m.Kind != wire.KindPrice || got != want {
		t.Fatalf("a->b got %+v", m)
	}
	report := wire.ShareReport{Round: 7, Task: "alpha", Subs: []string{"a1"}, LatMs: []float64{4.5}}
	if err := b.Send(a.Addr(), wire.KindLatency, report); err != nil {
		t.Fatalf("b->a send: %v", err)
	}
	m = recvMsg(t, a.Recv())
	if got, ok := m.Payload.(wire.ShareReport); !ok || m.Kind != wire.KindLatency || got.Task != "alpha" || len(got.LatMs) != 1 || got.LatMs[0] != 4.5 || got.Subs[0] != "a1" {
		t.Fatalf("b->a got %+v", m)
	}
}

// negotiations reads the lla_wire_negotiations_total counter by outcome.
func negotiations(reg *obs.Registry, outcome string) int64 {
	return reg.Counter("lla_wire_negotiations_total", "Codec negotiations, by outcome.", "outcome", outcome).Value()
}

func observed(d *wire.Dict, reg *obs.Registry) *wire.Codec {
	c := wire.NewCodec(d)
	c.Observe(reg)
	return c
}

func TestTCPBinaryCodecEndToEnd(t *testing.T) {
	reg := obs.NewRegistry()
	n := transport.NewTCP(map[string]string{"a": "127.0.0.1:0", "b": "127.0.0.1:0"})
	n.SetCodec(observed(exchangeDict(t), reg))
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	exchange(t, a, b)
	if got := negotiations(reg, "binary"); got == 0 {
		t.Fatal("no binary negotiation recorded")
	}
	if got := negotiations(reg, "refused"); got != 0 {
		t.Fatalf("%d refusals between matching endpoints", got)
	}
	if frames := reg.Counter("lla_wire_frames_total", "Binary frames, by direction.", "dir", "decode").Value(); frames != 2 {
		t.Fatalf("%d binary frames decoded, want 2", frames)
	}
}

// helloCodec is a codec that opens its connections with bytes of the test's
// choosing.
type helloCodec struct {
	transport.Codec
	hello []byte
}

func (h helloCodec) Hello() []byte { return h.hello }

// hello builds a well-formed hello for a version range and dictionary hash.
func hello(maxV, minV byte, dictHash uint64) []byte {
	b := append([]byte("LLAW"), maxV, minV)
	b = binary.LittleEndian.AppendUint64(b, dictHash)
	return binary.LittleEndian.AppendUint32(b, crc32.ChecksumIEEE(b))
}

// TestTCPRefusals is the other half of "binary is the only dialect": a
// connection whose ends would not read each other's frames the same way, or
// that does not speak the handshake, is refused — the sender's Send fails at
// once with wire.ErrRefused instead of retrying for RetryWindow, nothing
// is delivered, the refusal is counted, and no goroutine outlives the
// endpoints. Nothing is downgraded.
func TestTCPRefusals(t *testing.T) {
	dictA, err := wire.NewDict([]string{"cpu0"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	dictB, err := wire.NewDict([]string{"gpu9"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := hello(wire.Version, wire.MinVersion, 0)
	corrupt[7] ^= 0x40

	for _, tc := range []struct {
		name string
		// client builds the dialing endpoint's codec; server the listening
		// one's, or nil for a fake peer that answers the hello with fakeAck
		// and hangs up.
		client, server func(reg *obs.Registry) transport.Codec
		fakeAck        []byte
	}{
		{name: "version skew",
			client: func(reg *obs.Registry) transport.Codec {
				return helloCodec{observed(nil, reg), hello(wire.Version+1, wire.Version+1, 0)}
			},
			server: func(reg *obs.Registry) transport.Codec { return observed(nil, reg) }},
		{name: "dictionary mismatch",
			client: func(reg *obs.Registry) transport.Codec { return observed(dictB, reg) },
			server: func(reg *obs.Registry) transport.Codec { return observed(dictA, reg) }},
		{name: "dictionary against none",
			client: func(reg *obs.Registry) transport.Codec { return observed(dictA, reg) },
			server: func(reg *obs.Registry) transport.Codec { return observed(nil, reg) }},
		{name: "legacy JSON length prefix, not a hello",
			client: func(reg *obs.Registry) transport.Codec {
				return helloCodec{observed(nil, reg), []byte{0, 0, 0, 2, '{', '}'}}
			},
			server: func(reg *obs.Registry) transport.Codec { return observed(nil, reg) }},
		{name: "garbage, not a hello",
			client: func(reg *obs.Registry) transport.Codec {
				return helloCodec{observed(nil, reg), []byte{0xde, 0xad, 0xbe, 0xef, 1, 2, 3}}
			},
			server: func(reg *obs.Registry) transport.Codec { return observed(nil, reg) }},
		{name: "corrupt hello CRC",
			client: func(reg *obs.Registry) transport.Codec { return helloCodec{observed(nil, reg), corrupt} },
			server: func(reg *obs.Registry) transport.Codec { return observed(nil, reg) }},
		{name: "truncated ack",
			client:  func(reg *obs.Registry) transport.Codec { return observed(nil, reg) },
			fakeAck: []byte("LLAB\x01")},
		{name: "peer hangs up on the hello",
			client:  func(reg *obs.Registry) transport.Codec { return observed(nil, reg) },
			fakeAck: []byte{}},
		{name: "ack of another protocol",
			client:  func(reg *obs.Registry) transport.Codec { return observed(nil, reg) },
			fakeAck: []byte("HTTP/1.1 400 Bad Request\r\n")},
	} {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			creg, sreg := obs.NewRegistry(), obs.NewRegistry()
			registry := map[string]string{"cli": "127.0.0.1:0", "srv": reservePort(t)}

			var srv transport.Endpoint
			var ln net.Listener
			fakeDone := make(chan struct{})
			if tc.server != nil {
				srvNet := transport.NewTCP(registry)
				srvNet.SetCodec(tc.server(sreg))
				var err error
				if srv, err = srvNet.Endpoint("srv"); err != nil {
					t.Fatal(err)
				}
				close(fakeDone)
			} else {
				var err error
				if ln, err = net.Listen("tcp", registry["srv"]); err != nil {
					t.Fatal(err)
				}
				go func() {
					defer close(fakeDone)
					conn, err := ln.Accept()
					if err != nil {
						return
					}
					defer conn.Close()
					if _, err := io.ReadFull(conn, make([]byte, 18)); err == nil {
						conn.Write(tc.fakeAck)
					}
				}()
			}

			cliNet := transport.NewTCP(registry)
			cliNet.SetCodec(tc.client(creg))
			cli, err := cliNet.Endpoint("cli")
			if err != nil {
				t.Fatal(err)
			}

			start := time.Now()
			err = cli.Send("srv", wire.KindStop, wire.Stop{AfterRound: 1})
			if !errors.Is(err, wire.ErrRefused) {
				t.Errorf("Send = %v, want wire.ErrRefused", err)
			}
			if d := time.Since(start); d > time.Second {
				t.Errorf("Send took %v: a refusal must not be retried", d)
			}
			if got := negotiations(creg, "refused"); got != 1 {
				t.Errorf("client counted %d refusals, want 1", got)
			}
			if got := negotiations(creg, "binary") + negotiations(sreg, "binary"); got != 0 {
				t.Errorf("%d handshakes counted as agreed", got)
			}
			if srv != nil {
				// The server counts before it answers, and the client has the
				// answer.
				if got := negotiations(sreg, "refused"); got != 1 {
					t.Errorf("server counted %d refusals, want 1", got)
				}
				select {
				case m := <-srv.Recv():
					t.Errorf("refused connection delivered %+v", m)
				default:
				}
				srv.Close()
			} else {
				ln.Close()
			}
			<-fakeDone
			cli.Close()
			for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(5 * time.Millisecond) {
				if time.Now().After(deadline) {
					buf := make([]byte, 1<<16)
					t.Fatalf("%d goroutines left, %d before:\n%s", runtime.NumGoroutine(), base, buf[:runtime.Stack(buf, true)])
				}
			}
		})
	}
}

// TestInprocCodecRoundTrip: Inproc.SetCodec pushes every delivery through
// the binary encode/decode cycle.
func TestInprocCodecRoundTrip(t *testing.T) {
	reg := obs.NewRegistry()
	n := transport.NewInproc(transport.InprocConfig{})
	n.SetCodec(observed(exchangeDict(t), reg))
	a, err := n.Endpoint("a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := n.Endpoint("b")
	if err != nil {
		t.Fatal(err)
	}
	exchange(t, a, b)
	if reg.Counter("lla_wire_frames_total", "Binary frames, by direction.", "dir", "decode").Value() == 0 {
		t.Fatal("inproc deliveries bypassed the codec")
	}
}
