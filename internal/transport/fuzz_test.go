package transport

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"io"
	"net"
	"testing"
	"time"

	"lla/internal/wire"
)

// FuzzReadFrame hardens what a TCP listener's reader does with the bytes of
// an inbound connection. Whatever arrives, the reader must not panic or
// hang; a stream that does not open with a hello the listener's codec
// accepts is answered with the refusing ack and delivers nothing; one that
// does is acknowledged and delivers exactly the well-formed frames behind
// the hello, up to the first byte the codec rejects, each to the endpoint
// its To names, dropping those to an address with no open endpoint.
func FuzzReadFrame(f *testing.F) {
	codec := wire.NewCodec(nil)
	hello := codec.Hello()
	encode := func(to string) []byte {
		frame, err := codec.Encode(Message{From: "a", To: to, Kind: wire.KindStop, Payload: wire.Stop{AfterRound: 3}})
		if err != nil {
			f.Fatal(err)
		}
		return frame
	}
	frame, nbr, ghost := encode("srv"), encode("nbr"), encode("ghost")
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add([]byte{})
	f.Add(hello)
	f.Add(cat(hello, frame))
	f.Add(cat(hello, frame, frame, frame))
	// Frames for the neighbour and for an address with no endpoint.
	f.Add(cat(hello, nbr, frame, ghost, nbr))
	// Trailing garbage and a frame cut short stop delivery, not the process.
	f.Add(cat(hello, frame, []byte{0xde, 0xad}))
	f.Add(cat(hello, frame[:len(frame)-3]))
	// Frames without a hello, a truncated hello, a corrupt one.
	f.Add(frame)
	f.Add(hello[:7])
	f.Add(cat(hello[:9], []byte{0xff}, hello[10:], frame))
	// The legacy dialect: a big-endian length prefix and a JSON envelope.
	f.Add([]byte{0, 0, 0, 2, '{', '}'})
	// Length fields claiming far more than the stream carries.
	f.Add(cat(hello, binary.AppendUvarint([]byte{wire.FrameMagic, wire.Version, wire.FramePrice, 0}, 16<<20), []byte("xy")))
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 1, 2, 3})

	n := NewTCP(map[string]string{"srv": "127.0.0.1:0", "nbr": "127.0.0.1:0"})
	eps := make(map[string]Endpoint)
	for _, name := range []string{"srv", "nbr"} {
		ep, err := n.Endpoint(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Cleanup(func() { ep.Close() })
		eps[name] = ep
	}
	addr, err := n.lookup("srv")
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			t.Skip("more frames than an inbox holds would be dropped, by design")
		}
		// What the stream should deliver, worked out with the codec alone.
		want := make(map[string]int)
		r := bufio.NewReader(bytes.NewReader(data))
		_, refused := codec.Accept(r)
		for refused == nil {
			m, err := codec.Read(r)
			if err != nil {
				break
			}
			if eps[m.To] != nil {
				want[m.To]++
			}
		}

		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		// Half-close: the reader sees the end of the stream, answers and
		// hangs up, at which point everything it will deliver is queued. A
		// refused stream may be hung up on, and reset, before we are done.
		_, err = conn.Write(data)
		if err == nil {
			err = conn.(*net.TCPConn).CloseWrite()
		}
		if err != nil && refused == nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The read may end in a reset instead of EOF (the endpoint hung up
		// with bytes of ours unread); the answer is in front of either.
		reply, err := io.ReadAll(conn)
		if len(reply) != 10 || string(reply[:4]) != "LLAB" || (reply[4] == 0) != (refused != nil) {
			t.Fatalf("answer % x (%v) to a stream the codec's verdict on is: %v", reply, err, refused)
		}
		for name, ep := range eps {
			got := 0
			for len(ep.Recv()) > 0 {
				if m := <-ep.Recv(); m.To != name {
					t.Fatalf("%s received a frame for %q", name, m.To)
				}
				got++
			}
			if got != want[name] {
				t.Fatalf("%s: delivered %d messages, want %d", name, got, want[name])
			}
		}
	})
}
