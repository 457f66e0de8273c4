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

// FuzzReadFrame hardens what a TCP endpoint does with the bytes of an
// inbound connection. Whatever arrives, the reader must not panic or hang; a
// stream that does not open with a hello the endpoint's codec accepts is
// answered with the refusing ack and delivers nothing; one that does is
// acknowledged and delivers exactly the well-formed frames behind the hello,
// up to the first byte the codec rejects.
func FuzzReadFrame(f *testing.F) {
	codec := wire.NewCodec(nil)
	hello := codec.Hello()
	frame, err := codec.Encode(Message{From: "a", To: "srv", Kind: wire.KindStop, Payload: wire.Stop{AfterRound: 3}})
	if err != nil {
		f.Fatal(err)
	}
	cat := func(parts ...[]byte) []byte { return bytes.Join(parts, nil) }
	f.Add([]byte{})
	f.Add(hello)
	f.Add(cat(hello, frame))
	f.Add(cat(hello, frame, frame, frame))
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

	n := NewTCP(map[string]string{"srv": "127.0.0.1:0"})
	ep, err := n.Endpoint("srv")
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { ep.Close() })
	addr, err := n.lookup("srv")
	if err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 8<<10 {
			t.Skip("more frames than the inbox holds would block the reader, by design")
		}
		// What the stream should deliver, worked out with the codec alone.
		want := 0
		r := bufio.NewReader(bytes.NewReader(data))
		_, refused := codec.Accept(r)
		for refused == nil {
			if _, err := codec.Read(r); err != nil {
				break
			}
			want++
		}

		conn, err := net.Dial("tcp", addr)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if _, err := conn.Write(data); err != nil {
			t.Fatal(err)
		}
		// Half-close: the reader sees the end of the stream, answers and
		// hangs up, at which point everything it will deliver is queued.
		if err := conn.(*net.TCPConn).CloseWrite(); err != nil {
			t.Fatal(err)
		}
		conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		// The read may end in a reset instead of EOF (the endpoint hung up
		// with bytes of ours unread); the answer is in front of either.
		reply, err := io.ReadAll(conn)
		if len(reply) != 10 || string(reply[:4]) != "LLAB" || (reply[4] == 0) != (refused != nil) {
			t.Fatalf("answer % x (%v) to a stream the codec's verdict on is: %v", reply, err, refused)
		}
		got := 0
		for len(ep.Recv()) > 0 {
			<-ep.Recv()
			got++
		}
		if got != want {
			t.Fatalf("delivered %d messages, want %d", got, want)
		}
	})
}
