package wire

import (
	"bufio"
	"bytes"
	"testing"
)

// FuzzDecodeFrame drives the defensive decoder with arbitrary bytes. The
// seed corpus is every committed golden and reject vector (every frame
// type, each retired encoding, each malformed and over-limit class) plus a hello
// blob; the fuzzer mutates from there. Decoding must never panic, and any
// input that does decode must re-encode and decode again to the identical
// message (canonical-form stability).
func FuzzDecodeFrame(f *testing.F) {
	d, err := NewDict(
		[]string{"cpu0", "net1", "disk2"},
		[]string{"alpha", "beta"},
		[][]string{{"a1", "a2"}, {"b1"}},
	)
	if err != nil {
		f.Fatal(err)
	}
	dictCodec, plainCodec := NewCodec(d), NewCodec(nil)
	for _, file := range []string{"golden_frames.txt", "reject_frames.txt"} {
		for _, v := range readVectors(f, file) {
			f.Add(v.frame)
		}
	}
	f.Add(dictCodec.Hello())

	f.Fuzz(func(t *testing.T, data []byte) {
		for _, c := range []*Codec{dictCodec, plainCodec} {
			msg, err := c.Read(bufio.NewReader(bytes.NewReader(data)))
			if err != nil {
				continue
			}
			// One re-encode may canonicalize (a varint the input padded, a
			// literal address the encoder would tag); after that the
			// representation must be a fixed point.
			frame, err := c.Encode(msg)
			if err != nil {
				t.Fatalf("decoded message failed to re-encode: %v", err)
			}
			canon, err := c.Read(bufio.NewReader(bytes.NewReader(frame)))
			if err != nil {
				t.Fatalf("re-encoded frame failed to decode: %v", err)
			}
			frame2, err := c.Encode(canon)
			if err != nil {
				t.Fatalf("canonical message failed to re-encode: %v", err)
			}
			again, err := c.Read(bufio.NewReader(bytes.NewReader(frame2)))
			if err != nil {
				t.Fatalf("canonical frame failed to decode: %v", err)
			}
			assertSame(t, canon, again)
		}
	})
}
