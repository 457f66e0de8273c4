package wire

import (
	"bufio"
	"bytes"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

// goldenCases are the messages behind testdata/golden_frames.txt, by vector
// name; each is encoded with testDict ("dict/<name>"). Their string-dialect
// frames are the reject vectors "<name>_str".
func goldenCases() map[string]Message {
	alpha := []string{"a1", "a2"}
	return map[string]Message{
		"price":                {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: PriceUpdate{Round: 3, Resource: "cpu0", Mu: 1.25}},
		"price_congested":      {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: PriceUpdate{Round: 3, Resource: "cpu0", Mu: 1.25, Congested: true}},
		"price_delta":          {From: "res/net1", To: "ctl/beta", Kind: "price", Payload: PriceUpdate{Round: 17, Epoch: 2, Resource: "net1", Delta: true}},
		"price_negative_round": {From: "res/disk2", To: "ctl/beta", Kind: "price", Payload: PriceUpdate{Round: -1, Resource: "disk2", Mu: 2}},
		"price_batch": {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: []PriceUpdate{
			{Round: 1, Resource: "cpu0", Mu: 0.5},
			{Round: 1, Resource: "net1", Delta: true},
			{Round: 1, Resource: "disk2", Mu: 2.5, Congested: true},
		}},
		"price_batch_one":   {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: []PriceUpdate{{Round: 2, Resource: "cpu0", Mu: 1}}},
		"price_batch_empty": {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: []PriceUpdate{}},
		"latency":           {From: "ctl/alpha", To: "res/cpu0", Kind: "latency", Payload: ShareReport{Round: 3, Task: "alpha", Subs: alpha, LatMs: []float64{4.5, 6.25}}},
		"latency_delta":     {From: "ctl/beta", To: "res/disk2", Kind: "latency", Payload: ShareReport{Round: 9, Epoch: 1, Task: "beta", Delta: true}},
		"latency_no_pairs":  {From: "ctl/alpha", To: "res/cpu0", Kind: "latency", Payload: ShareReport{Round: 2, Task: "alpha"}},
		"latency_batch": {From: "ctl/alpha", To: "res/cpu0", Kind: "latency", Payload: []ShareReport{
			{Round: 4, Task: "alpha", Subs: alpha, LatMs: []float64{1, 2}},
			{Round: 4, Task: "beta", Delta: true},
		}},
		"price_excess": {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: PriceUpdate{Round: 4, Resource: "cpu0", Mu: 1.25, Excess: 0.03125, Congested: true}},
		"report":       {From: "ctl/alpha", To: "coordinator", Kind: "report", Payload: UtilityReport{Round: 5, Epoch: 3, Task: "alpha", Utility: -12.75, KKTMax: 0.0625, PathViolation: 0.5, Excess: 0.25}},
		"stop":         {From: "coordinator", To: "res/cpu0", Kind: "stop", Payload: Stop{AfterRound: 8, Epoch: 3}},
		"fin":          {From: "res/disk2", To: "ctl/beta", Kind: "fin", Payload: Fin{Resource: "disk2"}},
		"rejoin":       {From: "coordinator", To: "ctl/alpha", Kind: "rejoin", Payload: Rejoin{Epoch: 4}},
		"rejoin_ack":   {From: "ctl/alpha", To: "coordinator", Kind: "rejoinAck", Payload: RejoinAck{Epoch: 4, Task: "alpha", Round: -1}},
		"raw":          {From: "admit-client-1", To: "coordinator", Kind: "admitQuery", Payload: json.RawMessage(`{"budget":3.5,"task":"gamma"}`)},
		"raw_scalar":   {From: "a", To: "b", Kind: "ping", Payload: json.RawMessage(`7`)},
	}
}

// vector is one line of a testdata vector file: a reject vector also states
// the refusal the codecs must name.
type vector struct {
	name, refusal string
	frame         []byte
}

// readVectors parses a `<name> <hex>[ <refusal>]` file, skipping # comments.
func readVectors(t testing.TB, file string) []vector {
	t.Helper()
	raw, err := os.ReadFile("testdata/" + file)
	if err != nil {
		t.Fatal(err)
	}
	var out []vector
	for _, line := range strings.Split(string(raw), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		name, rest, _ := strings.Cut(line, " ")
		hexed, refusal, _ := strings.Cut(rest, " ")
		frame, err := hex.DecodeString(hexed)
		if err != nil {
			t.Fatalf("%s: vector %s: %v", file, name, err)
		}
		out = append(out, vector{name, refusal, frame})
	}
	return out
}

// TestGoldenFrames proves the bytes did not move when the payload stopped
// being JSON: for every committed vector the encoder emits exactly the
// frame, and the decoder returns exactly the typed message — bit for bit,
// since re-encoding what it returned gives the frame back.
func TestGoldenFrames(t *testing.T) {
	c := NewCodec(testDict(t))
	cases := goldenCases()
	seen := 0
	for _, v := range readVectors(t, "golden_frames.txt") {
		name, ok := strings.CutPrefix(v.name, "dict/")
		m := cases[name]
		if !ok || m.Payload == nil {
			t.Fatalf("vector %s has no case", v.name)
		}
		seen++
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatalf("%s: Encode: %v", v.name, err)
		}
		if !bytes.Equal(frame, v.frame) {
			t.Errorf("%s: encoder moved the bytes:\n got %x\nwant %x", v.name, frame, v.frame)
		}
		got, err := c.Read(bufio.NewReader(bytes.NewReader(v.frame)))
		if err != nil {
			t.Fatalf("%s: Read: %v", v.name, err)
		}
		assertSame(t, m, got)
		if again, err := c.Encode(got); err != nil || !bytes.Equal(again, v.frame) {
			t.Errorf("%s: re-encoding the decoded message: %x, %v", v.name, again, err)
		}
	}
	if seen != len(cases) {
		t.Errorf("golden_frames.txt holds %d vectors, want one per case, %d", seen, len(cases))
	}
}

// TestRejectVectors: every committed malformed, over-limit or retired frame
// is refused for the reason its line states, with the test dictionary and
// with the empty one. The retired encodings — inline string ids, the PRICE
// and LATENCY sequence numbers and the fleet's PRICE_AGG and BOUNDARY frames
// — were good frames of an earlier encoder at the same version byte.
func TestRejectVectors(t *testing.T) {
	vectors := readVectors(t, "reject_frames.txt")
	if len(vectors) < 91 {
		t.Fatalf("reject_frames.txt holds %d vectors, want 91", len(vectors))
	}
	for _, v := range vectors {
		if v.refusal == "" {
			t.Fatalf("%s states no refusal", v.name)
		}
		dictWant, emptyWant, split := strings.Cut(v.refusal, " | ")
		if !split {
			emptyWant = dictWant
		}
		for _, c := range []struct {
			mode, want string
			codec      *Codec
		}{{"dict", dictWant, NewCodec(testDict(t))}, {"empty", emptyWant, NewCodec(nil)}} {
			if m, err := c.codec.Read(bufio.NewReader(bytes.NewReader(v.frame))); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("%s (%s codec): decoded %+v, err %v; want an error naming %q", v.name, c.mode, m, err, c.want)
			}
		}
	}
}

// TestRetiredEncodingsRefused: the encodings this version no longer has —
// inline string ids, the PRICE and LATENCY sequence numbers and the fleet's
// PRICE_AGG and BOUNDARY frames — were good frames of an earlier encoder at
// the same version byte. Their vectors live on in reject_frames.txt, and a
// decoder of this version refuses each with the error that names why. The
// map below is kept apart from the refusals the file's lines state, so an
// edit to a line cannot loosen what a retired frame must be refused for.
func TestRetiredEncodingsRefused(t *testing.T) {
	if Version != 2 {
		t.Fatalf("Version = %d: the retired encodings were version 2 frames", Version)
	}
	frames := make(map[string][]byte)
	for _, v := range readVectors(t, "reject_frames.txt") {
		frames[v.name] = v.frame
	}
	// An unknown type is named as such, batched or not and with or without
	// DICT: its flags are judged only once the type is known.
	const reserved, unknown, noDict = "reserved", "unknown frame type", "without the DICT flag"
	why := map[string]string{
		"price_seq_dict": reserved, "latency_seq_dict": reserved, "price_batch_seq_dict": reserved,
		"price_seq_str": noDict, "latency_seq_str": noDict, "price_batch_seq_str": noDict,
		"dict_miss_str": noDict,
	}
	for _, name := range []string{"price_agg", "price_agg_batch", "boundary", "boundary_curvature", "boundary_batch"} {
		why[name+"_dict"], why[name+"_str"] = unknown, unknown
	}
	for name := range goldenCases() {
		why[name+"_str"] = noDict
	}
	c := NewCodec(testDict(t))
	for name, want := range why {
		frame, ok := frames[name]
		if !ok {
			t.Fatalf("reject_frames.txt lacks %s", name)
		}
		if m, err := c.Read(bufio.NewReader(bytes.NewReader(frame))); err == nil || !strings.Contains(err.Error(), want) {
			t.Errorf("%s: decoded %+v, err %v; want an error naming %q", name, m, err, want)
		}
	}
}

// TestCodecAllocs locks what a frame costs on the paths dist-tcp runs: with
// a dictionary, a single PRICE or LATENCY frame encodes in at most 2
// allocations (the frame; a body that outgrows the stack buffer) and decodes
// in at most 3 (the payload boxed into the message, and for a share report
// its two slices): the frame is decoded in the reader's buffer.
func TestCodecAllocs(t *testing.T) {
	c := NewCodec(testDict(t))
	cases := goldenCases()
	for _, name := range []string{"price", "latency"} {
		m := cases[name]
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if n := testing.AllocsPerRun(200, func() {
			if _, err := c.Encode(m); err != nil {
				t.Fatal(err)
			}
		}); n > 2 {
			t.Errorf("encoding a %s frame: %v allocs, want <= 2", name, n)
		}
		src := bytes.NewReader(frame)
		r := bufio.NewReader(src)
		if n := testing.AllocsPerRun(200, func() {
			src.Reset(frame)
			r.Reset(src)
			if _, err := c.Read(r); err != nil {
				t.Fatal(err)
			}
		}); n > 3 {
			t.Errorf("decoding a %s frame: %v allocs, want <= 3", name, n)
		}
	}
}
