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
// name; each is encoded with testDict ("dict/<name>") and without a
// dictionary ("str/<name>").
func goldenCases() map[string]Message {
	alpha := []string{"a1", "a2"}
	return map[string]Message{
		"price":                {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: PriceUpdate{Round: 3, Resource: "cpu0", Mu: 1.25}},
		"price_congested":      {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: PriceUpdate{Round: 3, Resource: "cpu0", Mu: 1.25, Congested: true}},
		"price_delta":          {From: "res/net1", To: "ctl/beta", Kind: "price", Payload: PriceUpdate{Round: 17, Epoch: 2, Resource: "net1", Delta: true}},
		"price_seq":            {From: "res/net1", To: "ctl/beta", Kind: "price", Payload: PriceUpdate{Round: 5, Seq: 42, Resource: "net1", Mu: 0.75}},
		"price_negative_round": {From: "res/disk2", To: "ctl/beta", Kind: "price", Payload: PriceUpdate{Round: -1, Resource: "disk2", Mu: 2}},
		"price_batch": {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: []PriceUpdate{
			{Round: 1, Resource: "cpu0", Mu: 0.5},
			{Round: 1, Resource: "net1", Delta: true},
			{Round: 1, Resource: "disk2", Mu: 2.5, Congested: true, Seq: 9},
		}},
		"price_batch_one":   {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: []PriceUpdate{{Round: 2, Resource: "cpu0", Mu: 1}}},
		"price_batch_empty": {From: "res/cpu0", To: "ctl/alpha", Kind: "price", Payload: []PriceUpdate{}},
		"latency":           {From: "ctl/alpha", To: "res/cpu0", Kind: "latency", Payload: ShareReport{Round: 3, Task: "alpha", Subs: alpha, LatMs: []float64{4.5, 6.25}}},
		"latency_delta":     {From: "ctl/beta", To: "res/disk2", Kind: "latency", Payload: ShareReport{Round: 9, Epoch: 1, Task: "beta", Delta: true}},
		"latency_seq":       {From: "ctl/beta", To: "res/disk2", Kind: "latency", Payload: ShareReport{Round: 0, Seq: -7, Task: "beta", Subs: []string{"b1"}, LatMs: []float64{10}}},
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
		"price_agg":    {From: "coordinator", To: "shard/0", Kind: "priceAgg", Payload: BoundaryPrice{Round: 6, Resource: "cpu0", Mu: 2.125, Congested: true}},
		"price_agg_batch": {From: "coordinator", To: "shard/0", Kind: "priceAgg", Payload: []BoundaryPrice{
			{Round: 2, Resource: "cpu0", Mu: 1.5, Congested: true},
			{Round: 2, Resource: "net1", Mu: 0},
		}},
		"boundary":           {From: "shard/1", To: "coordinator", Kind: "boundary", Payload: BoundaryDemand{Round: 6, Shard: 1, Resource: "net1", Demand: 0.875}},
		"boundary_curvature": {From: "shard/1", To: "coordinator", Kind: "boundary", Payload: BoundaryDemand{Round: 6, Shard: 1, Resource: "net1", Demand: 0.875, Curvature: 0.25}},
		"boundary_batch": {From: "shard/3", To: "coordinator", Kind: "boundary", Payload: []BoundaryDemand{
			{Round: 2, Shard: 3, Resource: "cpu0", Demand: 0.5, Curvature: 0.125},
			{Round: 2, Shard: 3, Resource: "disk2", Demand: 1},
		}},
		"raw":        {From: "admit-client-1", To: "coordinator", Kind: "admitQuery", Payload: json.RawMessage(`{"budget":3.5,"task":"gamma"}`)},
		"raw_scalar": {From: "a", To: "b", Kind: "ping", Payload: json.RawMessage(`7`)},
		// dict/ only: a name outside the dictionary re-encodes the whole
		// frame with inline strings.
		"dict_miss": {From: "res/rogue", To: "ctl/alpha", Kind: "price", Payload: PriceUpdate{Round: 1, Resource: "rogue", Mu: 2}},
	}
}

// vector is one line of a testdata vector file.
type vector struct {
	name  string
	frame []byte
}

// readVectors parses a `<name> <hex>` file, skipping # comments.
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
		name, hexed, _ := strings.Cut(line, " ")
		frame, err := hex.DecodeString(hexed)
		if err != nil {
			t.Fatalf("%s: vector %s: %v", file, name, err)
		}
		out = append(out, vector{name, frame})
	}
	return out
}

// TestGoldenFrames proves the bytes did not move when the payload stopped
// being JSON: for every committed vector the encoder emits exactly the
// frame, and the decoder returns exactly the typed message — bit for bit,
// since re-encoding what it returned gives the frame back.
func TestGoldenFrames(t *testing.T) {
	codecs := map[string]*Codec{"dict": NewCodec(testDict(t)), "str": NewCodec(nil)}
	cases := goldenCases()
	seen := 0
	for _, v := range readVectors(t, "golden_frames.txt") {
		mode, name, _ := strings.Cut(v.name, "/")
		c, m := codecs[mode], cases[name]
		if c == nil || m.Payload == nil {
			t.Fatalf("vector %s has no codec or case", v.name)
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
	if want := 2*(len(cases)-1) + 1; seen != want {
		t.Errorf("golden_frames.txt holds %d vectors, want %d: every case in both modes, dict_miss once", seen, want)
	}
}

// TestRejectVectors: every committed malformed or over-limit frame is
// refused by both codec modes.
func TestRejectVectors(t *testing.T) {
	vectors := readVectors(t, "reject_frames.txt")
	if len(vectors) < 40 {
		t.Fatalf("reject_frames.txt holds %d vectors", len(vectors))
	}
	for _, v := range vectors {
		for mode, c := range map[string]*Codec{"dict": NewCodec(testDict(t)), "str": NewCodec(nil)} {
			if m, err := c.Read(bufio.NewReader(bytes.NewReader(v.frame))); err == nil {
				t.Errorf("%s (%s codec) decoded: %+v", v.name, mode, m)
			}
		}
	}
}

// TestCodecAllocs locks what a frame costs on the paths dist-tcp runs: with
// a dictionary, a single PRICE or LATENCY frame encodes in at most 2
// allocations (the frame; a body that outgrows the stack buffer) and decodes
// in at most 4 (the body, the payload boxed into the message, and for a
// share report its two slices).
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
		}); n > 4 {
			t.Errorf("decoding a %s frame: %v allocs, want <= 4", name, n)
		}
	}
}
