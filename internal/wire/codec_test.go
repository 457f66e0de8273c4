package wire

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"

	"lla/internal/byteio"
	"lla/internal/obs"
)

// testDict builds the dictionary the round-trip tests share.
func testDict(t *testing.T) *Dict {
	t.Helper()
	d, err := NewDict(
		[]string{"cpu0", "net1", "disk2"},
		[]string{"alpha", "beta"},
		[][]string{{"a1", "a2"}, {"b1"}},
	)
	if err != nil {
		t.Fatalf("NewDict: %v", err)
	}
	return d
}

// msg builds the envelope a Send would: a payload with a frame type as it
// is, anything else as its JSON.
func msg(t testing.TB, from, to, kind string, payload any) Message {
	t.Helper()
	m, err := NewMessage(from, to, kind, payload)
	if err != nil {
		t.Fatalf("NewMessage: %v", err)
	}
	return m
}

// corpus returns one message per frame type (all names in testDict), plus
// delta/congested variants.
func corpus(t testing.TB) []Message {
	return []Message{
		msg(t, "res/cpu0", "ctl/alpha", "price", PriceUpdate{Round: 3, Resource: "cpu0", Mu: 1.25, Congested: true}),
		msg(t, "res/net1", "ctl/beta", "price", PriceUpdate{Round: 17, Epoch: 2, Resource: "net1", Delta: true}),
		msg(t, "ctl/alpha", "res/cpu0", "latency", ShareReport{Round: 3, Task: "alpha", Subs: []string{"a1", "a2"}, LatMs: []float64{4.5, 6.25}}),
		msg(t, "ctl/beta", "res/disk2", "latency", ShareReport{Round: 9, Epoch: 1, Task: "beta", Delta: true}),
		msg(t, "ctl/alpha", "coordinator", "report", UtilityReport{Round: 5, Epoch: 3, Task: "alpha", Utility: -12.75}),
		msg(t, "coordinator", "res/cpu0", "stop", Stop{AfterRound: 8, Epoch: 3}),
		msg(t, "res/disk2", "ctl/beta", "fin", Fin{Resource: "disk2"}),
		msg(t, "coordinator", "ctl/alpha", "rejoin", Rejoin{Epoch: 4}),
		msg(t, "ctl/alpha", "coordinator", "rejoinAck", RejoinAck{Epoch: 4, Task: "alpha", Round: -1}),
		msg(t, "admit-client-1", "coordinator", "admitQuery", map[string]any{"task": "gamma", "budget": 3.5}),
	}
}

// roundTrip encodes and decodes one message.
func roundTrip(t testing.TB, c *Codec, m Message) Message {
	t.Helper()
	frame, err := c.Encode(m)
	if err != nil {
		t.Fatalf("Encode(%s): %v", m.Kind, err)
	}
	out, err := c.Read(bufio.NewReader(bytes.NewReader(frame)))
	if err != nil {
		t.Fatalf("Read(%s): %v", m.Kind, err)
	}
	return out
}

// assertSame requires an exact message round trip: routing fields equal and
// the payload the same Go value, type included (a bare entry stays bare, a
// slice a slice).
func assertSame(t testing.TB, want, got Message) {
	t.Helper()
	if got.From != want.From || got.To != want.To || got.Kind != want.Kind {
		t.Fatalf("envelope mismatch: got %s->%s %q want %s->%s %q",
			got.From, got.To, got.Kind, want.From, want.To, want.Kind)
	}
	if !reflect.DeepEqual(got.Payload, want.Payload) {
		t.Fatalf("payload mismatch for %s:\n got %#v\nwant %#v", want.Kind, got.Payload, want.Payload)
	}
}

// TestRoundTripAllKinds round-trips every frame type, once between the
// dictionary's endpoints and once between endpoints it does not hold, whose
// addresses ride as literals.
func TestRoundTripAllKinds(t *testing.T) {
	c := NewCodec(testDict(t))
	for _, mode := range []struct {
		name string
		addr func(string) string
	}{
		{"dict", func(a string) string { return a }},
		{"literal", func(a string) string { return a + "-standby" }},
	} {
		t.Run(mode.name, func(t *testing.T) {
			for _, m := range corpus(t) {
				m.From, m.To = mode.addr(m.From), mode.addr(m.To)
				assertSame(t, m, roundTrip(t, c, m))
			}
		})
	}
}

func TestRoundTripBatched(t *testing.T) {
	c := NewCodec(testDict(t))
	batchPrice := msg(t, "res/cpu0", "ctl/alpha", "price", []PriceUpdate{
		{Round: 1, Resource: "cpu0", Mu: 0.5},
		{Round: 1, Resource: "net1", Delta: true},
		{Round: 1, Resource: "disk2", Mu: 2.5, Congested: true},
	})
	assertSame(t, batchPrice, roundTrip(t, c, batchPrice))

	single := msg(t, "res/cpu0", "ctl/alpha", "price", []PriceUpdate{{Round: 2, Resource: "cpu0", Mu: 1}})
	assertSame(t, single, roundTrip(t, c, single)) // a 1-element slice stays a slice

	empty := msg(t, "res/cpu0", "ctl/alpha", "price", []PriceUpdate{})
	assertSame(t, empty, roundTrip(t, c, empty))

	batchLat := msg(t, "ctl/alpha", "res/cpu0", "latency", []ShareReport{
		{Round: 4, Task: "alpha", Subs: []string{"a1", "a2"}, LatMs: []float64{1, 2}},
		{Round: 4, Task: "beta", Delta: true},
	})
	assertSame(t, batchLat, roundTrip(t, c, batchLat))
}

// TestBatchedPriceFrameTenTimesSmaller pins the size the protocol was
// built for: 64 price updates as one dictionary-mode batch frame against the
// 8 772 bytes the same updates took as 64 length-prefixed JSON frames, the
// dialect this codec replaced (measured at commit 97d47d5, the last that had
// it).
func TestBatchedPriceFrameTenTimesSmaller(t *testing.T) {
	const legacyJSONBytes = 8772
	resources := make([]string, 64)
	batch := make([]PriceUpdate, 64)
	for i := range batch {
		resources[i] = "res-" + strings.Repeat("x", 2) + string(rune('a'+i%26)) + string(rune('a'+i/26))
		batch[i] = PriceUpdate{Round: 1000 + i, Epoch: 3, Resource: resources[i], Mu: 0.5 + float64(i)/7}
	}
	d, err := NewDict(resources, []string{"alpha"}, [][]string{{}})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCodec(d)
	frame, err := c.Encode(msg(t, "res/"+resources[0], "ctl/alpha", "price", batch))
	if err != nil {
		t.Fatal(err)
	}
	if 10*len(frame) > legacyJSONBytes {
		t.Fatalf("binary batch frame %dB not >=10x smaller than the %dB of JSON frames it replaced", len(frame), legacyJSONBytes)
	}
}

func TestTruncatedFramesError(t *testing.T) {
	c := NewCodec(testDict(t))
	for _, m := range corpus(t) {
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < len(frame); i++ {
			if _, err := c.Read(bufio.NewReader(bytes.NewReader(frame[:i]))); err == nil {
				t.Fatalf("%s frame truncated to %d/%d bytes decoded successfully", m.Kind, i, len(frame))
			}
		}
	}
}

// reseal recomputes the CRC trailer after a test mutates frame bytes.
func reseal(frame []byte) {
	binary.LittleEndian.PutUint32(frame[len(frame)-4:], crc32.ChecksumIEEE(frame[:len(frame)-4]))
}

func TestCorruptFramesError(t *testing.T) {
	c := NewCodec(testDict(t))
	m := corpus(t)[0]
	frame, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(frame); i++ {
		for _, flip := range []byte{0x01, 0x80} {
			mut := append([]byte(nil), frame...)
			mut[i] ^= flip
			if _, err := c.Read(bufio.NewReader(bytes.NewReader(mut))); err == nil {
				t.Fatalf("frame with byte %d flipped by %#x decoded successfully", i, flip)
			}
		}
	}
}

func TestExtremeIntegerFieldsRoundTrip(t *testing.T) {
	c := NewCodec(testDict(t))
	m := msg(t, "res/"+strings.Repeat("r", 300), "ctl/alpha", "price", PriceUpdate{
		Round:    math.MaxInt64,
		Epoch:    math.MaxUint64,
		Resource: "disk2",
		Mu:       math.MaxFloat64,
	})
	assertSame(t, m, roundTrip(t, c, m))

	ack := msg(t, "ctl/alpha", "coordinator", "rejoinAck", RejoinAck{Epoch: math.MaxUint64, Task: "alpha", Round: math.MinInt64})
	assertSame(t, ack, roundTrip(t, c, ack))
}

func TestOversizeStringRejected(t *testing.T) {
	c := NewCodec(testDict(t))
	long := strings.Repeat("x", maxStrLen+1)
	if _, err := c.Encode(msg(t, "res/"+long, "ctl/alpha", "fin", Fin{Resource: "cpu0"})); err == nil {
		t.Fatal("oversize literal address encoded successfully")
	}
}

func TestDictIndexOutOfRangeRejected(t *testing.T) {
	big := testDict(t) // 3 resources
	small, err := NewDict([]string{"cpu0"}, []string{"alpha", "beta"}, nil)
	if err != nil {
		t.Fatal(err)
	}
	frame, err := NewCodec(big).Encode(corpus(t)[1]) // resource net1 = index 1
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewCodec(small).Read(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatal("frame with out-of-range dictionary index decoded successfully")
	}
	// A dictionary with no tasks at all must refuse a task index, not index
	// into nothing.
	noTasks, err := NewDict([]string{"cpu0", "net1", "disk2"}, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range corpus(t)[:5] {
		frame, err := NewCodec(big).Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := NewCodec(noTasks).Read(bufio.NewReader(bytes.NewReader(frame))); err == nil {
			t.Fatalf("%s frame naming a task decoded against a dictionary without tasks", m.Kind)
		}
	}
	// The empty dictionary refuses every index.
	if _, err := NewCodec(nil).Read(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatal("the empty dictionary decoded a frame naming a resource")
	}
}

func TestNonFiniteFloatsRejected(t *testing.T) {
	e := &byteio.Enc{}
	e.F64(math.NaN())
	if e.Err == nil {
		t.Fatal("encoder accepted NaN")
	}
	e = &byteio.Enc{}
	e.F64(math.Inf(1))
	if e.Err == nil {
		t.Fatal("encoder accepted +Inf")
	}

	// Craft a frame whose mu bits are NaN: encode mu=1.5 (a bit pattern
	// that appears exactly once) and overwrite it.
	c := NewCodec(testDict(t))
	frame, err := c.Encode(msg(t, "res/cpu0", "ctl/alpha", "price", PriceUpdate{Round: 1, Resource: "cpu0", Mu: 1.5}))
	if err != nil {
		t.Fatal(err)
	}
	var pat [8]byte
	binary.LittleEndian.PutUint64(pat[:], math.Float64bits(1.5))
	i := bytes.Index(frame, pat[:])
	if i < 0 {
		t.Fatal("mu bit pattern not found in frame")
	}
	binary.LittleEndian.PutUint64(frame[i:], math.Float64bits(math.NaN()))
	reseal(frame)
	if _, err := c.Read(bufio.NewReader(bytes.NewReader(frame))); err == nil || !strings.Contains(err.Error(), "non-finite") {
		t.Fatalf("NaN price decoded: err=%v", err)
	}
}

func TestReservedFlagBitsRejected(t *testing.T) {
	c := NewCodec(testDict(t))
	frame, err := c.Encode(corpus(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	frame[3] |= 0x80
	reseal(frame)
	if _, err := c.Read(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatal("reserved flag bit accepted")
	}
}

func TestUnknownFrameTypeRejected(t *testing.T) {
	c := NewCodec(testDict(t))
	frame, err := c.Encode(corpus(t)[0])
	if err != nil {
		t.Fatal(err)
	}
	frame[2] = 0x7E
	reseal(frame)
	if _, err := c.Read(bufio.NewReader(bytes.NewReader(frame))); err == nil {
		t.Fatal("unknown frame type accepted")
	}
}

// TestUnknownFieldsRideRaw: a payload type the protocol has no frame type
// for — here a price-shaped struct with a field no frame carries, sent under
// a modelled kind — is marshalled once, rides a RAW frame verbatim rather
// than losing the field, and arrives as the JSON it was sent as.
func TestUnknownFieldsRideRaw(t *testing.T) {
	type futurePrice struct {
		Round       int     `json:"round"`
		Resource    string  `json:"resource"`
		Mu          float64 `json:"mu"`
		FutureField bool    `json:"futureField"`
	}
	want := futurePrice{Round: 1, Resource: "cpu0", Mu: 1, FutureField: true}
	c := NewCodec(testDict(t))
	m := msg(t, "res/cpu0", "ctl/alpha", "price", want)
	frame, err := c.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	if frame[2] != FrameRaw {
		t.Fatalf("unmodelled payload used frame type 0x%02x, want RAW", frame[2])
	}
	back := roundTrip(t, c, m)
	assertSame(t, m, back)
	var got futurePrice
	if raw, ok := back.Payload.(json.RawMessage); !ok || json.Unmarshal(raw, &got) != nil || got != want {
		t.Fatalf("RAW round trip delivered %#v; want the JSON of %+v", back.Payload, want)
	}
}

// TestEncodeRejectsMismatchedMessages: the frame type comes from the
// payload's Go type, so a kind that is not that type's, a payload that is
// neither a frame type nor JSON, and a malformed share report are errors.
func TestEncodeRejectsMismatchedMessages(t *testing.T) {
	c := NewCodec(testDict(t))
	for name, m := range map[string]Message{
		"kind of another type": {From: "res/cpu0", To: "ctl/alpha", Kind: "latency", Payload: PriceUpdate{Resource: "cpu0"}},
		"unmarshalled value":   {From: "a", To: "b", Kind: "ping", Payload: 7},
		"subs without lats":    {From: "ctl/alpha", To: "res/cpu0", Kind: "latency", Payload: ShareReport{Task: "alpha", Subs: []string{"a1"}}},
		"descending subs":      {From: "ctl/alpha", To: "res/cpu0", Kind: "latency", Payload: ShareReport{Task: "alpha", Subs: []string{"a2", "a1"}, LatMs: []float64{1, 2}}},
		"duplicate subs":       {From: "ctl/alpha", To: "res/cpu0", Kind: "latency", Payload: ShareReport{Task: "alpha", Subs: []string{"a1", "a1"}, LatMs: []float64{1, 2}}},
	} {
		if frame, err := c.Encode(m); err == nil {
			t.Errorf("%s: encoded to % x", name, frame)
		}
	}
}

// TestOutOfDictionaryIDs: an endpoint address the dictionary lacks rides as
// a literal and round-trips; a payload id it lacks fails the encode with an
// error naming the id, and an empty dictionary holds no id at all.
func TestOutOfDictionaryIDs(t *testing.T) {
	c := NewCodec(testDict(t))
	literal := msg(t, "res/rogue", "ctl/gamma", "stop", Stop{AfterRound: 1})
	frame, err := c.Encode(literal)
	if err != nil {
		t.Fatal(err)
	}
	if frame[3]&flagDict == 0 {
		t.Fatal("DICT clear on a frame with literal addresses")
	}
	assertSame(t, literal, roundTrip(t, c, literal))
	for id, m := range map[string]Message{
		`resource "rogue"`: msg(t, "res/cpu0", "ctl/alpha", "price", PriceUpdate{Round: 1, Resource: "rogue", Mu: 2}),
		`task "gamma"`:     msg(t, "ctl/alpha", "res/cpu0", "latency", ShareReport{Round: 1, Task: "gamma", Subs: []string{"g1"}, LatMs: []float64{3}}),
		`subtask "a9"`:     msg(t, "ctl/alpha", "res/cpu0", "latency", ShareReport{Round: 1, Task: "alpha", Subs: []string{"a9"}, LatMs: []float64{3}}),
		`task "delta"`:     msg(t, "ctl/alpha", "coordinator", "report", UtilityReport{Round: 1, Task: "delta"}),
		`resource "tape3"`: msg(t, "res/cpu0", "ctl/alpha", "fin", Fin{Resource: "tape3"}),
	} {
		if frame, err := c.Encode(m); err == nil || !strings.Contains(err.Error(), id) {
			t.Errorf("%s: encoded % x, err %v; want an error naming %s", m.Kind, frame, err, id)
		}
	}
	if _, err := NewCodec(nil).Encode(corpus(t)[0]); err == nil || !strings.Contains(err.Error(), `resource "cpu0"`) {
		t.Errorf("the empty dictionary encoded a price, err %v", err)
	}
}

// TestHostileBodyLengthAllocation: a huge declared body length on a
// truncated stream must not allocate the declared size up front.
func TestHostileBodyLengthAllocation(t *testing.T) {
	hdr := []byte{FrameMagic, Version, FramePrice, 0}
	hdr = binary.AppendUvarint(hdr, maxBodyBytes) // claims 16 MiB, delivers none
	c := NewCodec(nil)
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := c.Read(bufio.NewReader(bytes.NewReader(hdr))); err == nil {
			t.Fatal("truncated hostile frame decoded")
		}
	})
	// bufio.Reader + bytes.Reader + error wrapping stay small; a 16 MiB
	// up-front allocation would dwarf this bound.
	if allocs > 20 {
		t.Fatalf("hostile length triggered %v allocations per read", allocs)
	}
}

func TestWireMetricsCount(t *testing.T) {
	reg := obs.NewRegistry()
	c := NewCodec(testDict(t))
	c.Observe(reg)
	for _, m := range corpus(t) {
		roundTrip(t, c, m)
	}
	m := c.m
	if n := m.FramesEncoded.Value(); n != int64(len(corpus(t))) {
		t.Fatalf("FramesEncoded = %d, want %d", n, len(corpus(t)))
	}
	if m.FramesDecoded.Value() != m.FramesEncoded.Value() {
		t.Fatalf("decoded %d != encoded %d", m.FramesDecoded.Value(), m.FramesEncoded.Value())
	}
	if m.RawFrames.Value() != 1 { // the admitQuery corpus entry
		t.Fatalf("RawFrames = %d, want 1", m.RawFrames.Value())
	}
	if m.BytesEncoded.Value() == 0 || m.BytesDecoded.Value() != m.BytesEncoded.Value() {
		t.Fatalf("byte counters inconsistent: enc %d dec %d", m.BytesEncoded.Value(), m.BytesDecoded.Value())
	}
	if _, err := c.Read(bufio.NewReader(bytes.NewReader([]byte{0xFF, 0, 0, 0, 0}))); err == nil {
		t.Fatal("garbage decoded")
	}
	if m.DecodeErrors.Value() != 1 {
		t.Fatalf("DecodeErrors = %d, want 1", m.DecodeErrors.Value())
	}
}

// TestStreamedFrames reads several frames back-to-back from one reader,
// the way a connection read loop does.
func TestStreamedFrames(t *testing.T) {
	c := NewCodec(testDict(t))
	var stream bytes.Buffer
	for _, m := range corpus(t) {
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		stream.Write(frame)
	}
	br := bufio.NewReader(&stream)
	for _, want := range corpus(t) {
		got, err := c.Read(br)
		if err != nil {
			t.Fatal(err)
		}
		assertSame(t, want, got)
	}
	if _, err := c.Read(br); err == nil {
		t.Fatal("read past end of stream succeeded")
	}
}

// TestDeltaBytesSavedMatchesFrames: the figure dist reports for a delta
// marker is the difference between two real frames — the full message and
// its marker — as the dictionary codec ships them, a subtask index past 127
// taking two bytes.
func TestDeltaBytesSavedMatchesFrames(t *testing.T) {
	subs := []string{"a1", "a2"}
	for i := len(subs); i < 200; i++ {
		subs = append(subs, fmt.Sprintf("stage-%03d", i))
	}
	d, err := NewDict([]string{"cpu0"}, []string{"alpha"}, [][]string{subs})
	if err != nil {
		t.Fatal(err)
	}
	c := NewCodec(d)
	size := func(m Message) int64 {
		frame, err := c.Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		return int64(len(frame))
	}
	price := PriceUpdate{Round: 9, Epoch: 1, Resource: "cpu0", Mu: 1.25, Congested: true}
	marker := PriceUpdate{Round: 9, Epoch: 1, Resource: "cpu0", Congested: true, Delta: true}
	if got, want := DeltaBytesSaved(price, nil), size(msg(t, "res/cpu0", "ctl/alpha", "price", price))-size(msg(t, "res/cpu0", "ctl/alpha", "price", marker)); got != want {
		t.Errorf("price marker: DeltaBytesSaved = %d, frames differ by %d", got, want)
	}
	report := ShareReport{Round: 9, Task: "alpha", Subs: []string{"a1", "a2", "stage-150"}, LatMs: []float64{1, 2, 3}}
	if got, want := DeltaBytesSaved(report, []int{0, 1, 150}), size(msg(t, "ctl/alpha", "res/cpu0", "latency", report))-size(msg(t, "ctl/alpha", "res/cpu0", "latency", ShareReport{Round: 9, Task: "alpha", Delta: true})); got != want {
		t.Errorf("share marker: DeltaBytesSaved = %d, frames differ by %d", got, want)
	}
}

// inPlaceStream encodes a mix of PRICE, LATENCY and RAW frames, small ones
// and ones larger than a 64-byte reader, so that a small reader decodes
// some in its buffer, some across a refill and some through a separate
// read.
func inPlaceStream(t *testing.T, c *Codec) []byte {
	t.Helper()
	var batch []PriceUpdate
	for i := range 12 {
		batch = append(batch, PriceUpdate{Round: i, Resource: []string{"cpu0", "net1", "disk2"}[i%3], Mu: float64(i) + 0.5})
	}
	big := strings.Repeat("x", 200)
	msgs := []Message{
		msg(t, "res/cpu0", "ctl/alpha", "price", PriceUpdate{Round: 3, Resource: "cpu0", Mu: 1.25}),
		msg(t, "ctl/alpha", "res/cpu0", "latency", ShareReport{Round: 3, Task: "alpha", Subs: []string{"a1", "a2"}, LatMs: []float64{4.5, 6.25}}),
		msg(t, "a", "b", "ping", 7),
		msg(t, "res/cpu0", "ctl/alpha", "price", batch),
		msg(t, "admit-client-1", "coordinator", "admitQuery", map[string]any{"task": big}),
		msg(t, "ctl/beta", "res/disk2", "latency", ShareReport{Round: 9, Epoch: 1, Task: "beta", Delta: true}),
		msg(t, "admit-client-1", "coordinator", "admitQuery", map[string]any{"task": "gamma", "budget": 3.5}),
	}
	var stream []byte
	for range 5 {
		for _, m := range msgs {
			frame, err := c.Encode(m)
			if err != nil {
				t.Fatal(err)
			}
			stream = append(stream, frame...)
		}
	}
	return stream
}

// TestReadInPlaceThroughSmallReader: through a 64-byte reader, where frames
// straddle refills and some exceed the buffer, every frame decodes to what
// a default-sized reader returns for it.
func TestReadInPlaceThroughSmallReader(t *testing.T) {
	c := NewCodec(testDict(t))
	stream := inPlaceStream(t, c)
	small := bufio.NewReaderSize(bytes.NewReader(stream), 64)
	ref := bufio.NewReader(bytes.NewReader(stream))
	var n int
	for ; ; n++ {
		want, werr := c.Read(ref)
		got, gerr := c.Read(small)
		if werr != nil || gerr != nil {
			if werr != io.EOF || gerr != io.EOF {
				t.Fatalf("frame %d: small reader err %v, default reader err %v", n, gerr, werr)
			}
			break
		}
		assertSame(t, want, got)
	}
	if n != 35 {
		t.Fatalf("read %d frames, want 35", n)
	}
}

// TestRawPayloadOutlivesNextRead: a RAW frame's payload is its own copy,
// not a view of the reader's buffer, which the next read refills.
func TestRawPayloadOutlivesNextRead(t *testing.T) {
	c := NewCodec(testDict(t))
	r := bufio.NewReaderSize(bytes.NewReader(inPlaceStream(t, c)), 64)
	var raws []json.RawMessage
	var copies [][]byte
	for {
		m, err := c.Read(r)
		if err == io.EOF {
			break
		} else if err != nil {
			t.Fatal(err)
		}
		if raw, ok := m.Payload.(json.RawMessage); ok {
			raws, copies = append(raws, raw), append(copies, bytes.Clone(raw))
		}
	}
	if len(raws) != 15 {
		t.Fatalf("%d RAW frames, want 15", len(raws))
	}
	for i := range raws {
		if !bytes.Equal(raws[i], copies[i]) {
			t.Fatalf("RAW payload %d changed after later reads: %q, was %q", i, raws[i], copies[i])
		}
	}
}
