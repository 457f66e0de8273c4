package byteio

import (
	"math"
	"testing"
)

// TestRoundTrip writes one of each value and reads it back exactly.
func TestRoundTrip(t *testing.T) {
	var e Enc
	e.U8(7)
	e.U32(1 << 31)
	e.U64(1<<63 + 5)
	e.Uvarint(300)
	e.Svarint(-300)
	e.F64(-2.5)
	e.Str("ab", 2)
	e.Bytes([]byte{9}, 1)
	if e.Err != nil {
		t.Fatal(e.Err)
	}
	d := Dec{Buf: e.B}
	if d.U8() != 7 || d.U32() != 1<<31 || d.U64() != 1<<63+5 || d.Uvarint() != 300 || d.Svarint() != -300 ||
		d.F64() != -2.5 || d.Str(2) != "ab" || string(d.Bytes(1)) != "\x09" {
		t.Fatal("values changed across the round trip")
	}
	if err := d.Done(); err != nil {
		t.Fatal(err)
	}
}

// TestRefusals: every malformed read latches an error, reads after it
// return zero values, and limits and non-finite floats are refused both ways.
func TestRefusals(t *testing.T) {
	var e Enc
	e.Str("abc", 2)
	if e.Err == nil {
		t.Error("encoded a string over its limit")
	}
	e = Enc{}
	e.F64(math.Inf(-1))
	if e.Err == nil {
		t.Error("encoded -Inf")
	}

	nan := Enc{}
	nan.U64(math.Float64bits(math.NaN()))
	long := Enc{}
	long.Str("abc", 8)
	for _, tc := range []struct {
		name string
		buf  []byte
		read func(d *Dec)
	}{
		{"short u64", []byte{1, 2, 3}, func(d *Dec) { d.U64() }},
		{"negative take", nil, func(d *Dec) { d.Take(-1) }},
		{"NaN", nan.B, func(d *Dec) { d.F64() }},
		{"string over limit", long.B, func(d *Dec) { d.Str(2) }},
		{"trailing bytes", []byte{1, 2}, func(d *Dec) { d.U8() }},
	} {
		d := Dec{Buf: tc.buf}
		tc.read(&d)
		if d.Done() == nil {
			t.Errorf("%s: no error", tc.name)
		}
		if d.Err != nil && (d.U8() != 0 || d.Take(0) != nil) {
			t.Errorf("%s: a read after the error returned data", tc.name)
		}
	}
}
