package transport

import (
	"testing"

	"lla/internal/wire"
)

func BenchmarkInprocRoundTrip(b *testing.B) {
	n := NewInproc(InprocConfig{QueueLen: 4})
	a, err := n.Endpoint("a")
	if err != nil {
		b.Fatal(err)
	}
	defer a.Close()
	c, err := n.Endpoint("b")
	if err != nil {
		b.Fatal(err)
	}
	defer c.Close()
	payload := wire.PriceUpdate{Resource: "cpu0", Round: 3, Mu: 1.5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send("b", wire.KindPrice, payload); err != nil {
			b.Fatal(err)
		}
		<-c.Recv()
	}
}
