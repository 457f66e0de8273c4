package dist

import (
	"reflect"
	"sync"
	"testing"

	"lla/internal/core"
	"lla/internal/transport"
	"lla/internal/wire"
	"lla/internal/workload"
)

// sendRecord is one send as the network saw it; round is -1 for a payload
// that has none.
type sendRecord struct {
	to, kind string
	round    int
}

// recordingNet notes every send, per sender.
type recordingNet struct {
	transport.Network
	mu   sync.Mutex
	sent map[string][]sendRecord
}

func (n *recordingNet) Endpoint(addr string) (transport.Endpoint, error) {
	ep, err := n.Network.Endpoint(addr)
	return recordingEndpoint{ep, n}, err
}

type recordingEndpoint struct {
	transport.Endpoint
	n *recordingNet
}

func (e recordingEndpoint) Send(to, kind string, payload any) error {
	round := -1
	switch p := payload.(type) {
	case wire.PriceUpdate:
		round = p.Round
	case wire.ShareReport:
		round = p.Round
	case wire.UtilityReport:
		round = p.Round
	}
	e.n.mu.Lock()
	e.n.sent[e.Addr()] = append(e.n.sent[e.Addr()], sendRecord{to, kind, round})
	e.n.mu.Unlock()
	return e.Endpoint.Send(to, kind, payload)
}

// latencyCycle returns the destinations of a sender's latency messages up to
// the first repeat, and whether the whole sequence repeats exactly that cycle.
func latencyCycle(sent []sendRecord) (cycle []string, ok bool) {
	var dests []string
	for _, s := range sent {
		if s.kind == wire.KindLatency {
			dests = append(dests, s.to)
		}
	}
	for _, d := range dests {
		if len(cycle) > 0 && d == cycle[0] {
			break
		}
		cycle = append(cycle, d)
	}
	for i, d := range dests {
		if d != cycle[i%len(cycle)] {
			return cycle, false
		}
	}
	return cycle, len(cycle) > 0
}

// A controller's frames leave in one fixed order — its resources in order of
// first use — not in a map's: which seeded Faults draw each frame consumes
// must not differ from run to run. Two loss-free runs put the identical
// (to, kind, round) sequence on the network for every sender, and every
// controller cycles through its resources in the same order each round.
func TestLatencyFramesLeaveInFixedOrder(t *testing.T) {
	w := workload.Base()
	record := func() map[string][]sendRecord {
		net := &recordingNet{Network: transport.NewInproc(transport.InprocConfig{}), sent: make(map[string][]sendRecord)}
		rt, err := New(w, core.Config{}, net)
		if err != nil {
			t.Fatal(err)
		}
		defer rt.Close()
		rt.SetFaultPolicy(FaultPolicy{}) // no timers: every send is the protocol's own
		if _, err := rt.Run(30); err != nil {
			t.Fatal(err)
		}
		return net.sent
	}
	first := record()
	for run := 0; run < 3; run++ {
		if again := record(); !reflect.DeepEqual(first, again) {
			for addr := range first {
				if !reflect.DeepEqual(first[addr], again[addr]) {
					t.Fatalf("%s sent a different sequence on a repeat run:\n%v\n%v", addr, first[addr], again[addr])
				}
			}
		}
	}

	multi := 0
	for _, task := range w.Tasks {
		addr := controllerAddr(task.Name)
		want, ok := latencyCycle(first[addr])
		if !ok {
			t.Fatalf("%s: synchronous latency sends do not cycle: %v", addr, first[addr])
		}
		if len(want) > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Fatal("no task of the workload spans two resources: the order is not exercised")
	}
}
