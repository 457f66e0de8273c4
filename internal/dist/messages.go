// Package dist runs LLA as a genuinely distributed system (Section 4.1):
// one resource node per resource computing prices (Equation 8), one
// controller node per task allocating latencies and path prices (Equations
// 7 and 9), all communicating over a transport.Network. The protocol is
// round-synchronized, so a dist run over a loss-free network reproduces the
// synchronous core.Engine iterate-for-iterate; the test suite asserts that
// equivalence.
package dist

import "encoding/json"

// Delta codec. Near convergence the per-round payloads stop changing:
// prices freeze bitwise and so do latencies. The round-synchronized
// protocol still needs one message per edge per round (the round gate
// counts senders, not bytes), so instead of suppressing the send, a sender
// whose payload is bitwise identical to its previous round's replaces it
// with a delta marker — Delta set, the value fields omitted — meaning "same
// as my round r−1 message". The round protocol makes the reference
// well-founded without per-receiver ack maps: a resource broadcasts its
// round-r price only after folding every controller's round r−1 latencies,
// and a controller sends round-r latencies only after folding every round-r
// price, so the receiver of a round-r delta provably folded the sender's
// round r−1 value already. Retransmissions and stale recovery always
// re-send the cached full message, so a lost delta is recovered by value,
// and every deltaKeyframeInterval rounds a full keyframe goes out anyway as
// defense-in-depth. Folding a delta (keep the held value) therefore
// produces the same bits as folding the full message, and the run stays
// bitwise identical to core.Engine.

// deltaKeyframeInterval is the period of forced full-payload broadcasts:
// rounds divisible by it never use delta markers, bounding how long any
// recovery path can go without seeing a payload by value.
const deltaKeyframeInterval = 16

// encodedBytesSaved reports how many payload bytes a delta marker keeps off
// the wire relative to the full message, measured on the JSON encoding the
// transport actually ships. Returns 0 when the marker is not smaller.
func encodedBytesSaved(full, delta any) int64 {
	fb, err1 := json.Marshal(full)
	db, err2 := json.Marshal(delta)
	if err1 != nil || err2 != nil || len(fb) <= len(db) {
		return 0
	}
	return int64(len(fb) - len(db))
}

// priceMsg is sent by a resource node to every controller with a subtask on
// the resource: the resource price and the congestion flag that drives the
// adaptive path-step heuristic. Seq is a per-sender monotonic sequence number
// used by the asynchronous protocol to reject duplicated and reordered-stale
// deliveries; the round-synchronized protocol leaves it zero (round gating
// already makes folds idempotent there). Delta marks a delta-encoded
// broadcast: Mu/Congested are omitted and the receiver keeps the values it
// folded for the previous round.
type priceMsg struct {
	Round     int     `json:"round"`
	Seq       int64   `json:"seq,omitempty"`
	Epoch     uint64  `json:"epoch,omitempty"`
	Resource  string  `json:"resource"`
	Mu        float64 `json:"mu,omitempty"`
	Congested bool    `json:"congested,omitempty"`
	Delta     bool    `json:"delta,omitempty"`
}

// latencyMsg is sent by a controller to a resource node: the newly allocated
// latencies of the controller's subtasks hosted on that resource. Seq works
// like priceMsg.Seq; Delta marks a coalesced share report whose latencies
// are unchanged from the previous round (LatMs omitted).
type latencyMsg struct {
	Round int                `json:"round"`
	Seq   int64              `json:"seq,omitempty"`
	Epoch uint64             `json:"epoch,omitempty"`
	Task  string             `json:"task"`
	LatMs map[string]float64 `json:"latMs,omitempty"`
	Delta bool               `json:"delta,omitempty"`
}

// Epoch fencing (DESIGN.md §13). Every frame is stamped with the sender's
// coordinator epoch — the generation number a restarted coordinator bumps
// after loading its checkpoint. Frames are divided into two fencing classes:
//
//   - Coordinator control frames (stop, rejoin) and coordinator-bound frames
//     (report, rejoinAck) are FENCED: a receiver discards — and counts — any
//     such frame whose epoch is below its own. This is what stops a zombie
//     coordinator from split-braining the cluster: its stale stop frames are
//     provably from a dead generation and cannot halt nodes that already
//     rejoined the live one.
//   - Node-to-node data frames (price, latency) are STAMPED BUT NOT FENCED.
//     The round protocol's correctness never depended on the coordinator
//     (reports are fire-and-forget), so a price retransmitted from before the
//     crash must still be folded after it — fencing data frames would strand
//     the very recovery paths that make the run bitwise-exact.
type reportMsg struct {
	Round   int     `json:"round"`
	Epoch   uint64  `json:"epoch,omitempty"`
	Task    string  `json:"task"`
	Utility float64 `json:"utility"`
}

// stopMsg tells a node to finish after completing the given round. Nodes
// fence stale-epoch stops (see the epoch-fencing comment above).
type stopMsg struct {
	AfterRound int    `json:"afterRound"`
	Epoch      uint64 `json:"epoch,omitempty"`
}

// rejoinMsg is broadcast by a restarted coordinator: it announces the bumped
// epoch and asks every live node to re-register. Controllers answer with a
// rejoinAckMsg and re-send their cached last report (re-stamped with the new
// epoch) so the coordinator can rebuild its aggregation state; resources just
// adopt the epoch so they fence stale stops.
type rejoinMsg struct {
	Epoch uint64 `json:"epoch"`
}

// rejoinAckMsg is a controller's answer to a rejoin: the adopted epoch and
// the last round it reported, which the coordinator uses to resynchronize
// its emission cursor past the rounds whose reports died with the crash.
type rejoinAckMsg struct {
	Epoch uint64 `json:"epoch"`
	Task  string `json:"task"`
	Round int    `json:"round"`
}

// finMsg is sent by a resource node to its controllers when it has completed
// its final round. Controllers linger after their last allocation, answering
// retransmitted prices, until every resource has finned (or a quiet timeout
// elapses): without this tail handshake, a lost final-round latency message
// would strand the resource with no sender left to recover it.
type finMsg struct {
	Resource string `json:"resource"`
}

// Message kind tags.
const (
	kindPrice         = "price"
	kindLatency       = "latency"
	kindReport        = "report"
	kindStop          = "stop"
	kindFin           = "fin"
	kindAdmitQuery    = "admitQuery"
	kindAdmitDecision = "admitDecision"
	kindRejoin        = "rejoin"
	kindRejoinAck     = "rejoinAck"
)

// Address helpers: resources and controllers get deterministic names.
func resourceAddr(id string) string  { return "res/" + id }
func controllerAddr(t string) string { return "ctl/" + t }

// coordinatorAddr is the runtime's aggregation endpoint.
const coordinatorAddr = "coordinator"
