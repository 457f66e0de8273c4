package wire

import "lla/internal/byteio"

// Payload types: the runtime's message definitions (see the package doc),
// encoded field by field (PROTOCOL.md §4) and immutable once sent.
//
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
// and every 16th round a full keyframe goes out anyway as
// defense-in-depth. Folding a delta (keep the held value) therefore
// produces the same bits as folding the full message, and the run stays
// bitwise identical to core.Engine.
//
// Epoch fencing (DESIGN.md §7, §13). Every frame is stamped with the
// sender's coordinator epoch, the generation a restarted coordinator bumps.
// Coordinator control frames (Stop, Rejoin) and coordinator-bound ones
// (UtilityReport, RejoinAck) below the receiver's epoch are discarded and
// counted, so a zombie coordinator cannot halt nodes that rejoined the live
// one. Data frames (PriceUpdate, ShareReport) are stamped but never fenced:
// rounds gate on them, and a price retransmitted from before a crash must
// still fold after it.

// PriceUpdate is sent by a resource node to every controller with a subtask
// on the resource: the resource price and the congestion flag that drives
// the adaptive path-step heuristic. Excess is the capacity excess Σshare − B
// the price was stepped from, when positive: the resource's part of the
// round's KKT certificate. Delta marks a delta-encoded broadcast: Mu and
// Excess are not on the wire and the receiver keeps the values it folded for
// the previous round.
type PriceUpdate struct {
	Round     int
	Epoch     uint64
	Resource  string
	Mu        float64
	Excess    float64
	Congested bool
	Delta     bool
}

// ShareReport is sent by a controller to a resource node: the newly
// allocated latencies of the controller's subtasks hosted on that resource,
// LatMs[j] for the subtask named Subs[j], with Subs in strictly ascending
// order (the order they cross the wire in). Delta marks a coalesced report
// whose latencies are unchanged from the previous round (Subs and LatMs are
// not on the wire).
type ShareReport struct {
	Round int
	Epoch uint64
	Task  string
	Subs  []string
	LatMs []float64
	Delta bool
}

// UtilityReport is a controller's round, sent to the coordinator once the
// round's prices are in: the task's utility and its part of the round's KKT
// certificate (core.Certificate) — its largest Equation 7 residual, its path
// violation and the largest excess its resources' prices carried.
type UtilityReport struct {
	Round         int
	Epoch         uint64
	Task          string
	Utility       float64
	KKTMax        float64
	PathViolation float64
	Excess        float64
}

// Stop tells a node to finish after completing the given round. Nodes
// fence stale-epoch stops.
type Stop struct {
	AfterRound int
	Epoch      uint64
}

// Fin is sent by a resource node to its controllers when it has completed
// its final round. Controllers linger after their last allocation, answering
// retransmitted prices, until every resource has finned (or a quiet timeout
// elapses): without this tail handshake, a lost final-round latency message
// would strand the resource with no sender left to recover it.
type Fin struct {
	Resource string
}

// Rejoin is broadcast by a restarted coordinator: it announces the bumped
// epoch and asks every live node to re-register. Controllers answer with a
// RejoinAck and re-send their cached last report (re-stamped with the new
// epoch) so the coordinator can rebuild its aggregation state; resources
// just adopt the epoch so they fence stale stops.
type Rejoin struct {
	Epoch uint64
}

// RejoinAck is a controller's answer to a rejoin: the adopted epoch and the
// last round it reported (−1: nothing yet, hence the zigzag encoding on the
// wire), which the coordinator uses to resynchronize its emission cursor
// past the rounds whose reports died with the crash.
type RejoinAck struct {
	Epoch uint64
	Task  string
	Round int
}

// Message kinds with a dedicated frame type; any other kind rides a RAW
// frame.
const (
	KindPrice     = "price"
	KindLatency   = "latency"
	KindReport    = "report"
	KindStop      = "stop"
	KindFin       = "fin"
	KindRejoin    = "rejoin"
	KindRejoinAck = "rejoinAck"
)

// Per-entry flag bits of PRICE frames; 0x04 and 0x10 are reserved (reject
// vectors pin both).
const (
	priceFlagCongested = 0x01
	priceFlagDelta     = 0x02
	priceFlagMu        = 0x08
	priceFlagExcess    = 0x20
	priceFlagsKnown    = priceFlagCongested | priceFlagDelta | priceFlagMu | priceFlagExcess
)

// The one per-entry flag bit of LATENCY frames; 0x02 is reserved.
const latFlagDelta = 0x01

// Address tags. Endpoint addresses follow the dist naming scheme
// ("coordinator", "res/<id>", "ctl/<task>"); the tag compresses the common
// prefixes and lets the id ride the dictionary. Any other address, and one
// whose id the dictionary lacks, is a literal string.
const (
	addrCoordinator = 0x00
	addrResource    = 0x01
	addrController  = 0x02
	addrLiteral     = 0x03
)

// coordinatorName is dist's coordinator endpoint address.
const coordinatorName = "coordinator"

// frameKinds maps a frame type to the message kind it carries.
var frameKinds = [...]string{
	FramePrice:     KindPrice,
	FrameLatency:   KindLatency,
	FrameReport:    KindReport,
	FrameStop:      KindStop,
	FrameFin:       KindFin,
	FrameRejoin:    KindRejoin,
	FrameRejoinAck: KindRejoinAck,
}

// modelled reports whether a payload's Go type has a frame type of its own.
func modelled(payload any) bool {
	switch payload.(type) {
	case PriceUpdate, []PriceUpdate, ShareReport, []ShareReport,
		UtilityReport, Stop, Fin, Rejoin, RejoinAck:
		return true
	}
	return false
}

// DeltaBytesSaved is the number of frame bytes a delta marker keeps off the
// wire relative to the full entry it stands for (PROTOCOL.md §4.1, §4.2): a
// price's 8-byte mu and excess (when it has one); a share report's pair
// count and, per pair, the subtask's index varint and the 8-byte latency.
// subIdx are the share report's subtask indexes in its task's dictionary
// list, in Subs order (nil for a price). The byte the envelope's own length
// varint may shed as the body shrinks past 127 is not counted.
func DeltaBytesSaved(full any, subIdx []int) int64 {
	switch v := full.(type) {
	case PriceUpdate:
		if v.Excess > 0 {
			return 16
		}
		return 8
	case ShareReport:
		n := uvarintLen(uint64(len(subIdx)))
		for _, j := range subIdx {
			n += uvarintLen(uint64(j)) + 8
		}
		return int64(n)
	}
	return 0
}

// uvarintLen is the encoded size of v.
func uvarintLen(v uint64) int {
	n := 1
	for ; v >= 0x80; v >>= 7 {
		n++
	}
	return n
}

// Encode side ------------------------------------------------------------

// resRef appends a resource id's dictionary index.
func (c *Codec) resRef(e *byteio.Enc, id string) {
	if i, ok := c.dict.resIdx[id]; ok {
		e.Uvarint(uint64(i))
	} else {
		e.Fail("resource %q is not in the dictionary", id)
	}
}

// taskRef appends a task name's dictionary index and returns it for
// subtask resolution (-1 once the encoder has failed).
func (c *Codec) taskRef(e *byteio.Enc, name string) int {
	i, ok := c.dict.taskIdx[name]
	if !ok {
		e.Fail("task %q is not in the dictionary", name)
		return -1
	}
	e.Uvarint(uint64(i))
	return i
}

// subRef appends a subtask name's index in task ti's subtask list.
func (c *Codec) subRef(e *byteio.Enc, ti int, name string) {
	if ti < 0 {
		return // the task reference failed
	}
	if j, ok := c.dict.subIdx[ti][name]; ok {
		e.Uvarint(uint64(j))
	} else {
		e.Fail("subtask %q of task %q is not in the dictionary", name, c.dict.tasks[ti])
	}
}

// addr appends an endpoint address: tagged, with the id as a dictionary
// index when the dictionary holds it, else as a literal.
func (c *Codec) addr(e *byteio.Enc, a string) {
	if a == coordinatorName {
		e.U8(addrCoordinator)
		return
	}
	if len(a) > 4 {
		switch a[:4] {
		case "res/":
			if i, ok := c.dict.resIdx[a[4:]]; ok {
				e.U8(addrResource)
				e.Uvarint(uint64(i))
				return
			}
		case "ctl/":
			if i, ok := c.dict.taskIdx[a[4:]]; ok {
				e.U8(addrController)
				e.Uvarint(uint64(i))
				return
			}
		}
	}
	e.U8(addrLiteral)
	e.Str(a, maxStrLen)
}

// encPrice appends a PRICE body (entry count + entries).
func (c *Codec) encPrice(e *byteio.Enc, batch []PriceUpdate) {
	e.Uvarint(uint64(len(batch)))
	for i := range batch {
		p := &batch[i]
		c.resRef(e, p.Resource)
		e.Svarint(int64(p.Round))
		e.Uvarint(p.Epoch)
		var fl byte
		if p.Congested {
			fl |= priceFlagCongested
		}
		if p.Delta {
			fl |= priceFlagDelta
		}
		if !p.Delta {
			fl |= priceFlagMu
			if p.Excess > 0 {
				fl |= priceFlagExcess
			}
		}
		e.U8(fl)
		if fl&priceFlagMu != 0 {
			e.F64(p.Mu)
		}
		if fl&priceFlagExcess != 0 {
			e.F64(p.Excess)
		}
	}
}

// encLatency appends a LATENCY body. Pairs go out in the order given, which
// must be the strictly ascending subtask order the decoder insists on.
func (c *Codec) encLatency(e *byteio.Enc, batch []ShareReport) {
	e.Uvarint(uint64(len(batch)))
	for i := range batch {
		s := &batch[i]
		ti := c.taskRef(e, s.Task)
		e.Svarint(int64(s.Round))
		e.Uvarint(s.Epoch)
		var fl byte
		if s.Delta {
			fl |= latFlagDelta
		}
		e.U8(fl)
		if s.Delta {
			continue
		}
		if len(s.Subs) != len(s.LatMs) {
			e.Fail("share report of task %q names %d subtasks for %d latencies", s.Task, len(s.Subs), len(s.LatMs))
			return
		}
		e.Uvarint(uint64(len(s.Subs)))
		for j, k := range s.Subs {
			if j > 0 && k <= s.Subs[j-1] {
				e.Fail("subtask %q after %q: share report subtasks must ascend", k, s.Subs[j-1])
			}
			c.subRef(e, ti, k)
			e.F64(s.LatMs[j])
		}
	}
}

// Decode side ------------------------------------------------------------

// readResRef reads a resource id.
func (c *Codec) readResRef(d *byteio.Dec) string {
	id, _ := pick(d, c.dict.resources, "resource")
	return id
}

// readTaskRef reads a task name and its dictionary index.
func (c *Codec) readTaskRef(d *byteio.Dec) (string, int) {
	return pick(d, c.dict.tasks, "task")
}

// readSubRef reads a subtask name of task ti.
func (c *Codec) readSubRef(d *byteio.Dec, ti int) string {
	if d.Err != nil {
		return "" // ti is not an index once the task reference failed
	}
	name, _ := pick(d, c.dict.subs[ti], "subtask")
	return name
}

// readAddr reads an endpoint address.
func (c *Codec) readAddr(d *byteio.Dec) string {
	switch tag := d.U8(); tag {
	case addrCoordinator:
		return coordinatorName
	case addrResource:
		a, _ := pick(d, c.dict.resAddrs, "resource")
		return a
	case addrController:
		a, _ := pick(d, c.dict.ctlAddrs, "task")
		return a
	case addrLiteral:
		return d.Str(maxStrLen)
	default:
		d.Fail("unknown address tag 0x%02x", tag)
		return ""
	}
}

// decEntries reads an entry count and the entries behind it. A batch frame
// yields them as a slice; any other frame must hold exactly one and yields
// it bare.
func decEntries[T any](d *byteio.Dec, batch bool, entry func() T) any {
	n := d.Count(maxBatch)
	if !batch {
		if d.Err == nil && n != 1 {
			d.Fail("%d entries in an unbatched frame", n)
		}
		return entry()
	}
	out := make([]T, 0, min(n, 4096))
	for i := 0; i < n && d.Err == nil; i++ {
		out = append(out, entry())
	}
	return out
}

// decPrice reads one PRICE entry.
func (c *Codec) decPrice(d *byteio.Dec) (p PriceUpdate) {
	p.Resource = c.readResRef(d)
	p.Round = int(d.Svarint())
	p.Epoch = d.Uvarint()
	fl := d.U8()
	if fl&^priceFlagsKnown != 0 {
		d.Fail("reserved price entry flag bits 0x%02x", fl)
	}
	p.Congested = fl&priceFlagCongested != 0
	p.Delta = fl&priceFlagDelta != 0
	if (fl&priceFlagMu != 0) == p.Delta {
		// A delta carries no price; a full update always does. Any
		// other combination is not something the encoder emits.
		d.Fail("price entry flags 0x%02x: mu presence inconsistent with delta", fl)
	}
	if fl&priceFlagMu != 0 {
		p.Mu = d.F64()
	}
	// No excess is encoded by omitting the field, and a delta carries none.
	if fl&priceFlagExcess != 0 {
		if p.Excess = d.F64(); p.Delta || !(p.Excess > 0) {
			d.Fail("price entry flags 0x%02x: excess %v on a delta or not positive", fl, p.Excess)
		}
	}
	return p
}

// decLatency reads one LATENCY entry. Subtasks must arrive strictly
// ascending, which also rules out a duplicate.
func (c *Codec) decLatency(d *byteio.Dec) (s ShareReport) {
	var ti int
	s.Task, ti = c.readTaskRef(d)
	s.Round = int(d.Svarint())
	s.Epoch = d.Uvarint()
	fl := d.U8()
	if fl&^latFlagDelta != 0 {
		d.Fail("reserved latency entry flag bits 0x%02x", fl)
	}
	s.Delta = fl&latFlagDelta != 0
	if s.Delta {
		return s
	}
	if n := d.Count(maxBatch); n > 0 {
		s.Subs = make([]string, 0, min(n, 4096))
		s.LatMs = make([]float64, 0, min(n, 4096))
		for j := 0; j < n && d.Err == nil; j++ {
			k := c.readSubRef(d, ti)
			if j > 0 && k <= s.Subs[j-1] {
				d.Fail("subtask %q after %q in latency entry: duplicate or out of order", k, s.Subs[j-1])
			}
			s.Subs = append(s.Subs, k)
			s.LatMs = append(s.LatMs, d.F64())
		}
	}
	return s
}
