package wire

// Payload types. These structs are the runtime's message definitions, not
// mirrors of them: internal/dist builds and type-switches on these values
// and the codec encodes them field by field (PROTOCOL.md §4), so there is
// one definition between a node loop and the socket. A payload is immutable
// once sent: networks may deliver the same value more than once, later, and
// to another goroutine.
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
// Epoch fencing (DESIGN.md §13). Every frame is stamped with the sender's
// coordinator epoch — the generation number a restarted coordinator bumps
// after loading its checkpoint. Frames are divided into two fencing classes:
//
//   - Coordinator control frames (Stop, Rejoin) and coordinator-bound frames
//     (UtilityReport, RejoinAck) are FENCED: a receiver discards — and
//     counts — any such frame whose epoch is below its own. This is what
//     stops a zombie coordinator from split-braining the cluster: its stale
//     stop frames are provably from a dead generation and cannot halt nodes
//     that already rejoined the live one.
//   - Node-to-node data frames (PriceUpdate, ShareReport) are STAMPED BUT
//     NOT FENCED. The round protocol's correctness never depended on the
//     coordinator (reports are fire-and-forget), so a price retransmitted
//     from before the crash must still be folded after it — fencing data
//     frames would strand the very recovery paths that make the run
//     bitwise-exact.

// PriceUpdate is sent by a resource node to every controller with a subtask
// on the resource: the resource price and the congestion flag that drives
// the adaptive path-step heuristic. Seq is a per-sender monotonic sequence
// number used by the asynchronous protocol to reject duplicated and
// reordered-stale deliveries; the round-synchronized protocol leaves it zero
// (round gating already makes folds idempotent there). Excess is the
// capacity excess Σshare − B the price was stepped from, when positive: the
// resource's part of the round's KKT certificate. Delta marks a delta-encoded
// broadcast: Mu and Excess are not on the wire and the receiver keeps the
// values it folded for the previous round.
type PriceUpdate struct {
	Round     int
	Seq       int64
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
// order (the order they cross the wire in). Seq works like PriceUpdate.Seq;
// Delta marks a coalesced report whose latencies are unchanged from the
// previous round (Subs and LatMs are not on the wire).
type ShareReport struct {
	Round int
	Seq   int64
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

// BoundaryPrice is one entry of the fleet aggregator's boundary-price
// broadcast (SHARDING.md): the externally owned price and congestion flag a
// shard must pin on a cross-shard resource for the next local sweep.
type BoundaryPrice struct {
	Round     int
	Resource  string
	Mu        float64
	Congested bool
}

// BoundaryDemand is one entry of a shard's boundary report: the shard's
// local share demand (and optionally demand-response curvature, for the
// diagonal-Newton aggregator) on a cross-shard resource after a local sweep.
type BoundaryDemand struct {
	Round     int
	Shard     int
	Resource  string
	Demand    float64
	Curvature float64
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
	KindPriceAgg  = "priceAgg"
	KindBoundary  = "boundary"
)

// Per-entry flag bits of PRICE frames.
const (
	priceFlagCongested = 0x01
	priceFlagDelta     = 0x02
	priceFlagSeq       = 0x04
	priceFlagMu        = 0x08
	priceFlagExcess    = 0x20 // 0x10 stays reserved (a reject vector pins it)
	priceFlagsKnown    = priceFlagCongested | priceFlagDelta | priceFlagSeq | priceFlagMu | priceFlagExcess
)

// Per-entry flag bits of LATENCY frames.
const (
	latFlagDelta  = 0x01
	latFlagSeq    = 0x02
	latFlagsKnown = latFlagDelta | latFlagSeq
)

// Per-entry flag bits of PRICE_AGG frames.
const (
	aggFlagCongested = 0x01
	aggFlagsKnown    = aggFlagCongested
)

// Per-entry flag bits of BOUNDARY frames.
const (
	bdyFlagCurvature = 0x01
	bdyFlagsKnown    = bdyFlagCurvature
)

// Address tags. Endpoint addresses follow the dist naming scheme
// ("coordinator", "res/<id>", "ctl/<task>"); the tag compresses the common
// prefixes and lets the id ride the dictionary. Any other address is a
// literal string.
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
	FramePriceAgg:  KindPriceAgg,
	FrameBoundary:  KindBoundary,
}

// modelled reports whether a payload's Go type has a frame type of its own.
func modelled(payload any) bool {
	switch payload.(type) {
	case PriceUpdate, []PriceUpdate, ShareReport, []ShareReport,
		UtilityReport, Stop, Fin, Rejoin, RejoinAck,
		BoundaryPrice, []BoundaryPrice, BoundaryDemand, []BoundaryDemand:
		return true
	}
	return false
}

// DeltaBytesSaved is the number of frame bytes a delta marker keeps off the
// wire relative to the full entry it stands for (PROTOCOL.md §4.1, §4.2): a
// price's 8-byte mu and excess (when it has one); a share report's pair
// count and, per pair, the subtask reference and the 8-byte latency.
// References are sized as inline strings, what a dictionary-less connection
// ships; against a dictionary each name is its index varint instead. The
// byte the envelope's own length varint may shed as the body shrinks past
// 127 is not counted.
func DeltaBytesSaved(full any) int64 {
	switch v := full.(type) {
	case PriceUpdate:
		if v.Excess > 0 {
			return 16
		}
		return 8
	case ShareReport:
		n := uvarintLen(uint64(len(v.Subs)))
		for _, s := range v.Subs {
			n += uvarintLen(uint64(len(s))) + len(s) + 8
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

// resRef appends a resource id, as a dictionary index in dict mode.
func (c *Codec) resRef(e *enc, id string, dict bool) {
	if dict {
		i, ok := c.dict.resIdx[id]
		if !ok {
			e.setErr(errDictMiss)
			return
		}
		e.uvarint(uint64(i))
		return
	}
	e.str(id)
}

// taskRef appends a task name and returns its dictionary index (-1 in
// string mode) for subtask resolution.
func (c *Codec) taskRef(e *enc, name string, dict bool) int {
	if dict {
		i, ok := c.dict.taskIdx[name]
		if !ok {
			e.setErr(errDictMiss)
			return -1
		}
		e.uvarint(uint64(i))
		return i
	}
	e.str(name)
	return -1
}

// subRef appends a subtask name, as an index into task ti's subtask list in
// dict mode.
func (c *Codec) subRef(e *enc, ti int, name string, dict bool) {
	if dict {
		if ti < 0 {
			return // the task missed the dictionary: errDictMiss is latched
		}
		j, ok := c.dict.subIdx[ti][name]
		if !ok {
			e.setErr(errDictMiss)
			return
		}
		e.uvarint(uint64(j))
		return
	}
	e.str(name)
}

// addr appends an endpoint address.
func (c *Codec) addr(e *enc, a string, dict bool) {
	switch {
	case a == coordinatorName:
		e.u8(addrCoordinator)
	case len(a) > 4 && a[:4] == "res/":
		e.u8(addrResource)
		c.resRef(e, a[4:], dict)
	case len(a) > 4 && a[:4] == "ctl/":
		e.u8(addrController)
		c.taskRef(e, a[4:], dict)
	default:
		e.u8(addrLiteral)
		e.str(a)
	}
}

// encPrice appends a PRICE body (entry count + entries).
func (c *Codec) encPrice(e *enc, batch []PriceUpdate, dict bool) {
	e.uvarint(uint64(len(batch)))
	for i := range batch {
		p := &batch[i]
		c.resRef(e, p.Resource, dict)
		e.svarint(int64(p.Round))
		e.uvarint(p.Epoch)
		var fl byte
		if p.Congested {
			fl |= priceFlagCongested
		}
		if p.Delta {
			fl |= priceFlagDelta
		}
		if p.Seq != 0 {
			fl |= priceFlagSeq
		}
		if !p.Delta {
			fl |= priceFlagMu
			if p.Excess > 0 {
				fl |= priceFlagExcess
			}
		}
		e.u8(fl)
		if fl&priceFlagSeq != 0 {
			e.svarint(p.Seq)
		}
		if fl&priceFlagMu != 0 {
			e.f64(p.Mu)
		}
		if fl&priceFlagExcess != 0 {
			e.f64(p.Excess)
		}
	}
}

// encLatency appends a LATENCY body. Pairs go out in the order given, which
// must be the strictly ascending subtask order the decoder insists on.
func (c *Codec) encLatency(e *enc, batch []ShareReport, dict bool) {
	e.uvarint(uint64(len(batch)))
	for i := range batch {
		s := &batch[i]
		ti := c.taskRef(e, s.Task, dict)
		e.svarint(int64(s.Round))
		e.uvarint(s.Epoch)
		var fl byte
		if s.Delta {
			fl |= latFlagDelta
		}
		if s.Seq != 0 {
			fl |= latFlagSeq
		}
		e.u8(fl)
		if fl&latFlagSeq != 0 {
			e.svarint(s.Seq)
		}
		if s.Delta {
			continue
		}
		if len(s.Subs) != len(s.LatMs) {
			e.fail("share report of task %q names %d subtasks for %d latencies", s.Task, len(s.Subs), len(s.LatMs))
			return
		}
		e.uvarint(uint64(len(s.Subs)))
		for j, k := range s.Subs {
			if j > 0 && k <= s.Subs[j-1] {
				e.fail("subtask %q after %q: share report subtasks must ascend", k, s.Subs[j-1])
			}
			c.subRef(e, ti, k, dict)
			e.f64(s.LatMs[j])
		}
	}
}

// encPriceAgg appends a PRICE_AGG body (entry count + entries).
func (c *Codec) encPriceAgg(e *enc, batch []BoundaryPrice, dict bool) {
	e.uvarint(uint64(len(batch)))
	for i := range batch {
		p := &batch[i]
		c.resRef(e, p.Resource, dict)
		e.svarint(int64(p.Round))
		var fl byte
		if p.Congested {
			fl |= aggFlagCongested
		}
		e.u8(fl)
		e.f64(p.Mu)
	}
}

// encBoundary appends a BOUNDARY body (entry count + entries). The curvature
// rides behind a presence flag so gradient-aggregator reports (curvature
// always zero) stay 8 bytes smaller per entry.
func (c *Codec) encBoundary(e *enc, batch []BoundaryDemand, dict bool) {
	e.uvarint(uint64(len(batch)))
	for i := range batch {
		b := &batch[i]
		c.resRef(e, b.Resource, dict)
		e.svarint(int64(b.Round))
		e.uvarint(uint64(b.Shard))
		var fl byte
		if b.Curvature != 0 {
			fl |= bdyFlagCurvature
		}
		e.u8(fl)
		e.f64(b.Demand)
		if fl&bdyFlagCurvature != 0 {
			e.f64(b.Curvature)
		}
	}
}

// Decode side ------------------------------------------------------------

// readResRef reads a resource id.
func (c *Codec) readResRef(d *dec, dict bool) string {
	if dict {
		id, _ := d.pick(c.dict.resources, "resource")
		return id
	}
	return d.strN(maxStrLen)
}

// readTaskRef reads a task name, returning the dictionary index (-1 in
// string mode).
func (c *Codec) readTaskRef(d *dec, dict bool) (string, int) {
	if dict {
		return d.pick(c.dict.tasks, "task")
	}
	return d.strN(maxStrLen), -1
}

// readSubRef reads a subtask name of task ti.
func (c *Codec) readSubRef(d *dec, ti int, dict bool) string {
	if dict {
		if d.err != nil {
			return "" // ti is not an index once the task reference failed
		}
		name, _ := d.pick(c.dict.subs[ti], "subtask")
		return name
	}
	return d.strN(maxStrLen)
}

// readAddr reads an endpoint address.
func (c *Codec) readAddr(d *dec, dict bool) string {
	switch tag := d.u8(); tag {
	case addrCoordinator:
		return coordinatorName
	case addrResource:
		if dict {
			a, _ := d.pick(c.dict.resAddrs, "resource")
			return a
		}
		return "res/" + d.strN(maxStrLen)
	case addrController:
		if dict {
			a, _ := d.pick(c.dict.ctlAddrs, "task")
			return a
		}
		return "ctl/" + d.strN(maxStrLen)
	case addrLiteral:
		return d.strN(maxStrLen)
	default:
		d.fail("unknown address tag 0x%02x", tag)
		return ""
	}
}

// decEntries reads an entry count and the entries behind it. A batch frame
// yields them as a slice; any other frame must hold exactly one and yields
// it bare.
func decEntries[T any](d *dec, batch bool, entry func() T) any {
	n := d.count(maxBatch)
	if !batch {
		if d.err == nil && n != 1 {
			d.fail("%d entries in an unbatched frame", n)
		}
		return entry()
	}
	out := make([]T, 0, min(n, 4096))
	for i := 0; i < n && d.err == nil; i++ {
		out = append(out, entry())
	}
	return out
}

// decPrice reads one PRICE entry.
func (c *Codec) decPrice(d *dec, dict bool) (p PriceUpdate) {
	p.Resource = c.readResRef(d, dict)
	p.Round = int(d.svarint())
	p.Epoch = d.uvarint()
	fl := d.u8()
	if fl&^priceFlagsKnown != 0 {
		d.fail("reserved price entry flag bits 0x%02x", fl)
	}
	p.Congested = fl&priceFlagCongested != 0
	p.Delta = fl&priceFlagDelta != 0
	if (fl&priceFlagMu != 0) == p.Delta {
		// A delta carries no price; a full update always does. Any
		// other combination is not something the encoder emits.
		d.fail("price entry flags 0x%02x: mu presence inconsistent with delta", fl)
	}
	if fl&priceFlagSeq != 0 {
		p.Seq = d.svarint()
	}
	if fl&priceFlagMu != 0 {
		p.Mu = d.f64()
	}
	// No excess is encoded by omitting the field, and a delta carries none.
	if fl&priceFlagExcess != 0 {
		if p.Excess = d.f64(); p.Delta || !(p.Excess > 0) {
			d.fail("price entry flags 0x%02x: excess %v on a delta or not positive", fl, p.Excess)
		}
	}
	return p
}

// decPriceAgg reads one PRICE_AGG entry.
func (c *Codec) decPriceAgg(d *dec, dict bool) (p BoundaryPrice) {
	p.Resource = c.readResRef(d, dict)
	p.Round = int(d.svarint())
	fl := d.u8()
	if fl&^byte(aggFlagsKnown) != 0 {
		d.fail("reserved price-agg entry flag bits 0x%02x", fl)
	}
	p.Congested = fl&aggFlagCongested != 0
	p.Mu = d.f64()
	return p
}

// decBoundary reads one BOUNDARY entry.
func (c *Codec) decBoundary(d *dec, dict bool) (b BoundaryDemand) {
	b.Resource = c.readResRef(d, dict)
	b.Round = int(d.svarint())
	b.Shard = int(d.uvarint())
	fl := d.u8()
	if fl&^byte(bdyFlagsKnown) != 0 {
		d.fail("reserved boundary entry flag bits 0x%02x", fl)
	}
	b.Demand = d.f64()
	if fl&bdyFlagCurvature != 0 {
		b.Curvature = d.f64()
		if b.Curvature == 0 {
			// Zero curvature is encoded by omitting the field; a present
			// zero would be a second encoding of the same entry.
			d.fail("explicit zero curvature in boundary entry")
		}
	}
	return b
}

// decLatency reads one LATENCY entry. Subtasks must arrive strictly
// ascending, which also rules out a duplicate.
func (c *Codec) decLatency(d *dec, dict bool) (s ShareReport) {
	var ti int
	s.Task, ti = c.readTaskRef(d, dict)
	s.Round = int(d.svarint())
	s.Epoch = d.uvarint()
	fl := d.u8()
	if fl&^latFlagsKnown != 0 {
		d.fail("reserved latency entry flag bits 0x%02x", fl)
	}
	s.Delta = fl&latFlagDelta != 0
	if fl&latFlagSeq != 0 {
		s.Seq = d.svarint()
	}
	if s.Delta {
		return s
	}
	if n := d.count(maxBatch); n > 0 {
		s.Subs = make([]string, 0, min(n, 4096))
		s.LatMs = make([]float64, 0, min(n, 4096))
		for j := 0; j < n && d.err == nil; j++ {
			k := c.readSubRef(d, ti, dict)
			if j > 0 && k <= s.Subs[j-1] {
				d.fail("subtask %q after %q in latency entry: duplicate or out of order", k, s.Subs[j-1])
			}
			s.Subs = append(s.Subs, k)
			s.LatMs = append(s.LatMs, d.f64())
		}
	}
	return s
}
