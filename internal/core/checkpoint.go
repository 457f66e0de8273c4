package core

import (
	"math"

	"lla/internal/byteio"
	"lla/internal/price"
)

// Engine checkpointing (DESIGN.md §13). The engine writes its checkpoint
// section straight from its live state — everything that influences the
// trajectory of future Steps — and reads it straight back into a freshly
// built engine over the same workload and config. The restored run resumes
// bitwise: every subsequent Snapshot is byte-identical to the uninterrupted
// run's, under every Workers count and every price solver.
//
// What is deliberately NOT written, because Step reconstructs it from the
// written state before reading it: the per-Step price snapshot e.mu (so a
// restored engine prices no capacity change before its first Step; see
// priceEvent), and the per-subtask shares — each always equals the share at
// the current latency (Solve rewrites one whenever its latency moves), so
// ReadCheckpoint recomputes them from the restored latencies bit-for-bit,
// and with them each resource's interior-share sum (the curvature numerator).
//
// The section, in order: the iteration count; the task count and, per task
// in compiled order, its latencies, path prices, path step sizes and
// model-error corrections; then per resource (Problem.Resources order) the
// prices, demand sums and congestion flags; the controller and resource
// fixed-point flags; the five sparse counters; the last largest price move;
// and the price dynamics' own part (price.Dynamics.AppendState). Every slice
// is u32-length-prefixed and every bool one byte.

// CheckpointVersion is the section layout AppendCheckpoint writes and
// ReadCheckpoint reads, the only one there is.
const CheckpointVersion = 4

// AppendCheckpoint writes the engine's checkpoint section to w. Call it
// between Steps (the same discipline as the Set* mutators); the engine is
// not touched. A non-finite value latches an error on w.
func (e *Engine) AppendCheckpoint(w *byteio.Enc) {
	p := e.p
	w.U64(uint64(e.iter))
	w.U32(uint32(p.NumTasks()))
	for ti := range p.NumTasks() {
		c := e.Controller(ti)
		putF64s(w, c.LatMs)
		putF64s(w, c.Lambda)
		putF64s(w, c.gamma)
		putF64s(w, p.errMs[p.subOff[ti]:p.subOff[ti+1]])
	}
	putF64s(w, e.price)
	putF64s(w, e.shareSums)
	putBools(w, e.congested, true)
	putBools(w, e.ctlStable, true)
	putBools(w, e.priceStable, !e.restep) // under restep every price steps next
	s := &e.sstats
	for _, v := range [...]uint64{s.Iterations, s.SkippedSolves, s.ExecutedSolves, s.CleanResources, s.RepricedResources} {
		w.U64(v)
	}
	w.F64(e.dynDelta)
	e.dyn.AppendState(w)
}

// ReadCheckpoint reads a checkpoint section into this engine, which must be
// freshly built over the workload and config the section was written under
// (the recover package rebuilds it from the checkpoint's workload). Workers
// may differ freely: it is bitwise-neutral.
//
// Every length must match the engine's shape and every value must be one a
// run produces: finite, a resource price in [0, price.MaxPrice], a path
// price ≥ 0, a step size > 0 — and under a fixed step policy, that step. A
// resumed out-of-range value would poison every later price. The first
// violation is latched on d; the engine is then unusable and must be
// discarded.
func (e *Engine) ReadCheckpoint(d *byteio.Dec) {
	const big = math.MaxFloat64
	p := e.p
	clear(e.graded) // the grades are scratch, and the restore moves them all
	e.mu = e.mu[:0] // not written (see above)
	e.iter = int(d.U64())
	if n := d.U32(); d.Err == nil && int(n) != p.NumTasks() {
		d.Fail("checkpoint has %d tasks, engine has %d", n, p.NumTasks())
	}
	for ti := 0; ti < p.NumTasks() && d.Err == nil; ti++ {
		c := e.Controller(ti)
		readF64s(d, c.LatMs, "LatMs", -big, big)
		readF64s(d, c.Lambda, "Lambda", 0, big)
		readF64s(d, c.gamma, "PathGamma", math.SmallestNonzeroFloat64, big)
		readF64s(d, p.errMs[p.subOff[ti]:p.subOff[ti+1]], "ErrMs", -big, big)
		for pi, gamma := range c.gamma {
			if !e.cfg.Step.Adaptive && gamma != e.cfg.Step.Gamma && d.Err == nil {
				d.Fail("task %d path %d: fixed step %v cannot restore gamma %v", ti, pi, e.cfg.Step.Gamma, gamma)
			}
		}
	}
	readF64s(d, e.price, "Mu", 0, price.MaxPrice)
	readF64s(d, e.shareSums, "ShareSums", -big, big)
	readBools(d, e.congested, "Congested")
	e.stale = e.stale[:0]
	for ri, c := range e.congested { // pins are not restored: a pinned flag is stale
		if c != p.Resources[ri].Congested(e.shareSums[ri]) {
			e.stale = append(e.stale, int32(ri))
		}
	}
	readBools(d, e.ctlStable, "fixed-point flags")
	readBools(d, e.priceStable, "fixed-point flags")
	s := &e.sstats
	for _, v := range [...]*uint64{&s.Iterations, &s.SkippedSolves, &s.ExecutedSolves, &s.CleanResources, &s.RepricedResources} {
		*v = d.U64()
	}
	e.dynDelta = d.F64()
	e.dyn.ReadState(d)
	if d.Err != nil {
		return
	}
	for ti := range p.NumTasks() {
		c := e.Controller(ti)
		// The restored error terms move the latency bounds; the restored
		// latencies are not re-clamped against them.
		for g := p.subOff[ti]; g < p.subOff[ti+1]; g++ {
			p.refreshBounds(ti, g)
		}
		// The shares must be those of the restored latencies: a restored
		// clean resource reuses them verbatim in the next serial reduction.
		p.sharesInto(c.shares, ti, c.LatMs)
	}
	for ri := range e.inner {
		_, e.inner[ri] = e.demand(ri)
	}
}

// putF64s writes a u32 length and the values.
func putF64s(w *byteio.Enc, v []float64) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		w.F64(x)
	}
}

// putBools writes a u32 length and one byte per flag, each and-ed with keep.
func putBools(w *byteio.Enc, v []bool, keep bool) {
	w.U32(uint32(len(v)))
	for _, x := range v {
		if x && keep {
			w.U8(1)
		} else {
			w.U8(0)
		}
	}
}

// readF64s reads what putF64s wrote into dst: the length must be len(dst)
// and every value must lie in [lo, hi].
func readF64s(d *byteio.Dec, dst []float64, name string, lo, hi float64) {
	if n := d.U32(); d.Err == nil && int(n) != len(dst) {
		d.Fail("checkpoint has %d %s values, engine has %d", n, name, len(dst))
	}
	for i := 0; i < len(dst) && d.Err == nil; i++ {
		if x := d.F64(); x >= lo && x <= hi {
			dst[i] = x
		} else if d.Err == nil {
			d.Fail("checkpoint %s value %v outside [%v, %v]", name, x, lo, hi)
		}
	}
}

// readBools reads what putBools wrote into dst: the length must be len(dst).
func readBools(d *byteio.Dec, dst []bool, name string) {
	if n := d.U32(); d.Err == nil && int(n) != len(dst) {
		d.Fail("checkpoint has %d %s, engine has %d", n, name, len(dst))
	}
	for i := 0; i < len(dst) && d.Err == nil; i++ {
		dst[i] = d.U8() != 0
	}
}
