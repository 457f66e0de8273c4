package price

import (
	"math"

	"lla/internal/byteio"
)

// Checkpoint support (DESIGN.md §13). A Dynamics is part of the engine's
// observable state: the adaptive step sizes and Newton's safeguard both
// influence future price trajectories, so a restore that dropped them would
// diverge bitwise from the uninterrupted run. The dynamics owns its part of
// the engine's checkpoint section: the solver name, each coordinate's step
// size, the fallback count, and Newton's halvings and signs (empty under the
// gradient). Strings and slices are u32-length-prefixed.

// AppendState writes the dynamics' part of a checkpoint section.
func (d *Dynamics) AppendState(w *byteio.Enc) {
	s := d.Solver()
	w.U32(uint32(len(s)))
	w.B = append(w.B, s...)
	w.U32(uint32(len(d.gamma)))
	for _, g := range d.gamma {
		w.F64(g)
	}
	w.U64(d.fallbacks)
	for _, b := range [][]uint8{d.halvings, d.sign} {
		w.U32(uint32(len(b)))
		w.B = append(w.B, b...)
	}
}

// ReadState reads the part AppendState writes into a freshly Reset
// Dynamics of the same solver and coordinate count. A solver or shape
// mismatch is latched on r — a restore must be exact or refused, never
// approximate — and so is a step size that is not positive and finite, or
// under a fixed step policy not the policy's own step.
func (d *Dynamics) ReadState(r *byteio.Dec) {
	if s := r.Take(int(r.U32())); r.Err == nil && string(s) != string(d.Solver()) {
		r.Fail("checkpoint holds %s solver state, engine runs %s", s, d.Solver())
	}
	if n := r.U32(); r.Err == nil && int(n) != len(d.gamma) {
		r.Fail("checkpoint has %d step sizes, solver has %d coordinates", n, len(d.gamma))
	}
	for j := 0; j < len(d.gamma) && r.Err == nil; j++ {
		switch g := r.F64(); {
		case r.Err != nil:
		case !(g > 0 && g <= math.MaxFloat64):
			r.Fail("coordinate %d: step size %v is not positive and finite", j, g)
		case !d.adaptive && g != d.base:
			r.Fail("coordinate %d: fixed step %v cannot restore gamma %v", j, d.base, g)
		default:
			d.gamma[j] = g
		}
	}
	d.fallbacks = r.U64()
	for _, b := range [][]uint8{d.halvings, d.sign} {
		if n := r.U32(); r.Err == nil && int(n) != len(b) {
			r.Fail("checkpoint Newton safeguard sized %d, engine has %d coordinates", n, len(b))
		}
		copy(b, r.Take(len(b)))
	}
}
