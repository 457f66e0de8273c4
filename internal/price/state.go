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
//
// Version 2 followed that with the mixing window only the removed Anderson
// solver filled. Version 1 had no safeguard and opened the part with a tag:
// 0 for the gradient agents, whose step sizes (read by ReadGammas ahead of
// the tag) were the whole state, 1 for a Dynamics part as above.

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

// ReadState reads the part AppendState writes, in checkpoint layout version
// 1..3, into a freshly Reset Dynamics of the same solver and coordinate
// count. A solver or shape mismatch is latched on r — a restore must be
// exact or refused, never approximate — and so is anything ReadGammas
// refuses. A version-1 Newton part starts the safeguard cleared.
func (d *Dynamics) ReadState(r *byteio.Dec, version int) {
	if version == 1 {
		switch tag := r.U8(); {
		case tag == 0 && !d.newton:
			return
		case tag == 0:
			r.Fail("checkpoint holds gradient solver state, engine runs %s", d.Solver())
		case tag != 1:
			r.Fail("bad version-1 solver-state tag %d", tag)
		}
	}
	if s := r.Take(int(r.U32())); r.Err == nil && string(s) != string(d.Solver()) {
		r.Fail("checkpoint holds %s solver state, engine runs %s", s, d.Solver())
	}
	d.ReadGammas(r)
	d.fallbacks = r.U64()
	if version > 1 {
		for _, b := range [][]uint8{d.halvings, d.sign} {
			if n := r.U32(); r.Err == nil && int(n) != len(b) {
				r.Fail("checkpoint Newton safeguard sized %d, engine has %d coordinates", n, len(b))
			}
			copy(b, r.Take(len(b)))
		}
	}
	if version < 3 {
		// The mixing window: a size, then five length-prefixed slices (fill
		// counts, iterates, residuals, accept flags, residual magnitudes),
		// all empty for every solver but Anderson.
		empty := r.U64() == 0
		for i := 0; i < 5; i++ {
			empty = r.U32() == 0 && empty
		}
		if !empty && r.Err == nil {
			r.Fail("checkpoint holds anderson solver history; the anderson solver was removed")
		}
	}
}

// ReadGammas reads a u32-length-prefixed vector of step sizes into the
// coordinates. The length must match, and every step size must be positive
// and finite — and under a fixed step policy, the policy's own step.
func (d *Dynamics) ReadGammas(r *byteio.Dec) {
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
}
