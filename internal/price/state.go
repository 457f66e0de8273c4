package price

import "fmt"

// Checkpoint support (DESIGN.md §13). A Dynamics is part of the engine's
// observable state: the adaptive sizers' current step sizes, Newton's
// safeguard and Anderson's iterate window all influence future price
// trajectories, so a restore that dropped them would diverge bitwise from the
// uninterrupted run. This file defines the serializable snapshot of every
// solver and the capture/restore pair the engine checkpointer drives; the
// interface is sealed, so every Dynamics round-trips exactly.

// GammaSetter is the optional StepSizer extension a bitwise restore needs:
// Gamma() is the sizer's entire observable state (the engine relies on that
// for its replay-absorbing sparse skips), so a sizer that can be set to a
// captured gamma can be restored exactly. Fixed sizers need no setter — their
// gamma never moves — and sizers implementing neither are rejected by
// RestoreDynamics rather than silently reset.
type GammaSetter interface {
	// SetGamma forces the current step size to a previously captured value.
	SetGamma(gamma float64)
}

// SetGamma implements GammaSetter: restoring cur is exactly restoring the
// adaptive controller, since Base/Max are configuration, not state.
func (a *Adaptive) SetGamma(gamma float64) { a.cur = gamma }

// DynamicsState is the serializable snapshot of a Dynamics. Gammas and
// Fallbacks cover every solver (all four embed the reference GradStep per
// coordinate); Halvings/Signs are Newton's safeguard and the remaining fields
// Anderson's window, empty for the other solvers.
type DynamicsState struct {
	// Solver names the implementation the state belongs to; restoring onto a
	// different solver is an error, never a silent partial load.
	Solver Solver
	// Gammas holds each coordinate's current step size.
	Gammas []float64
	// Fallbacks is the cumulative safeguard-fallback count.
	Fallbacks uint64

	// Halvings and Signs are Newton's per-coordinate damping and last excess
	// sign.
	Halvings, Signs []uint8

	// Window, Cnt, Xs, Fs, Accepted, PrevAbsF are Anderson's mixing window
	// (flat m-per-coordinate layout, chronological).
	Window   int
	Cnt      []int
	Xs       []float64
	Fs       []float64
	Accepted []bool
	PrevAbsF []float64
}

// CaptureDynamics deep-copies a Dynamics' state for checkpointing.
func CaptureDynamics(d Dynamics) DynamicsState {
	c := d.base()
	st := DynamicsState{Solver: d.Solver(), Gammas: make([]float64, len(c.steps)), Fallbacks: c.fallbacks}
	for j := range c.steps {
		st.Gammas[j] = c.steps[j].Step.Gamma()
	}
	switch v := d.(type) {
	case *DiagonalNewton:
		st.Halvings = append([]uint8(nil), v.halvings...)
		st.Signs = append([]uint8(nil), v.sign...)
	case *Anderson:
		st.Window = andersonWindow
		st.Cnt = append([]int(nil), v.cnt...)
		st.Xs = append([]float64(nil), v.xs...)
		st.Fs = append([]float64(nil), v.fs...)
		st.Accepted = append([]bool(nil), v.accepted...)
		st.PrevAbsF = append([]float64(nil), v.prevAbsF...)
	}
	return st
}

// RestoreDynamics loads a captured snapshot into a freshly Reset Dynamics of
// the same solver and coordinate count, overwriting the cleared state with
// the captured bits. Solver or shape mismatches are errors — a restore must
// be exact or refused, never approximate. Fixed sizers accept only their own
// gamma (a mismatch means the checkpoint was taken under a different
// configuration); every other sizer must implement GammaSetter.
func RestoreDynamics(d Dynamics, st DynamicsState) error {
	if d == nil {
		return fmt.Errorf("price: cannot restore %s state into a nil Dynamics", st.Solver)
	}
	if d.Solver() != st.Solver {
		return fmt.Errorf("price: checkpoint holds %s solver state, engine runs %s", st.Solver, d.Solver())
	}
	c := d.base()
	n := len(c.steps)
	if len(st.Gammas) != n {
		return fmt.Errorf("price: restore has %d step gammas, solver has %d coordinates", len(st.Gammas), n)
	}
	for j := range c.steps {
		switch s := c.steps[j].Step.(type) {
		case GammaSetter:
			s.SetGamma(st.Gammas[j])
		default:
			if s.Gamma() != st.Gammas[j] {
				return fmt.Errorf("price: coordinate %d sizer %T cannot restore gamma %v (has %v and no SetGamma)",
					j, s, st.Gammas[j], s.Gamma())
			}
		}
	}
	c.fallbacks = st.Fallbacks
	switch v := d.(type) {
	case *DiagonalNewton:
		if len(st.Halvings) != n || len(st.Signs) != n {
			return fmt.Errorf("price: Newton safeguard state sized %d, engine has %d coordinates", len(st.Halvings), n)
		}
		copy(v.halvings, st.Halvings)
		copy(v.sign, st.Signs)
	case *Anderson:
		const m = andersonWindow
		if st.Window != m {
			return fmt.Errorf("price: checkpoint Anderson window %d, solver has %d", st.Window, m)
		}
		if len(st.Cnt) != n || len(st.Xs) != n*m || len(st.Fs) != n*m ||
			len(st.Accepted) != n || len(st.PrevAbsF) != n {
			return fmt.Errorf("price: Anderson state sized for %d coordinates, engine has %d", len(st.Cnt), n)
		}
		copy(v.cnt, st.Cnt)
		copy(v.xs, st.Xs)
		copy(v.fs, st.Fs)
		copy(v.accepted, st.Accepted)
		copy(v.prevAbsF, st.PrevAbsF)
	}
	return nil
}
