package price

import (
	"fmt"
	"math"
)

// Checkpoint support (DESIGN.md §13). A Dynamics is part of the engine's
// observable state: the adaptive step sizes and Newton's safeguard both
// influence future price trajectories, so a restore that dropped them would
// diverge bitwise from the uninterrupted run.

// DynamicsState is the serializable snapshot of a Dynamics.
type DynamicsState struct {
	// Solver names the update the state belongs to; restoring onto a
	// different solver is an error, never a silent partial load.
	Solver Solver
	// Gammas holds each coordinate's current step size.
	Gammas []float64
	// Fallbacks is the cumulative Newton fallback count.
	Fallbacks uint64
	// Halvings and Signs are Newton's per-coordinate damping and last excess
	// sign, empty under the gradient.
	Halvings, Signs []uint8
}

// CaptureDynamics deep-copies a Dynamics' state for checkpointing.
func CaptureDynamics(d *Dynamics) DynamicsState {
	st := DynamicsState{Solver: d.Solver(), Gammas: make([]float64, len(d.gamma)), Fallbacks: d.fallbacks}
	copy(st.Gammas, d.gamma)
	if d.newton {
		st.Halvings = append([]uint8(nil), d.halvings...)
		st.Signs = append([]uint8(nil), d.sign...)
	}
	return st
}

// RestoreDynamics loads a captured snapshot into a freshly Reset Dynamics of
// the same solver and coordinate count. Solver or shape mismatches are
// errors — a restore must be exact or refused, never approximate — and so
// is a step size that is not positive and finite. A fixed step policy
// accepts only its own gamma: a mismatch means the checkpoint was taken
// under a different configuration.
func RestoreDynamics(d *Dynamics, st DynamicsState) error {
	if d == nil {
		return fmt.Errorf("price: cannot restore %s state into a nil Dynamics", st.Solver)
	}
	if d.Solver() != st.Solver {
		return fmt.Errorf("price: checkpoint holds %s solver state, engine runs %s", st.Solver, d.Solver())
	}
	n := len(d.gamma)
	if len(st.Gammas) != n {
		return fmt.Errorf("price: restore has %d step gammas, solver has %d coordinates", len(st.Gammas), n)
	}
	for j, g := range st.Gammas {
		if !(g > 0 && g <= math.MaxFloat64) {
			return fmt.Errorf("price: coordinate %d: step size %v is not positive and finite", j, g)
		}
		if !d.adaptive && g != d.base {
			return fmt.Errorf("price: coordinate %d: fixed step %v cannot restore gamma %v", j, d.base, g)
		}
	}
	if d.newton {
		if len(st.Halvings) != n || len(st.Signs) != n {
			return fmt.Errorf("price: Newton safeguard state sized %d, engine has %d coordinates", len(st.Halvings), n)
		}
		copy(d.halvings, st.Halvings)
		copy(d.sign, st.Signs)
	}
	copy(d.gamma, st.Gammas)
	d.fallbacks = st.Fallbacks
	return nil
}
