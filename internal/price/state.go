package price

import "fmt"

// Checkpoint support (DESIGN.md §13). A Dynamics is part of the engine's
// observable state: the adaptive sizers' current step sizes and Anderson's
// iterate window both influence future price trajectories, so a restore that
// dropped them would diverge bitwise from the uninterrupted run. This file
// defines the serializable snapshot of every built-in solver and the
// capture/restore pair the engine checkpointer drives.
//
// The contract is two-tier: the four built-in solvers round-trip exactly
// (CaptureDynamics reports ok=true and RestoreDynamics reproduces every bit
// of internal state), while an unknown third-party Dynamics falls back to
// the Reset-on-restore contract — CaptureDynamics reports ok=false, and the
// restored engine calls Reset, trading bitwise continuity for a safe warm
// start from the restored prices.

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

// DynamicsState is the serializable snapshot of a built-in Dynamics. Gammas
// and Fallbacks cover every solver (all four embed the reference GradStep
// per coordinate); the remaining fields are Anderson's window and are empty
// for the memoryless solvers.
type DynamicsState struct {
	// Solver names the implementation the state belongs to; restoring onto a
	// different solver is an error, never a silent partial load.
	Solver Solver
	// Gammas holds each coordinate's current step size.
	Gammas []float64
	// Fallbacks is the cumulative safeguard-fallback count.
	Fallbacks uint64

	// Window, Cnt, Xs, Fs, Accepted, PrevAbsF are Anderson's mixing window
	// (flat m-per-coordinate layout, chronological); empty for other solvers.
	Window   int
	Cnt      []int
	Xs       []float64
	Fs       []float64
	Accepted []bool
	PrevAbsF []float64
}

// CaptureSteps snapshots the per-coordinate sizer gammas: of a built-in
// solver, or of the engine's own gradient steps.
func CaptureSteps(steps []GradStep) []float64 {
	gammas := make([]float64, len(steps))
	for j := range steps {
		gammas[j] = steps[j].Step.Gamma()
	}
	return gammas
}

// RestoreSteps forces each coordinate's sizer to a captured gamma. Fixed
// sizers accept only their own value (a mismatch means the checkpoint was
// taken under a different configuration); everything else must implement
// GammaSetter.
func RestoreSteps(steps []GradStep, gammas []float64) error {
	if len(gammas) != len(steps) {
		return fmt.Errorf("price: restore has %d step gammas, solver has %d coordinates", len(gammas), len(steps))
	}
	for j := range steps {
		switch s := steps[j].Step.(type) {
		case GammaSetter:
			s.SetGamma(gammas[j])
		default:
			if steps[j].Step.Gamma() != gammas[j] {
				return fmt.Errorf("price: coordinate %d sizer %T cannot restore gamma %v (has %v and no SetGamma)",
					j, steps[j].Step, gammas[j], steps[j].Step.Gamma())
			}
		}
	}
	return nil
}

// CaptureDynamics snapshots a Dynamics for checkpointing. ok is false for
// implementations outside this package, which restore under the
// Reset-on-restore contract instead. A nil Dynamics (the engine's built-in
// gradient agent path) captures as ok=false too: the agents' sizer state is
// captured by the engine itself.
func CaptureDynamics(d Dynamics) (DynamicsState, bool) {
	switch v := d.(type) {
	case *GradientProjection:
		return DynamicsState{Solver: v.Solver(), Gammas: CaptureSteps(v.steps)}, true
	case *DiagonalNewton:
		return DynamicsState{Solver: v.Solver(), Gammas: CaptureSteps(v.steps), Fallbacks: v.fallbacks}, true
	case *PriceDiscovery:
		return DynamicsState{Solver: v.Solver(), Gammas: CaptureSteps(v.steps)}, true
	case *Anderson:
		m := v.window()
		st := DynamicsState{
			Solver:    v.Solver(),
			Gammas:    CaptureSteps(v.steps),
			Fallbacks: v.fallbacks,
			Window:    m,
			Cnt:       append([]int(nil), v.cnt...),
			Xs:        append([]float64(nil), v.xs...),
			Fs:        append([]float64(nil), v.fs...),
			Accepted:  append([]bool(nil), v.accepted...),
			PrevAbsF:  append([]float64(nil), v.prevAbsF...),
		}
		return st, true
	}
	return DynamicsState{}, false
}

// RestoreDynamics loads a captured snapshot into a freshly Reset Dynamics of
// the same solver and coordinate count. The caller must have called Reset(n)
// first (NewEngine does); RestoreDynamics then overwrites the cleared state
// with the captured bits. Solver or shape mismatches are errors — a restore
// must be exact or refused, never approximate.
func RestoreDynamics(d Dynamics, st DynamicsState) error {
	if d == nil {
		return fmt.Errorf("price: cannot restore %s state into a nil Dynamics", st.Solver)
	}
	if d.Solver() != st.Solver {
		return fmt.Errorf("price: checkpoint holds %s solver state, engine runs %s", st.Solver, d.Solver())
	}
	switch v := d.(type) {
	case *GradientProjection:
		return RestoreSteps(v.steps, st.Gammas)
	case *DiagonalNewton:
		if err := RestoreSteps(v.steps, st.Gammas); err != nil {
			return err
		}
		v.fallbacks = st.Fallbacks
		return nil
	case *PriceDiscovery:
		return RestoreSteps(v.steps, st.Gammas)
	case *Anderson:
		if err := RestoreSteps(v.steps, st.Gammas); err != nil {
			return err
		}
		m := v.window()
		n := len(v.cnt)
		if st.Window != m {
			return fmt.Errorf("price: checkpoint Anderson window %d, engine configured %d", st.Window, m)
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
		v.fallbacks = st.Fallbacks
		return nil
	}
	return fmt.Errorf("price: %T does not support state restore (Reset-on-restore contract applies)", d)
}
