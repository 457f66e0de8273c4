// Package closedloop packages the paper's deployed system shape (Section
// 6): the LLA optimizer running continuously against a live (here:
// simulated) proportional-share system, with allocations enacted through an
// enactment policy and the share model improved online by additive error
// correction from measured high-percentile latencies. eval.Fig8 and the
// errorcorrection example are thin drivers around this loop.
package closedloop

import (
	"fmt"

	"lla/internal/core"
	"lla/internal/errcorr"
	"lla/internal/sim"
	"lla/internal/workload"
)

// Config parametrizes the loop.
type Config struct {
	// EpochMs is the simulated time between optimizer enactments
	// (default 1000).
	EpochMs float64
}

// convergeIters bounds the optimizer iterations per epoch.
const convergeIters = 4000

// Epoch reports one loop iteration to the observer.
type Epoch struct {
	// Index is the zero-based epoch number.
	Index int
	// SimTimeMs is the simulation clock after the epoch.
	SimTimeMs float64
	// Snapshot is the optimizer state enacted during the epoch.
	Snapshot core.Snapshot
	// Enacted reports whether the enactment policy pushed new shares.
	Enacted bool
	// ErrMs[ti][si] are the current additive model errors.
	ErrMs [][]float64
	// CorrectionActive reports whether error correction ran this epoch.
	CorrectionActive bool
}

// Loop binds an engine, a simulated world, correctors and an enactor.
type Loop struct {
	cfg        Config
	w          *workload.Workload
	engine     *core.Engine
	world      *sim.Sim
	enactor    *core.Enactor
	correctors [][]*errcorr.Corrector
	correcting bool
	epoch      int
}

// New builds a closed loop over a workload: a fresh engine and simulator
// are constructed from the given configurations.
func New(w *workload.Workload, engineCfg core.Config, simCfg sim.Config, cfg Config) (*Loop, error) {
	if cfg.EpochMs == 0 {
		cfg.EpochMs = 1000
	}
	engine, err := core.NewEngine(w, engineCfg)
	if err != nil {
		return nil, err
	}
	world, err := sim.New(w, simCfg)
	if err != nil {
		return nil, err
	}
	l := &Loop{
		cfg:        cfg,
		w:          w,
		engine:     engine,
		world:      world,
		enactor:    core.NewEnactor(),
		correcting: true,
	}
	for _, tk := range w.Tasks {
		row := make([]*errcorr.Corrector, len(tk.Subtasks))
		for si := range row {
			row[si] = errcorr.New()
		}
		l.correctors = append(l.correctors, row)
	}
	return l, nil
}

// Engine exposes the optimizer (e.g. for dynamic workload/resource changes
// between epochs).
func (l *Loop) Engine() *core.Engine { return l.engine }

// SetCorrection enables or disables online error correction at runtime (the
// Figure 8 experiment enables it mid-run).
func (l *Loop) SetCorrection(on bool) { l.correcting = on }

// RunEpochs executes n epochs: optimize → enact (policy-gated) → simulate →
// observe → correct. observe may be nil.
func (l *Loop) RunEpochs(n int, observe func(Epoch)) error {
	for i := 0; i < n; i++ {
		snap, _ := l.engine.RunUntilKKT(convergeIters, core.StopKKTTol, core.StopWindow, core.StopTol)

		enacted := false
		if shares := l.enactor.Consider(snap); shares != nil {
			if err := l.world.SetShares(shares); err != nil {
				return fmt.Errorf("closedloop: enacting epoch %d: %w", l.epoch, err)
			}
			enacted = true
		}

		l.world.ResetStats()
		l.world.RunFor(l.cfg.EpochMs)

		if l.correcting {
			if err := l.correct(snap); err != nil {
				return err
			}
		}

		ep := Epoch{
			Index:            l.epoch,
			SimTimeMs:        l.world.NowMs(),
			Snapshot:         snap,
			Enacted:          enacted,
			CorrectionActive: l.correcting,
		}
		for ti := range l.correctors {
			row := make([]float64, len(l.correctors[ti]))
			for si := range l.correctors[ti] {
				row[si] = l.correctors[ti][si].ErrMs()
			}
			ep.ErrMs = append(ep.ErrMs, row)
		}
		if observe != nil {
			observe(ep)
		}
		l.epoch++
	}
	return nil
}

// correct folds the epoch's measured latencies into the correctors and the
// engine's share functions: the sampled high percentile is compared against
// the uncorrected model prediction (c+l)/share (Section 6.3).
func (l *Loop) correct(snap core.Snapshot) error {
	prob := l.engine.Problem()
	for ti, tk := range l.w.Tasks {
		for si, sub := range tk.Subtasks {
			base := prob.Share(ti, si)
			base.ErrMs = 0
			predicted := base.LatencyFor(snap.Shares[ti][si])
			c := l.correctors[ti][si]
			if !c.Observe(l.world.SubtaskLatency(ti, si), predicted) {
				continue
			}
			if err := l.engine.SetErrorMs(tk.Name, sub.Name, c.ErrMs()); err != nil {
				return fmt.Errorf("closedloop: correcting %s/%s: %w", tk.Name, sub.Name, err)
			}
		}
	}
	return nil
}

// Enactments reports how many allocations the loop has pushed to the world.
func (l *Loop) Enactments() int { return l.enactor.Enactments() }
