// Package admit implements online admission control and price-guided
// placement on top of the LLA optimizer. The paper assumes admission
// control is layered above the latency assignment (Section 3.2) and offers
// "run LLA and check convergence" as the sufficient schedulability test
// (Section 5.4); this package turns those remarks into a subsystem that can
// say no fast: arriving tasks pass a static necessary-condition screen, a
// price screen against the live dual variables mu (congestion cost vs.
// utility gain), and finally a bounded trial optimization on a successor
// engine warm-started from the live one, which becomes the live engine when
// the offer is accepted.
// Rejected tasks are quarantined with capped exponential backoff, counted
// in controller events rather than wall-clock time so decision traces are
// deterministic and replayable.
package admit

import (
	"fmt"
	"slices"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// Config tunes the admission controller. The zero value uses the defaults
// noted per field.
type Config struct {
	// TrialIters bounds the optimization of every successor engine: an
	// offer's trial, which becomes the live engine on accept, and the
	// warm-started run a departure, a rebalance or an admit-all offer
	// adopts. Default 1500.
	TrialIters int
	// AdmitAll skips every gate and enacts each offer directly — the
	// admit-everything baseline the churn experiment compares against.
	AdmitAll bool
}

// Quarantine backoff: a rejected task waits backoffBase controller events
// after its first strike, backoffFactor times longer per further strike, and
// never more than backoffCap. Event-counted (not wall-clock) so decisions
// stay deterministic.
const (
	backoffBase   = 2
	backoffFactor = 2
	backoffCap    = 32
)

// Decision kinds and gate stages.
const (
	KindArrival   = "arrival"
	KindDeparture = "departure"
	KindRebalance = "rebalance"

	StageQuarantine = "quarantine"
	StageStatic     = "static"
	StagePrice      = "price"
	StageTrial      = "trial"
	StageAdmit      = "admit"
	StageLeave      = "leave"
	StagePlace      = "place"
)

// Decision is one entry of the controller's decision log. The log is the
// authoritative record; the lla_admit_* metrics are derived from it
// one-to-one (asserted by tests).
type Decision struct {
	// Event is the controller's event counter at decision time (1-based).
	Event int
	// Task names the candidate or resident involved.
	Task string
	// Kind is KindArrival, KindDeparture or KindRebalance.
	Kind string
	// Admitted reports arrival admission; for departures it reports whether
	// the task was resident and removed, for rebalances whether a move
	// happened.
	Admitted bool
	// Stage names the gate that decided (Stage* constants).
	Stage string
	// Reason explains the decision.
	Reason string
	// TrialIters is the iteration count of the trial gate's successor.
	TrialIters int
	// ReconvergeIters counts the iterations of the successor an enacted
	// change (admission, departure, rebalance) adopted. For a gated admit
	// it is the trial's count: the trial is what the live engine became.
	ReconvergeIters int
	// Utility is the live aggregate utility after the decision.
	Utility float64
}

// quarEntry tracks one quarantined task name.
type quarEntry struct {
	strikes int
	until   int // first event at which a retry is considered again
}

// Controller is the online admission controller for one live engine. It is
// not safe for concurrent use; drive it from the goroutine that owns the
// engine (the same discipline Engine.Step requires).
type Controller struct {
	eng    *core.Engine
	cfg    Config
	placer *Placer

	m    *obs.AdmitMetrics
	obsv *obs.Observer

	event      int
	log        []Decision
	quarantine map[string]*quarEntry
}

// New builds a controller over a running engine. The engine should be
// converged (or close) before the first Offer: the price screen reads the
// live mu vector.
func New(eng *core.Engine, cfg Config) *Controller {
	if cfg.TrialIters == 0 {
		cfg.TrialIters = 1500
	}
	return &Controller{eng: eng, cfg: cfg, quarantine: make(map[string]*quarEntry)}
}

// Engine returns the controlled engine.
func (c *Controller) Engine() *core.Engine { return c.eng }

// UsePlacer attaches a price-guided placer; OfferPlaced and MaybeRebalance
// require one.
func (c *Controller) UsePlacer(p *Placer) { c.placer = p }

// Observe attaches observability: admission counters/gauges on the metrics
// registry, an "admission" trace event per decision. nil detaches. The
// engine's own observer (core.Engine.Observe) sees the live engine's steps
// only: a successor's steps ran before it was adopted, and their count is
// reported by the decision's event (its iteration) and by
// lla_admit_reconverge_iterations.
func (c *Controller) Observe(o *obs.Observer) {
	c.obsv, c.m = o, nil
	if o != nil && o.Metrics != nil {
		c.m = obs.NewAdmitMetrics(o.Metrics)
		c.m.Resident.Set(float64(c.eng.Problem().NumTasks()))
	}
	if c.placer != nil {
		c.placer.Observe(o)
	}
}

// Log returns a copy of the decision log.
func (c *Controller) Log() []Decision { return append([]Decision(nil), c.log...) }

// finish records the decision in the log, mirrors it onto the metrics and
// trace, and returns it.
func (c *Controller) finish(d Decision) Decision {
	d.Utility = c.eng.Probe().Utility
	c.log = append(c.log, d)
	if c.m != nil {
		switch d.Kind {
		case KindArrival:
			c.m.Considered.Inc()
			if d.Admitted {
				c.m.Admitted.Inc()
			} else {
				switch d.Stage {
				case StageQuarantine:
					c.m.RejectedQuarantine.Inc()
				case StagePrice:
					c.m.RejectedPrice.Inc()
				case StageTrial:
					c.m.RejectedTrial.Inc()
				default:
					c.m.RejectedStatic.Inc()
				}
			}
		case KindDeparture:
			if d.Admitted {
				c.m.Departures.Inc()
			}
		}
		if d.Admitted && d.Kind != KindRebalance {
			c.m.ReconvergeIters.Observe(float64(d.ReconvergeIters))
		}
		c.m.Resident.Set(float64(c.eng.Problem().NumTasks()))
	}
	if c.obsv != nil {
		v := 0.0
		if d.Admitted {
			v = 1
		}
		kind := obs.EventAdmission
		if d.Kind == KindRebalance {
			kind = obs.EventRebalance
		}
		c.obsv.Emit(obs.Event{Kind: kind, Iteration: c.eng.Iteration(),
			Task: d.Task, Detail: d.Stage, Value: v})
	}
	return d
}

// strike quarantines a rejected task name with capped exponential backoff:
// backoffBase events after the first strike, multiplied by backoffFactor
// per further strike, never more than backoffCap.
func (c *Controller) strike(name string) *quarEntry {
	q := c.quarantine[name]
	if q == nil {
		q = &quarEntry{}
		c.quarantine[name] = q
	}
	q.strikes++
	backoff := backoffBase
	for i := 1; i < q.strikes && backoff < backoffCap; i++ {
		backoff *= backoffFactor
	}
	if backoff > backoffCap {
		backoff = backoffCap
	}
	q.until = c.event + backoff
	return q
}

// run warm-starts next, a successor of the live engine, from it and runs it
// to the stopping rule within TrialIters, without disturbing the live engine.
// The caller adopts next (core.Engine.Adopt) or closes it.
func (c *Controller) run(next *core.Engine) (core.Snapshot, bool) {
	next.CarryFrom(c.eng)
	return next.RunUntilKKT(c.cfg.TrialIters, core.StopKKTTol, core.StopWindow, core.StopTol)
}

// enact runs w's successor and adopts it whatever its verdict — departures,
// rebalances and admit-all offers pass no gate — and returns the iterations
// it ran.
func (c *Controller) enact(w *workload.Workload) (int, error) {
	next, err := core.NewEngine(w, c.eng.Config())
	if err != nil {
		return 0, err
	}
	c.run(next)
	c.eng.Adopt(next)
	return c.eng.Iteration(), nil
}

// Offer screens an arriving task and, if every gate passes, makes the
// trial's engine the live one. The returned Decision says which gate
// decided and why; err is reserved for mechanical failures (a nil task,
// duplicate names, engine errors), not rejections.
func (c *Controller) Offer(t *task.Task, curve utility.Curve) (Decision, error) {
	if t == nil {
		return Decision{}, fmt.Errorf("admit: offer without a task")
	}
	return c.offer(t, curve, nil)
}

// offer is Offer on trial, a copy of the resident workload that the caller
// owns and offer extends with t (nil: offer takes the copy itself).
func (c *Controller) offer(t *task.Task, curve utility.Curve, trial *workload.Workload) (Decision, error) {
	c.event++
	d := Decision{Event: c.event, Task: t.Name, Kind: KindArrival}

	if q := c.quarantine[t.Name]; q != nil && c.event < q.until {
		d.Stage = StageQuarantine
		d.Reason = fmt.Sprintf("quarantined until event %d (strike %d)", q.until, q.strikes)
		return c.finish(d), nil
	}

	if trial == nil {
		trial = c.eng.CurrentWorkload()
	}
	if trial.TaskByName(t.Name) != nil {
		return d, fmt.Errorf("admit: task %q is already resident", t.Name)
	}
	trial.Tasks = append(trial.Tasks, t.Clone())
	trial.Curves[t.Name] = curve

	if c.cfg.AdmitAll {
		iters, err := c.enact(trial)
		if err != nil {
			return d, fmt.Errorf("admit: enacting %q: %w", t.Name, err)
		}
		d.ReconvergeIters, d.Reason = iters, "admit-everything policy"
	} else {
		next, err := c.screen(trial, t, curve, &d)
		if err != nil {
			return d, err
		}
		if next == nil {
			c.strike(t.Name)
			return c.finish(d), nil
		}
		c.eng.Adopt(next)
		d.ReconvergeIters, d.Reason = d.TrialIters, "passed static, price and trial gates"
	}
	d.Admitted, d.Stage = true, StageAdmit
	delete(c.quarantine, t.Name)
	return c.finish(d), nil
}

// screen runs the static, price and trial gates on one trial engine, built
// from the validated trial workload before the first gate. It returns the
// trial's certified engine when all three pass; nil with the rejecting stage
// and reason written to d when one fires; an error for malformed inputs only.
func (c *Controller) screen(trial *workload.Workload, t *task.Task, curve utility.Curve, d *Decision) (*core.Engine, error) {
	ck, err := trial.Check()
	if err != nil {
		// An invalid trial workload means the candidate itself is malformed
		// relative to the running system (bad resource reference, duplicate
		// placement); reject rather than fail the control loop.
		d.Stage, d.Reason = StageStatic, err.Error()
		return nil, nil
	}
	next, err := core.NewEngineChecked(ck, c.eng.Config())
	if err != nil {
		d.Stage, d.Reason = StageTrial, err.Error()
		return nil, nil
	}
	reject := func(stage, reason string) (*core.Engine, error) {
		next.Close()
		d.Stage, d.Reason = stage, reason
		return nil, nil
	}

	// Gate 1: static necessary conditions (path and resource floors) on the
	// trial's compiled latency boxes.
	if rep := next.Problem().Schedulability(); !rep.Feasible() {
		return reject(StageStatic, rep.String())
	}

	// Gate 2: price the candidate against the live mu vector.
	reason, err := priceScreen(trial, t, curve, c.eng.Config().WeightMode, c.eng.MuAt)
	if err != nil {
		next.Close()
		return nil, fmt.Errorf("admit: pricing %q: %w", t.Name, err)
	}
	if reason != "" {
		return reject(StagePrice, reason)
	}

	// Gate 3: bounded trial optimization of the trial workload, warm-started
	// from the live engine — the paper's sufficient schedulability test
	// (Section 5.4).
	snap, ok := c.run(next)
	d.TrialIters = snap.Iteration
	if !ok {
		return reject(StageTrial, fmt.Sprintf(
			"trial did not certify in %d iterations (resViol %.4f, pathViol %.4f)",
			snap.Iteration, snap.MaxResourceViolation, snap.MaxPathViolationFrac))
	}
	return next, nil
}

// Remove retires a resident task (a departure) and re-converges the
// remaining workload. Removing an unknown name is recorded as a no-op
// decision, not an error, so churn traces can replay departures of tasks
// that were never admitted.
func (c *Controller) Remove(name string) (Decision, error) {
	c.event++
	d := Decision{Event: c.event, Task: name, Kind: KindDeparture, Stage: StageLeave}

	w := c.eng.CurrentWorkload()
	idx := slices.IndexFunc(w.Tasks, func(t *task.Task) bool { return t.Name == name })
	if idx < 0 {
		d.Reason = "not resident"
		return c.finish(d), nil
	}
	if len(w.Tasks) == 1 {
		return d, fmt.Errorf("admit: cannot remove %q: it is the last resident task", name)
	}
	w.Tasks = slices.Delete(w.Tasks, idx, idx+1)
	delete(w.Curves, name)
	iters, err := c.enact(w)
	if err != nil {
		return d, fmt.Errorf("admit: removing %q: %w", name, err)
	}
	d.ReconvergeIters, d.Admitted, d.Reason = iters, true, "departed"
	if c.placer != nil {
		c.placer.forget(name)
	}
	return c.finish(d), nil
}
