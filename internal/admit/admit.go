// Package admit implements online admission control and price-guided
// placement on top of the LLA optimizer. The paper assumes admission
// control is layered above the latency assignment (Section 3.2) and offers
// "run LLA and check convergence" as the sufficient schedulability test
// (Section 5.4); this package turns those remarks into a subsystem that can
// say no fast: arriving tasks pass a static necessary-condition screen, a
// price screen against the live dual variables mu (congestion cost vs.
// utility gain), and finally a bounded trial optimization on a scratch
// engine warm-started from the live one.
// Rejected tasks are quarantined with capped exponential backoff, counted
// in controller events rather than wall-clock time so decision traces are
// deterministic and replayable.
package admit

import (
	"fmt"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// Config tunes the admission controller. The zero value uses the defaults
// noted per field.
type Config struct {
	// TrialIters bounds the scratch trial optimization and each live
	// re-convergence. Default 1500.
	TrialIters int
	// AdmitAll skips every gate and enacts each offer directly — the
	// admit-everything baseline the churn experiment compares against.
	AdmitAll bool
}

// The convergence detector of trial and re-convergence runs: relative
// utility change below trialRelTol over trialWindow iterations, with
// constraint violations below tol.
const (
	trialRelTol = 1e-7
	trialWindow = 20
	tol         = 1e-3
)

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
	// TrialIters is the scratch-engine iteration count of the trial gate.
	TrialIters int
	// ReconvergeIters counts live-engine iterations spent re-converging
	// after an enacted change (admission, departure, rebalance).
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

	snap core.Snapshot // reusable scratch for live-price reads
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
// registry, an "admission" trace event per decision. nil detaches.
func (c *Controller) Observe(o *obs.Observer) {
	c.obsv, c.m = o, nil
	if o != nil && o.Metrics != nil {
		c.m = obs.NewAdmitMetrics(o.Metrics)
		c.m.Resident.Set(float64(len(c.eng.Problem().Tasks)))
	}
	if c.placer != nil {
		c.placer.Observe(o)
	}
}

// Log returns a copy of the decision log.
func (c *Controller) Log() []Decision { return append([]Decision(nil), c.log...) }

// liveMu snapshots the engine's price vector as a resource-ID map.
func (c *Controller) liveMu() map[string]float64 {
	c.eng.SnapshotInto(&c.snap)
	p := c.eng.Problem()
	mu := make(map[string]float64, len(p.Resources))
	for ri := range p.Resources {
		mu[p.Resources[ri].ID] = c.snap.Mu[ri]
	}
	return mu
}

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
		c.m.Resident.Set(float64(len(c.eng.Problem().Tasks)))
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

// reconverge drives the live engine after an enacted change and returns the
// iterations spent.
func (c *Controller) reconverge() int {
	snap, _ := c.eng.RunUntilConverged(c.cfg.TrialIters, trialRelTol, trialWindow, tol)
	return snap.Iteration
}

// Offer screens an arriving task and, if every gate passes, enacts it on
// the live engine (warm-started ReplaceWorkload plus re-convergence). The
// returned Decision says which gate decided and why; err is reserved for
// mechanical failures (duplicate names, engine errors), not rejections.
func (c *Controller) Offer(t *task.Task, curve utility.Curve) (Decision, error) {
	c.event++
	d := Decision{Event: c.event, Task: t.Name, Kind: KindArrival}

	if q := c.quarantine[t.Name]; q != nil && c.event < q.until {
		d.Stage = StageQuarantine
		d.Reason = fmt.Sprintf("quarantined until event %d (strike %d)", q.until, q.strikes)
		return c.finish(d), nil
	}

	resident := c.eng.CurrentWorkload()
	if resident.TaskByName(t.Name) != nil {
		return d, fmt.Errorf("admit: task %q is already resident", t.Name)
	}
	trial := resident.Clone()
	trial.Tasks = append(trial.Tasks, t.Clone())
	trial.Curves[t.Name] = curve

	if !c.cfg.AdmitAll {
		if rejected, why, err := c.screen(trial, t, curve, &d); err != nil {
			return d, err
		} else if rejected {
			d.Stage, d.Reason = why.Stage, why.Reason
			c.strike(t.Name)
			return c.finish(d), nil
		}
	}

	if err := c.eng.ReplaceWorkload(trial); err != nil {
		return d, fmt.Errorf("admit: enacting %q: %w", t.Name, err)
	}
	d.ReconvergeIters = c.reconverge()
	d.Admitted = true
	d.Stage = StageAdmit
	if c.cfg.AdmitAll {
		d.Reason = "admit-everything policy"
	} else {
		d.Reason = "passed static, price and trial gates"
	}
	delete(c.quarantine, t.Name)
	return c.finish(d), nil
}

// screen runs the static, price and trial gates. It returns rejected=true
// with the stage/reason in why, or an error for malformed inputs.
func (c *Controller) screen(trial *workload.Workload, t *task.Task, curve utility.Curve, d *Decision) (bool, Decision, error) {
	// Gate 1: static necessary conditions (path and resource floors).
	rep, err := workload.Analyze(trial)
	if err != nil {
		// An unanalyzable trial workload means the candidate itself is
		// malformed relative to the running system (bad resource reference,
		// duplicate placement); reject rather than fail the control loop.
		return true, Decision{Stage: StageStatic, Reason: err.Error()}, nil
	}
	if !rep.Feasible() {
		return true, Decision{Stage: StageStatic, Reason: rep.String()}, nil
	}

	// Gate 2: price the candidate against the live mu vector.
	mode := c.eng.Config().WeightMode
	reason, err := priceScreen(trial, t, curve, mode, c.liveMu())
	if err != nil {
		return false, Decision{}, fmt.Errorf("admit: pricing %q: %w", t.Name, err)
	}
	if reason != "" {
		return true, Decision{Stage: StagePrice, Reason: reason}, nil
	}

	// Gate 3: bounded trial optimization on a scratch engine over the trial
	// workload, warm-started from the live one — the paper's sufficient
	// schedulability test (Section 5.4), run without disturbing the live
	// engine.
	scratch, err := core.NewEngine(trial, c.eng.Config())
	if err != nil {
		return true, Decision{Stage: StageTrial, Reason: err.Error()}, nil
	}
	defer scratch.Close()
	scratch.CarryFrom(c.eng)
	snap, ok := scratch.RunUntilConverged(c.cfg.TrialIters, trialRelTol, trialWindow, tol)
	d.TrialIters = snap.Iteration
	if !ok || !snap.Feasible(tol) {
		return true, Decision{Stage: StageTrial, Reason: fmt.Sprintf(
			"trial did not converge feasibly in %d iterations (resViol %.4f, pathViol %.4f)",
			snap.Iteration, snap.MaxResourceViolation, snap.MaxPathViolationFrac)}, nil
	}
	return false, Decision{}, nil
}

// Remove retires a resident task (a departure) and re-converges the
// remaining workload. Removing an unknown name is recorded as a no-op
// decision, not an error, so churn traces can replay departures of tasks
// that were never admitted.
func (c *Controller) Remove(name string) (Decision, error) {
	c.event++
	d := Decision{Event: c.event, Task: name, Kind: KindDeparture, Stage: StageLeave}

	w := c.eng.CurrentWorkload()
	idx := -1
	for i, t := range w.Tasks {
		if t.Name == name {
			idx = i
			break
		}
	}
	if idx < 0 {
		d.Reason = "not resident"
		return c.finish(d), nil
	}
	if len(w.Tasks) == 1 {
		return d, fmt.Errorf("admit: cannot remove %q: it is the last resident task", name)
	}
	w.Tasks = append(w.Tasks[:idx], w.Tasks[idx+1:]...)
	delete(w.Curves, name)
	if err := c.eng.ReplaceWorkload(w); err != nil {
		return d, fmt.Errorf("admit: removing %q: %w", name, err)
	}
	d.ReconvergeIters = c.reconverge()
	d.Admitted = true
	d.Reason = "departed"
	if c.placer != nil {
		c.placer.forget(name)
	}
	return c.finish(d), nil
}
