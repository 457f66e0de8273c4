package admit

import (
	"fmt"
	"slices"
	"strings"

	"lla/internal/obs"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// Candidate is a task offered for placed admission: a template task whose
// subtask resource bindings are advisory, per-subtask candidate resource
// sets, and the utility curve.
type Candidate struct {
	// Task is the template; Bind clones it and rewrites each subtask's
	// Resource field.
	Task *task.Task
	// Candidates[si] lists the resource IDs subtask si may bind to, tried
	// in order with first-wins tie-breaking. A nil (or missing) entry means
	// every workload resource, in workload order. Candidates itself may be
	// nil.
	Candidates [][]string
	// Curve is the instance's utility curve.
	Curve utility.Curve
}

// The rebalance trigger: when the ratio of the most to least expensive
// resource price exceeds skewRatio for skewWindow consecutive observations,
// MaybeRebalance looks for a move that improves a resident's binding cost by
// at least minGain (relative).
const (
	skewRatio  = 4
	skewWindow = 8
	minGain    = 0.2
)

// Placer binds candidate subtasks to the cheapest feasible resource at the
// live prices, and optionally re-places resident tasks when prices skew for
// long enough. Like the Controller it is single-goroutine.
type Placer struct {
	m    *obs.PlaceMetrics
	obsv *obs.Observer

	skewStreak int
	// placed tracks the candidates of admitted placed tasks (for the
	// rebalance pass); order keeps iteration deterministic.
	placed map[string]Candidate
	order  []string
}

// NewPlacer builds a placer.
func NewPlacer() *Placer {
	return &Placer{placed: make(map[string]Candidate)}
}

// Observe attaches placement metrics; nil detaches.
func (p *Placer) Observe(o *obs.Observer) {
	p.obsv, p.m = o, nil
	if o != nil && o.Metrics != nil {
		p.m = obs.NewPlaceMetrics(o.Metrics)
	}
}

// Bind returns a copy of the candidate's task with every subtask bound to
// its cheapest feasible candidate resource: argmin over the candidate set
// of mu_r × predicted share (the admission demand pricer), with mu(ri) the
// price of w.Resources[ri]. Subtasks bind greedily in order, never reusing
// a resource already chosen for the same task (the paper's
// distinct-resources assumption). Ties keep the earliest candidate, so
// bindings are deterministic.
func (p *Placer) Bind(w *workload.Workload, cand Candidate, mode task.WeightMode, mu func(ri int) float64) (*task.Task, error) {
	weights, err := cand.Task.Weights(mode)
	if err != nil {
		return nil, err
	}
	slope := cand.Curve.Slope(cand.Task.CriticalMs)
	bound := cand.Task.Clone()
	used := make(map[string]bool, len(bound.Subtasks))
	for si := range bound.Subtasks {
		s := &bound.Subtasks[si]
		options := p.options(w, cand, si)
		bestID, bestCost := "", 0.0
		for _, rid := range options {
			if used[rid] {
				continue
			}
			ri := resourceIndex(w, rid)
			if ri < 0 {
				return nil, fmt.Errorf("admit: candidate %s subtask %s: unknown resource %q", cand.Task.Name, s.Name, rid)
			}
			_, cost := subtaskCost(s, bound.CriticalMs, weights[si], slope, w.Resources[ri], mu(ri))
			if bestID == "" || cost < bestCost {
				bestID, bestCost = rid, cost
			}
		}
		if bestID == "" {
			return nil, fmt.Errorf("admit: candidate %s subtask %s: no feasible resource among %v", cand.Task.Name, s.Name, options)
		}
		s.Resource = bestID
		used[bestID] = true
		if p.m != nil {
			p.m.Bindings.Inc()
		}
	}
	return bound, nil
}

// options resolves the candidate resource IDs of subtask si.
func (p *Placer) options(w *workload.Workload, cand Candidate, si int) []string {
	if si < len(cand.Candidates) && len(cand.Candidates[si]) > 0 {
		return cand.Candidates[si]
	}
	ids := make([]string, len(w.Resources))
	for i, r := range w.Resources {
		ids[i] = r.ID
	}
	return ids
}

// noteSkew observes the live prices mu(0..n-1) once and reports whether the
// sustained skew trigger is armed.
func (p *Placer) noteSkew(n int, mu func(ri int) float64) bool {
	skewed := false
	if n > 0 {
		minMu, maxMu := mu(0), mu(0)
		for ri := 1; ri < n; ri++ {
			minMu, maxMu = min(minMu, mu(ri)), max(maxMu, mu(ri))
		}
		if minMu < 1e-12 {
			skewed = maxMu > 1e-12
		} else {
			skewed = maxMu/minMu > skewRatio
		}
	}
	if skewed {
		p.skewStreak++
	} else {
		p.skewStreak = 0
	}
	return p.skewStreak >= skewWindow
}

// place records an admitted placed task; forget drops it.
func (p *Placer) place(name string, cand Candidate) {
	if _, ok := p.placed[name]; !ok {
		p.order = append(p.order, name)
	}
	p.placed[name] = cand
}

func (p *Placer) forget(name string) {
	if _, ok := p.placed[name]; !ok {
		return
	}
	delete(p.placed, name)
	for i, n := range p.order {
		if n == name {
			p.order = append(p.order[:i], p.order[i+1:]...)
			break
		}
	}
}

// OfferPlaced binds the candidate with the attached placer and offers the
// bound task for admission. Placement failures (no feasible binding) are
// recorded as rejections at the "place" stage.
func (c *Controller) OfferPlaced(cand Candidate) (Decision, error) {
	if c.placer == nil {
		return Decision{}, fmt.Errorf("admit: OfferPlaced requires UsePlacer")
	}
	if cand.Task == nil {
		return Decision{}, fmt.Errorf("admit: placed offer without a task")
	}
	// One copy of the resident workload serves both: Bind reads only its
	// resources, and the offer extends it into the trial.
	trial := c.eng.CurrentWorkload()
	bound, err := c.placer.Bind(trial, cand, c.eng.Config().WeightMode, c.eng.MuAt)
	if err != nil {
		c.event++
		d := Decision{Event: c.event, Task: cand.Task.Name, Kind: KindArrival,
			Stage: StagePlace, Reason: err.Error()}
		c.strike(cand.Task.Name)
		return c.finish(d), nil
	}
	d, err := c.offer(bound, cand.Curve, trial)
	if err == nil && d.Admitted {
		c.placer.place(cand.Task.Name, Candidate{Task: bound, Candidates: cand.Candidates, Curve: cand.Curve})
	}
	return d, err
}

// MaybeRebalance observes the live price skew and, when it has persisted
// for the placer's window, re-places the single resident placed task with
// the largest relative binding-cost improvement (if it beats minGain). Call
// it once per controller event; it returns whether a move was enacted.
func (c *Controller) MaybeRebalance() (Decision, bool, error) {
	if c.placer == nil {
		return Decision{}, false, nil
	}
	mu := c.eng.MuAt
	if !c.placer.noteSkew(len(c.eng.Problem().Resources), mu) {
		return Decision{}, false, nil
	}
	w := c.eng.CurrentWorkload()
	mode := c.eng.Config().WeightMode

	bestGain, bestName := 0.0, ""
	var best Candidate // bestName's rebound candidate
	for _, name := range c.placer.order {
		pc := c.placer.placed[name]
		cur := w.TaskByName(name)
		if cur == nil {
			continue
		}
		curCost, _, err := taskCost(w, cur, pc.Curve, mode, mu)
		if err != nil || curCost <= 0 {
			continue
		}
		rb, err := c.placer.Bind(w, pc, mode, mu)
		if err != nil {
			continue
		}
		rbCost, _, err := taskCost(w, rb, pc.Curve, mode, mu)
		if err != nil {
			continue
		}
		if gain := (curCost - rbCost) / curCost; gain > bestGain {
			bestGain, bestName = gain, name
			best = Candidate{Task: rb, Candidates: pc.Candidates, Curve: pc.Curve}
		}
	}
	// Scan done: reset the streak either way so the trigger re-arms over a
	// fresh window instead of re-scanning every event.
	c.placer.skewStreak = 0
	if bestName == "" || bestGain < minGain {
		return Decision{}, false, nil
	}

	c.event++
	d := Decision{Event: c.event, Task: bestName, Kind: KindRebalance, Stage: StagePlace}
	w.Tasks[slices.IndexFunc(w.Tasks, func(t *task.Task) bool { return t.Name == bestName })] = best.Task
	iters, err := c.enact(w)
	if err != nil {
		return d, false, fmt.Errorf("admit: rebalancing %q: %w", bestName, err)
	}
	d.ReconvergeIters, d.Admitted = iters, true
	d.Reason = fmt.Sprintf("rebound to [%s], binding cost down %.0f%%", bindingString(best.Task), bestGain*100)
	c.placer.place(bestName, best)
	if c.placer.m != nil {
		c.placer.m.Rebalances.Inc()
	}
	return c.finish(d), true, nil
}

// bindingString renders a task's resource bindings for log messages.
func bindingString(t *task.Task) string {
	ids := make([]string, len(t.Subtasks))
	for i, s := range t.Subtasks {
		ids[i] = s.Resource
	}
	return strings.Join(ids, " ")
}
