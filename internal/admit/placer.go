package admit

import (
	"fmt"
	"math"
	"strings"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/share"
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
// of mu_r × predicted share (the newcomer demand model of EstimateDemand).
// Subtasks bind greedily in order, never reusing a resource already chosen
// for the same task (the paper's distinct-resources assumption). Ties keep
// the earliest candidate, so bindings are deterministic.
func (p *Placer) Bind(w *workload.Workload, cand Candidate, mode task.WeightMode, mu map[string]float64) (*task.Task, error) {
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
			r, ok := w.ResourceByID(rid)
			if !ok {
				return nil, fmt.Errorf("admit: candidate %s subtask %s: unknown resource %q", cand.Task.Name, s.Name, rid)
			}
			sh := predictShare(s.ExecMs, s.MinShare, bound.CriticalMs, weights[si], slope, r, effMu(mu[rid]))
			cost := mu[rid] * sh
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

// bindingCost prices a task's current binding: Σ mu_r × predicted share.
func (p *Placer) bindingCost(w *workload.Workload, t *task.Task, curve utility.Curve, mode task.WeightMode, mu map[string]float64) (float64, error) {
	weights, err := t.Weights(mode)
	if err != nil {
		return 0, err
	}
	slope := curve.Slope(t.CriticalMs)
	cost := 0.0
	for si, s := range t.Subtasks {
		r, ok := w.ResourceByID(s.Resource)
		if !ok {
			return 0, fmt.Errorf("admit: task %s subtask %s: unknown resource %q", t.Name, s.Name, s.Resource)
		}
		sh := predictShare(s.ExecMs, s.MinShare, t.CriticalMs, weights[si], slope, r, effMu(mu[s.Resource]))
		cost += mu[s.Resource] * sh
	}
	return cost, nil
}

// noteSkew observes the live prices once and reports whether the sustained
// skew trigger is armed.
func (p *Placer) noteSkew(mu map[string]float64) bool {
	minMu, maxMu, first := 0.0, 0.0, true
	for _, v := range mu {
		if first {
			minMu, maxMu, first = v, v, false
			continue
		}
		if v < minMu {
			minMu = v
		}
		if v > maxMu {
			maxMu = v
		}
	}
	skewed := false
	if !first {
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
	w := c.eng.CurrentWorkload()
	mode := c.eng.Config().WeightMode
	bound, err := c.placer.Bind(w, cand, mode, c.liveMu())
	if err != nil {
		c.event++
		d := Decision{Event: c.event, Task: cand.Task.Name, Kind: KindArrival,
			Stage: StagePlace, Reason: err.Error()}
		c.strike(cand.Task.Name)
		return c.finish(d), nil
	}
	d, err := c.Offer(bound, cand.Curve)
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
	mu := c.liveMu()
	if !c.placer.noteSkew(mu) {
		return Decision{}, false, nil
	}
	w := c.eng.CurrentWorkload()
	mode := c.eng.Config().WeightMode

	bestGain := 0.0
	bestName := ""
	var bestBound *task.Task
	var bestCand Candidate
	for _, name := range c.placer.order {
		pc := c.placer.placed[name]
		cur := w.TaskByName(name)
		if cur == nil {
			continue
		}
		curCost, err := c.placer.bindingCost(w, cur, pc.Curve, mode, mu)
		if err != nil || curCost <= 0 {
			continue
		}
		rb, err := c.placer.Bind(w, Candidate{Task: pc.Task, Candidates: pc.Candidates, Curve: pc.Curve}, mode, mu)
		if err != nil {
			continue
		}
		rbCost, err := c.placer.bindingCost(w, rb, pc.Curve, mode, mu)
		if err != nil {
			continue
		}
		if gain := (curCost - rbCost) / curCost; gain > bestGain {
			bestGain, bestName, bestBound, bestCand = gain, name, rb, pc
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
	for i, t := range w.Tasks {
		if t.Name == bestName {
			w.Tasks[i] = bestBound
			break
		}
	}
	if err := c.eng.ReplaceWorkload(w); err != nil {
		return d, false, fmt.Errorf("admit: rebalancing %q: %w", bestName, err)
	}
	d.ReconvergeIters = c.reconverge()
	d.Admitted = true
	d.Reason = fmt.Sprintf("rebound to [%s], binding cost down %.0f%%", bindingString(bestBound), bestGain*100)
	c.placer.place(bestName, Candidate{Task: bestBound, Candidates: bestCand.Candidates, Curve: bestCand.Curve})
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

// effMu floors a live price at core.InitialMu for demand prediction, so
// uncongested resources price a newcomer as a fresh engine would.
func effMu(mu float64) float64 {
	return math.Max(mu, core.InitialMu)
}

// predictShare is predictLatShare's share-only view.
func predictShare(execMs, minShare, criticalMs, weight, slope float64, r share.Resource, muEff float64) float64 {
	_, sh := predictLatShare(execMs, minShare, criticalMs, weight, slope, r, muEff)
	return sh
}
