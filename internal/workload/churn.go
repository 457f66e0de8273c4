package workload

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"lla/internal/task"
	"lla/internal/utility"
)

// ChurnTemplate describes a replicable task shape for churn traces: a chain
// pipeline whose instances arrive and depart over time. Instantiate stamps
// out one concrete task per arrival.
type ChurnTemplate struct {
	// Name labels the template; instance names derive from it.
	Name string
	// CriticalMs is the end-to-end deadline of every instance.
	CriticalMs float64
	// StageExecMs holds the per-stage WCETs; the instance is a chain with
	// one subtask per stage.
	StageExecMs []float64
	// UtilityK scales the instance's linear utility curve (K*CriticalMs at
	// zero latency; the paper's simulations use K=2).
	UtilityK float64
	// PeriodMs is the instance trigger period (default 100).
	PeriodMs float64
}

// Validate checks the template parameters.
func (tpl ChurnTemplate) Validate() error {
	if tpl.Name == "" {
		return fmt.Errorf("workload: churn template has empty name")
	}
	if tpl.CriticalMs <= 0 {
		return fmt.Errorf("workload: churn template %s: critical time %v not positive", tpl.Name, tpl.CriticalMs)
	}
	if len(tpl.StageExecMs) == 0 {
		return fmt.Errorf("workload: churn template %s: no stages", tpl.Name)
	}
	for i, c := range tpl.StageExecMs {
		if c <= 0 {
			return fmt.Errorf("workload: churn template %s: stage %d WCET %v not positive", tpl.Name, i, c)
		}
	}
	return nil
}

// Instantiate stamps out one chain-task instance named name, binding stage i
// to resources[i], plus the instance's utility curve. len(resources) must
// match the stage count; admission-control callers typically pass
// placeholder bindings and let the price-guided placer rebind them.
func (tpl ChurnTemplate) Instantiate(name string, resources []string) (*task.Task, utility.Curve, error) {
	if err := tpl.Validate(); err != nil {
		return nil, nil, err
	}
	if len(resources) != len(tpl.StageExecMs) {
		return nil, nil, fmt.Errorf("workload: churn template %s: %d resources for %d stages",
			tpl.Name, len(resources), len(tpl.StageExecMs))
	}
	period := tpl.PeriodMs
	if period <= 0 {
		period = 100
	}
	b := task.NewBuilder(name, tpl.CriticalMs).Trigger(task.Periodic(period))
	names := make([]string, len(tpl.StageExecMs))
	for i, c := range tpl.StageExecMs {
		names[i] = fmt.Sprintf("%s-s%d", name, i)
		b.Subtask(names[i], resources[i], c)
	}
	b.Chain(names...)
	t, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return t, utility.Linear{K: tpl.UtilityK, CMs: tpl.CriticalMs}, nil
}

// ChurnEvent is one arrival or departure in a churn trace.
type ChurnEvent struct {
	// TimeMs is the event's position on the trace clock.
	TimeMs float64
	// Arrival is true for an arrival, false for a departure.
	Arrival bool
	// Name is the unique instance name (template name + arrival sequence).
	Name string
	// Template indexes ChurnConfig.Templates.
	Template int
}

// ChurnConfig parametrizes GenerateChurn.
type ChurnConfig struct {
	// Seed fixes the trace; equal seeds produce identical traces.
	Seed int64
	// MeanInterarrivalMs is the mean of the exponential inter-arrival gap
	// (Poisson arrival process).
	MeanInterarrivalMs float64
	// MeanLifetimeMs is the mean of each instance's exponential lifetime.
	MeanLifetimeMs float64
	// HorizonMs bounds the trace: arrivals stop at the horizon, and
	// departures falling beyond it are dropped (those instances stay
	// resident at trace end).
	HorizonMs float64
	// Templates are the task shapes instances are drawn from, uniformly.
	Templates []ChurnTemplate
}

// GenerateChurn produces a seeded arrival/departure trace: Poisson arrivals
// draw a template uniformly and an exponential lifetime, so every arrival
// has a matching departure (dropped only when it falls past the horizon).
// The trace is policy-independent — an admission policy that rejects an
// arrival simply skips the corresponding departure — and deterministic for
// a fixed seed: events are strictly ordered by time with ties broken by
// arrival sequence.
func GenerateChurn(cfg ChurnConfig) ([]ChurnEvent, error) {
	if cfg.MeanInterarrivalMs <= 0 {
		return nil, fmt.Errorf("workload: churn mean interarrival %v not positive", cfg.MeanInterarrivalMs)
	}
	if cfg.MeanLifetimeMs <= 0 {
		return nil, fmt.Errorf("workload: churn mean lifetime %v not positive", cfg.MeanLifetimeMs)
	}
	if cfg.HorizonMs <= 0 {
		return nil, fmt.Errorf("workload: churn horizon %v not positive", cfg.HorizonMs)
	}
	if len(cfg.Templates) == 0 {
		return nil, fmt.Errorf("workload: churn config has no templates")
	}
	for _, tpl := range cfg.Templates {
		if err := tpl.Validate(); err != nil {
			return nil, err
		}
	}

	// An event's key orders instances by arrival, and an instance's arrival
	// before its departure at the same instant.
	type keyed struct {
		ChurnEvent
		key int
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var trace []keyed
	clock := 0.0
	for n := 0; ; n++ {
		clock += rng.ExpFloat64() * cfg.MeanInterarrivalMs
		if clock >= cfg.HorizonMs {
			break
		}
		ti := rng.Intn(len(cfg.Templates))
		life := rng.ExpFloat64() * cfg.MeanLifetimeMs
		name := fmt.Sprintf("%s-a%d", cfg.Templates[ti].Name, n)
		trace = append(trace, keyed{ChurnEvent{TimeMs: clock, Arrival: true, Name: name, Template: ti}, 2 * n})
		if dep := clock + life; dep < cfg.HorizonMs {
			trace = append(trace, keyed{ChurnEvent{TimeMs: dep, Arrival: false, Name: name, Template: ti}, 2*n + 1})
		}
	}
	slices.SortFunc(trace, func(a, b keyed) int { return cmp.Or(cmp.Compare(a.TimeMs, b.TimeMs), a.key-b.key) })
	events := make([]ChurnEvent, len(trace))
	for i, e := range trace {
		events[i] = e.ChurnEvent
	}
	return events, nil
}
