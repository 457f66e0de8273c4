package workload

import (
	"encoding/json"
	"fmt"
	"os"

	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
)

// The JSON schema is a flat, explicit mirror of the in-memory model so that
// workloads can be generated, inspected and exchanged by the CLI tools.

type workloadJSON struct {
	Name      string         `json:"name"`
	Resources []resourceJSON `json:"resources"`
	Tasks     []taskJSON     `json:"tasks"`
}

type resourceJSON struct {
	ID           string  `json:"id"`
	Kind         string  `json:"kind"`
	Availability float64 `json:"availability"`
	LagMs        float64 `json:"lagMs"`
}

type taskJSON struct {
	Name       string        `json:"name"`
	CriticalMs float64       `json:"criticalMs"`
	Trigger    *triggerJSON  `json:"trigger,omitempty"`
	Curve      curveJSON     `json:"curve"`
	Subtasks   []subtaskJSON `json:"subtasks"`
	Edges      [][2]string   `json:"edges"`
}

type triggerJSON struct {
	Kind     string  `json:"kind"`
	PeriodMs float64 `json:"periodMs"`
	OnMs     float64 `json:"onMs,omitempty"`
	OffMs    float64 `json:"offMs,omitempty"`
}

type subtaskJSON struct {
	Name     string  `json:"name"`
	Resource string  `json:"resource"`
	ExecMs   float64 `json:"execMs"`
	MinShare float64 `json:"minShare,omitempty"`
}

type curveJSON struct {
	Kind string    `json:"kind"`
	K    float64   `json:"k,omitempty"`
	CMs  float64   `json:"cMs,omitempty"`
	A    float64   `json:"a,omitempty"`
	B    float64   `json:"b,omitempty"`
	Tau  float64   `json:"tau,omitempty"`
	Xs   []float64 `json:"xs,omitempty"`
	Ys   []float64 `json:"ys,omitempty"`
}

// MarshalJSON encodes the workload.
func (w *Workload) MarshalJSON() ([]byte, error) {
	out := workloadJSON{Name: w.Name}
	for _, r := range w.Resources {
		out.Resources = append(out.Resources, resourceJSON{
			ID: r.ID, Kind: r.Kind.String(), Availability: r.Availability, LagMs: r.LagMs,
		})
	}
	for _, t := range w.Tasks {
		tj := taskJSON{Name: t.Name, CriticalMs: t.CriticalMs}
		if t.Trigger.Kind != 0 {
			tj.Trigger = &triggerJSON{
				Kind: t.Trigger.Kind.String(), PeriodMs: t.Trigger.PeriodMs,
				OnMs: t.Trigger.OnMs, OffMs: t.Trigger.OffMs,
			}
		}
		cj, err := encodeCurve(w.Curves[t.Name])
		if err != nil {
			return nil, fmt.Errorf("workload: task %s: %w", t.Name, err)
		}
		tj.Curve = cj
		for _, s := range t.Subtasks {
			tj.Subtasks = append(tj.Subtasks, subtaskJSON{
				Name: s.Name, Resource: s.Resource, ExecMs: s.ExecMs, MinShare: s.MinShare,
			})
		}
		for _, e := range t.Edges() {
			tj.Edges = append(tj.Edges, [2]string{t.Subtasks[e[0]].Name, t.Subtasks[e[1]].Name})
		}
		out.Tasks = append(out.Tasks, tj)
	}
	return json.MarshalIndent(out, "", "  ")
}

// UnmarshalJSON decodes and validates a workload.
func (w *Workload) UnmarshalJSON(data []byte) error {
	var in workloadJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return fmt.Errorf("workload: decoding: %w", err)
	}
	w.Name = in.Name
	w.Resources = nil
	w.Tasks = nil
	w.Curves = make(map[string]utility.Curve, len(in.Tasks))
	for _, rj := range in.Resources {
		kind, err := parseKind(rj.Kind)
		if err != nil {
			return err
		}
		w.Resources = append(w.Resources, share.Resource{
			ID: rj.ID, Kind: kind, Availability: rj.Availability, LagMs: rj.LagMs,
		})
	}
	for _, tj := range in.Tasks {
		b := task.NewBuilder(tj.Name, tj.CriticalMs)
		if tj.Trigger != nil {
			tr, err := parseTrigger(*tj.Trigger)
			if err != nil {
				return fmt.Errorf("workload: task %s: %w", tj.Name, err)
			}
			b.Trigger(tr)
		}
		for _, sj := range tj.Subtasks {
			b.SubtaskOpts(task.Subtask{
				Name: sj.Name, Resource: sj.Resource, ExecMs: sj.ExecMs, MinShare: sj.MinShare,
			})
		}
		for _, e := range tj.Edges {
			b.Edge(e[0], e[1])
		}
		t, err := b.Build()
		if err != nil {
			return fmt.Errorf("workload: %w", err)
		}
		curve, err := decodeCurve(tj.Curve)
		if err != nil {
			return fmt.Errorf("workload: task %s: %w", tj.Name, err)
		}
		w.Tasks = append(w.Tasks, t)
		w.Curves[tj.Name] = curve
	}
	return w.Validate()
}

// Load resolves the built-in names "base" and "prototype", or reads a JSON
// workload file.
func Load(arg string) (*Workload, error) {
	switch arg {
	case "base":
		return Base(), nil
	case "prototype":
		return Prototype(), nil
	}
	raw, err := os.ReadFile(arg)
	if err != nil {
		return nil, err
	}
	var w Workload
	if err := json.Unmarshal(raw, &w); err != nil {
		return nil, fmt.Errorf("parsing workload %s: %w", arg, err)
	}
	return &w, nil
}

func parseKind(s string) (share.Kind, error) {
	switch s {
	case "cpu":
		return share.CPU, nil
	case "link":
		return share.Link, nil
	default:
		return 0, fmt.Errorf("workload: unknown resource kind %q", s)
	}
}

func parseTrigger(tj triggerJSON) (task.Trigger, error) {
	switch tj.Kind {
	case "periodic":
		return task.Periodic(tj.PeriodMs), nil
	case "poisson":
		return task.Poisson(tj.PeriodMs), nil
	case "bursty":
		return task.Bursty(tj.PeriodMs, tj.OnMs, tj.OffMs), nil
	default:
		return task.Trigger{}, fmt.Errorf("unknown trigger kind %q", tj.Kind)
	}
}

func encodeCurve(c utility.Curve) (curveJSON, error) {
	switch v := c.(type) {
	case utility.Linear:
		return curveJSON{Kind: "linear", K: v.K, CMs: v.CMs}, nil
	case utility.NegLatency:
		return curveJSON{Kind: "neg-latency"}, nil
	case utility.Quadratic:
		return curveJSON{Kind: "quadratic", A: v.A, B: v.B}, nil
	case utility.ExpPenalty:
		return curveJSON{Kind: "exp-penalty", A: v.A, B: v.B, Tau: v.Tau}, nil
	case *utility.PiecewiseLinear:
		if v != nil {
			xs, ys := v.Knots()
			return curveJSON{Kind: "piecewise", Xs: xs, Ys: ys}, nil
		}
	}
	return curveJSON{}, fmt.Errorf("curve type %T not serializable", c)
}

func decodeCurve(cj curveJSON) (utility.Curve, error) {
	switch cj.Kind {
	case "linear":
		return utility.Linear{K: cj.K, CMs: cj.CMs}, nil
	case "neg-latency":
		return utility.NegLatency{}, nil
	case "quadratic":
		return utility.Quadratic{A: cj.A, B: cj.B}, nil
	case "exp-penalty":
		return utility.ExpPenalty{A: cj.A, B: cj.B, Tau: cj.Tau}, nil
	case "piecewise":
		return utility.NewPiecewiseLinear(cj.Xs, cj.Ys)
	default:
		return nil, fmt.Errorf("unknown curve kind %q", cj.Kind)
	}
}
