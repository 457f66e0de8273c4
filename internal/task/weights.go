package task

import "fmt"

// WeightMode selects how subtask weights are derived from the subtask graph
// for the utility-variant formulations of Section 3.2.
type WeightMode int

const (
	// WeightSum gives every subtask weight 1: the task utility becomes a
	// function of the plain sum of subtask latencies (the paper's "sum"
	// variant).
	WeightSum WeightMode = iota + 1
	// WeightPathNormalized weights each subtask by the fraction of
	// root-to-leaf paths that traverse it. The weighted latency sum then
	// equals the mean path latency. This is the paper's "path-weighted"
	// variant with the proportionality constant fixed by normalization; the
	// KKT analysis of Table 1 (see DESIGN.md) shows this is the variant the
	// published numbers correspond to.
	WeightPathNormalized
	// WeightPathRaw weights each subtask by the absolute number of paths
	// through it (unnormalized); provided for ablation.
	WeightPathRaw
)

// String implements fmt.Stringer.
func (m WeightMode) String() string {
	switch m {
	case WeightSum:
		return "sum"
	case WeightPathNormalized:
		return "path-weighted"
	case WeightPathRaw:
		return "path-weighted-raw"
	default:
		return fmt.Sprintf("WeightMode(%d)", int(m))
	}
}

// Weights computes the per-subtask weights for the given mode.
func (t *Task) Weights(mode WeightMode) ([]float64, error) {
	w := make([]float64, len(t.Subtasks))
	var paths [][]int
	if mode == WeightPathNormalized || mode == WeightPathRaw {
		var err error
		if paths, err = t.Paths(); err != nil {
			return nil, err
		}
		for _, p := range paths {
			for _, s := range p {
				w[s]++
			}
		}
	}
	if err := mode.FromPathCounts(w, len(paths)); err != nil {
		return nil, fmt.Errorf("task %s: %w", t.Name, err)
	}
	return w, nil
}

// FromPathCounts turns path counts into the mode's weights in place: w[s] of
// a task's npaths root-to-leaf paths run through subtask s. Counts are small
// integers, exact in a float64.
func (m WeightMode) FromPathCounts(w []float64, npaths int) error {
	switch m {
	case WeightSum:
		for i := range w {
			w[i] = 1
		}
	case WeightPathRaw: // the counts are the weights
	case WeightPathNormalized:
		for i := range w {
			w[i] /= float64(npaths)
		}
	default:
		return fmt.Errorf("unknown weight mode %d", int(m))
	}
	return nil
}

// WeightedLatencyMs returns the weighted sum of subtask latencies under the
// given weights.
func WeightedLatencyMs(weights, latMs []float64) (float64, error) {
	if len(weights) != len(latMs) {
		return 0, fmt.Errorf("task: weight/latency length mismatch %d != %d", len(weights), len(latMs))
	}
	sum := 0.0
	for i, w := range weights {
		sum += w * latMs[i]
	}
	return sum, nil
}
