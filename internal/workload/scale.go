package workload

import (
	"fmt"
	"math"

	"lla/internal/utility"
)

// Replicate returns a workload containing factor copies of every task in w
// (sharing w's resources), as in the scalability experiment of Section 5.3:
// "for each of the tasks we add another task with the same characteristics".
// Copy k > 0 of a task or subtask is named name+"-copy"+k. critScale, which
// must be positive and finite, multiplies every critical time, implementing
// the paper's overprovisioning ("we ensure that schedulability is maintained
// ... by setting a high enough critical time"); pass 1 to keep the original
// critical times, which for factor >= 2 yields the unschedulable workload of
// the Section 5.4 schedulability test.
//
// Linear curves are rebuilt against the scaled critical time, so that
// f_i(lat) = k*C_i' - lat keeps its shape; other curves are reused as-is.
func Replicate(w *Workload, factor int, critScale float64) (*Workload, error) {
	return replicate(w, factor, critScale, "")
}

// replicate is Replicate that also puts prefix in front of every task,
// subtask and resource name, building each name once.
func replicate(w *Workload, factor int, critScale float64, prefix string) (*Workload, error) {
	if factor < 1 {
		return nil, fmt.Errorf("workload: replication factor must be >= 1, got %d", factor)
	}
	if !(critScale > 0) || math.IsInf(critScale, 1) {
		return nil, fmt.Errorf("workload: critical-time scale must be positive and finite, got %v", critScale)
	}
	out := &Workload{
		Name:      fmt.Sprintf("%s-x%d", w.Name, factor),
		Resources: append(w.Resources[:0:0], w.Resources...),
		Curves:    make(map[string]utility.Curve, len(w.Tasks)*factor),
	}
	for i := range out.Resources {
		out.Resources[i].ID = prefix + out.Resources[i].ID
	}
	for k := 0; k < factor; k++ {
		// Copy 0 takes the prefix. Copy k > 0 clones copy 0, sharing its
		// resource names and adding the suffix to the others.
		pre, suf, src := prefix, "", w.Tasks
		if k > 0 {
			pre, suf, src = "", fmt.Sprintf("-copy%d", k), out.Tasks[:len(w.Tasks)]
		}
		for i, t := range src {
			c := t.Clone()
			c.Name = pre + t.Name + suf
			for si := range c.Subtasks {
				s := &c.Subtasks[si]
				s.Name, s.Resource = pre+s.Name+suf, pre+s.Resource
			}
			c.CriticalMs = w.Tasks[i].CriticalMs * critScale
			curve := w.Curves[w.Tasks[i].Name]
			if lin, ok := curve.(utility.Linear); ok {
				curve = utility.Linear{K: lin.K, CMs: c.CriticalMs}
			}
			out.Tasks = append(out.Tasks, c)
			out.Curves[c.Name] = curve
		}
	}
	return out, nil
}
