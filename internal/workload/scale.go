package workload

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"

	"lla/internal/task"
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
// Every copy of a task shares one curve value. The copies are made by
// task.CloneN: they share backing arrays, so an append to one reallocates it.
func Replicate(w *Workload, factor int, critScale float64) (*Workload, error) {
	out, curves, err := replicate(w, factor, critScale, "")
	if err == nil {
		out.Curves = make(map[string]utility.Curve, len(out.Tasks))
		putCurves(out.Curves, out.Tasks, curves)
	}
	return out, err
}

// replicate is Replicate that leaves the Curves map to its caller: it returns
// each source task's curve, which all its copies share (putCurves). It also
// puts prefix in front of every task, subtask and resource name, slicing each
// copy's names from one string.
func replicate(w *Workload, factor int, critScale float64, prefix string) (*Workload, []utility.Curve, error) {
	if factor < 1 {
		return nil, nil, fmt.Errorf("workload: replication factor must be >= 1, got %d", factor)
	}
	if !(critScale > 0) || math.IsInf(critScale, 1) {
		return nil, nil, fmt.Errorf("workload: critical-time scale must be positive and finite, got %v", critScale)
	}
	n := len(w.Tasks)
	out := &Workload{Name: fmt.Sprintf("%s-x%d", w.Name, factor), Tasks: task.CloneN(w.Tasks, factor), Resources: slices.Clone(w.Resources)}
	curves := make([]utility.Curve, n)
	for i, t := range w.Tasks {
		curves[i] = w.Curves[t.Name]
		if lin, ok := curves[i].(utility.Linear); ok {
			curves[i] = utility.Linear{K: lin.K, CMs: t.CriticalMs * critScale}
		}
	}
	names := make([]*string, 0, len(out.Resources)+n+2*w.TotalSubtasks())
	for i := range out.Resources {
		names = append(names, &out.Resources[i].ID)
	}
	for k := 0; k < factor; k++ {
		suf := ""
		if k > 0 {
			suf = "-copy" + strconv.Itoa(k)
		}
		for i, c := range out.Tasks[k*n : (k+1)*n] {
			c.CriticalMs *= critScale
			names = append(names, &c.Name)
			for si := range c.Subtasks {
				s := &c.Subtasks[si]
				if names = append(names, &s.Name); k == 0 {
					names = append(names, &s.Resource)
				} else { // copy 0's resource names
					s.Resource = out.Tasks[i].Subtasks[si].Resource
				}
			}
		}
		affix(names, prefix, suf)
		names = names[:0]
	}
	return out, curves, nil
}

// affix rewrites every name *p in names to pre+*p+suf, slicing all of them
// from one string.
func affix(names []*string, pre, suf string) {
	size := len(names) * (len(pre) + len(suf))
	for _, p := range names {
		size += len(*p)
	}
	var b strings.Builder
	b.Grow(size)
	for _, p := range names {
		b.WriteString(pre)
		b.WriteString(*p)
		b.WriteString(suf)
	}
	all := b.String()
	for _, p := range names {
		n := len(pre) + len(*p) + len(suf)
		*p, all = all[:n], all[n:]
	}
}

// putCurves maps the name of tasks[j] to curves[j%len(curves)]: the copies
// replicate makes, in copy order, share their source task's curve.
func putCurves(m map[string]utility.Curve, tasks []*task.Task, curves []utility.Curve) {
	for j, t := range tasks {
		m[t.Name] = curves[j%len(curves)]
	}
}
