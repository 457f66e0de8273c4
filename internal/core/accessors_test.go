package core

// Readers only the tests use: by name, per path, and every residual.

// LatencyByName returns the latency assigned to the named subtask of the
// named task, or an error for unknown names.
func (e *Engine) LatencyByName(taskName, subtaskName string) (float64, error) {
	ti, si, err := e.findSubtask(taskName, subtaskName)
	if err != nil {
		return 0, err
	}
	return e.lat[e.p.subOff[ti]+int32(si)], nil
}

// ShareByName returns the share implied by the current latency of the named
// subtask.
func (e *Engine) ShareByName(taskName, subtaskName string) (float64, error) {
	ti, si, err := e.findSubtask(taskName, subtaskName)
	if err != nil {
		return 0, err
	}
	g := e.p.subOff[ti] + int32(si)
	return e.p.ShareAt(g, e.lat[g]), nil
}

// PathsThrough returns the task-local indices of the paths of task ti that
// contain subtask si. The slice aliases the problem.
func (p *Problem) PathsThrough(ti, si int) []int32 {
	g := p.subOff[ti] + int32(si)
	return p.through[p.throughOff[g]:p.throughOff[g+1]]
}

// KKTResidualsInto appends to dst[:0] the normalized Equation 7 residual of
// every interior subtask — the observer hook's kkt_* fields, from the same
// scan.
func (e *Engine) KKTResidualsInto(dst []float64) []float64 {
	return e.kktScan(kktFold{all: dst[:0], collect: true}).all
}

// row returns task ti's window of the per-subtask array a.
func (p *Problem) row(ti int, a []float64) []float64 { return a[p.subOff[ti]:p.subOff[ti+1]] }

// taskName and subtaskName read names from the source workload.
func (p *Problem) taskName(ti int) string { return p.Workload().Tasks[ti].Name }

func (p *Problem) subtaskName(ti, si int) string { return p.Workload().Tasks[ti].Subtasks[si].Name }
