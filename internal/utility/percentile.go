package utility

import (
	"fmt"
	"math"
)

// SubtaskPercentile implements the percentile-composition rule of Section
// 2.1: if a task's utility is specified over the p-th percentile of its
// end-to-end latency and a path has n subtasks, each subtask latency bound
// must be taken at the q-th percentile with
//
//	q = p^(1/n) * 100^((n-1)/n),
//
// so that (q/100)^n = p/100 — i.e. n independent per-subtask bounds compose
// into the desired end-to-end percentile. Percentiles are expressed in
// [0, 100]; n must be positive.
func SubtaskPercentile(pathPercentile float64, n int) (float64, error) {
	if pathPercentile <= 0 || pathPercentile > 100 {
		return 0, fmt.Errorf("utility: path percentile %v outside (0,100]", pathPercentile)
	}
	if n <= 0 {
		return 0, fmt.Errorf("utility: path length must be positive, got %d", n)
	}
	nf := float64(n)
	q := math.Pow(pathPercentile, 1/nf) * math.Pow(100, (nf-1)/nf)
	return q, nil
}
