package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// quartiles returns the first and third quartile of xs (at least two
// values) by the exclusive method, the one Python's statistics.quantiles
// uses by default, so spreads computed here match the benchmark driver's.
func quartiles(xs []float64) (q1, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	cut := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return cut(1), cut(3)
}

// spread is the interquartile range as a share of the median; 0 when there
// are too few values to have one.
func spread(xs []float64) float64 {
	if len(xs) < 2 || median(xs) == 0 {
		return 0
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / median(xs)
}

// loadSet reads the untraced outcomes of one result set: DIR/<workload>.json
// and, for a set of several runs, DIR/*/<workload>.json.
func loadSet(dir string) (map[string][]outcome, error) {
	set := make(map[string][]outcome)
	for _, pattern := range []string{"*.json", filepath.Join("*", "*.json")} {
		paths, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, err
		}
		for _, path := range paths {
			if strings.HasSuffix(path, ".layers.json") || strings.HasSuffix(path, ".trace.json") {
				continue
			}
			raw, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			var out outcome
			if err := json.Unmarshal(raw, &out); err != nil {
				return nil, fmt.Errorf("%s: %w", path, err)
			}
			if findWorkload(out.Stamp.Workload) != nil && !out.Stamp.Traced {
				set[out.Stamp.Workload] = append(set[out.Stamp.Workload], out)
			}
		}
	}
	if len(set) == 0 {
		return nil, fmt.Errorf("%s: no benchmark results", dir)
	}
	return set, nil
}

// comparable refuses results measured under different conditions: a delta
// between them would be the machine's or the input's, not the code's.
func comparable(runs []outcome) error {
	for _, o := range runs[1:] {
		a, b := runs[0].Stamp, o.Stamp
		if a.CPUs != b.CPUs || a.Seed != b.Seed {
			return fmt.Errorf("%s: cpus/seed %d/%d and %d/%d do not compare", a.Workload, a.CPUs, a.Seed, b.CPUs, b.Seed)
		}
	}
	return nil
}

// judge compares B's values of one lower-is-better metric against A's under
// the metric's bound. Where either set's own spread exceeds the bound the
// medians cannot resolve a change of that size, unless every B reads better
// than every A. A bound of 0 is a count that must repeat exactly.
func judge(a, b []float64, bound float64) (delta float64, verdict string) {
	ma, mb := median(a), median(b)
	if ma != 0 {
		delta = (mb - ma) / ma
	}
	sa, sb := append([]float64(nil), a...), append([]float64(nil), b...)
	sort.Float64s(sa)
	sort.Float64s(sb)
	switch {
	case sb[len(sb)-1] < sa[0]:
		return delta, "better"
	case spread(a) > bound || spread(b) > bound:
		return delta, "unresolved"
	case mb > ma*(1+bound):
		return delta, "REGRESSION"
	}
	return delta, "within bound"
}

// compareSets prints, per workload, the change of each of ISSUE 12's
// end-to-end metrics from set A to set B against its bound. It returns 1 when any metric regressed
// or could not be resolved, 2 when the sets cannot be compared at all.
func compareSets(dirA, dirB string, stdout, stderr io.Writer) int {
	a, err := loadSet(dirA)
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	b, err := loadSet(dirB)
	if err != nil {
		fmt.Fprintln(stderr, "bench: compare:", err)
		return 2
	}
	return printComparison(a, b, stdout, stderr)
}

func printComparison(a, b map[string][]outcome, stdout, stderr io.Writer) int {
	code := 0
	for _, w := range workloads {
		ra, rb := a[w.Name], b[w.Name]
		if len(ra) == 0 || len(rb) == 0 {
			continue
		}
		if err := comparable(append(append([]outcome(nil), ra...), rb...)); err != nil {
			fmt.Fprintln(stderr, "bench: compare: refused:", err)
			return 2
		}
		fmt.Fprintf(stdout, "== %s  (A: %d runs, B: %d runs, seed %d, cpus %d)\n", w.Name, len(ra), len(rb), ra[0].Stamp.Seed, ra[0].Stamp.CPUs)
		for _, d := range issueMetrics {
			if _, ok := ra[0].EndToEnd[d.Name]; !ok {
				continue // not a metric of this workload
			}
			va, vb := values(ra, d.Name), values(rb, d.Name)
			delta, verdict := judge(va, vb, d.Bound)
			if verdict == "REGRESSION" || verdict == "unresolved" {
				code = 1
			}
			fmt.Fprintf(stdout, "%-20s A %12.6g  B %12.6g %-5s %+7.2f%%  bound %4.0f%%  spread A %5.1f%% B %5.1f%%  %s\n",
				d.Name, median(va), median(vb), d.Unit, 100*delta, 100*d.Bound, 100*spread(va), 100*spread(vb), verdict)
		}
	}
	return code
}

func values(runs []outcome, metric string) []float64 {
	out := make([]float64, len(runs))
	for i, o := range runs {
		out[i] = o.EndToEnd[metric].Value
	}
	return out
}
