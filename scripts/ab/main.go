// Command ab compares the repository benchmark (BENCHMARK.json, bench/) of
// two checkouts — directories or git revisions — by alternating pairs of
// untraced runs, rotating which side goes first:
//
//	go run ./scripts/ab [-n 10] [-workloads a,b] OLD NEW
//
// Per workload and end-to-end metric it prints OLD's median and quartiles,
// NEW's median, the pairs NEW won and a verdict against the metric's bound:
// "worse" past the bound, "better" on at least 9 pairs in 10 with a median
// gain beyond OLD's interquartile range, else "same". It exits 1 when a
// metric is worse or a run failed a check.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"text/tabwriter"
)

// spec is the part of BENCHMARK.json the comparison reads.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metric `json:"end_to_end"`
}

// metric is one end-to-end metric and its regression bound (relative).
type metric struct {
	Name   string  `json:"name"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// run is what one bench invocation reports on its last line.
type run struct {
	Correct   bool `json:"correct"`
	Attempted int  `json:"attempted"`
	Failed    int  `json:"failed"`
	Metrics   map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

// parseRun reads a bench run's stdout: a human table, then one JSON object on
// the last non-empty line.
func parseRun(out []byte) (run, error) {
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	last := bytes.TrimSpace(lines[len(lines)-1])
	if len(last) == 0 || last[0] != '{' {
		return run{}, errors.New("no JSON result line")
	}
	var r run
	if err := json.Unmarshal(last, &r); err != nil {
		return run{}, fmt.Errorf("result line: %w", err)
	}
	if r.Metrics == nil {
		return run{}, errors.New("result line has no metrics")
	}
	return r, nil
}

// quantile returns the q-quantile of sorted xs by linear interpolation.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return xs[len(xs)-1]
	}
	return xs[lo] + (pos-float64(lo))*(xs[lo+1]-xs[lo])
}

// verdict judges NEW against OLD on one metric from its paired samples.
type verdict struct {
	oldMed, oldQ1, oldQ3, newMed float64
	won, pairs                   int
	call                         string
}

func judge(m metric, olds, news []float64) verdict {
	lower := m.Better == "lower"
	v := verdict{pairs: len(olds)}
	for i := range olds {
		if (lower && news[i] < olds[i]) || (!lower && news[i] > olds[i]) {
			v.won++
		}
	}
	o, n := slices.Clone(olds), slices.Clone(news)
	slices.Sort(o)
	slices.Sort(n)
	v.oldMed, v.oldQ1, v.oldQ3, v.newMed = quantile(o, 0.5), quantile(o, 0.25), quantile(o, 0.75), quantile(n, 0.5)
	gain := v.oldMed - v.newMed // positive when NEW is better
	if !lower {
		gain = -gain
	}
	switch {
	case -gain > m.Bound*math.Abs(v.oldMed):
		v.call = "worse"
	case 10*v.won >= 9*v.pairs && gain > v.oldQ3-v.oldQ1:
		v.call = "better"
	default:
		v.call = "same"
	}
	return v
}

// checkout returns a directory holding ref: ref itself when it is one, else
// a git archive export of the revision under tmp.
func checkout(ref, tmp string) (string, error) {
	if st, err := os.Stat(ref); err == nil && st.IsDir() {
		return filepath.Abs(ref)
	}
	dir, err := os.MkdirTemp(tmp, "src-")
	if err != nil {
		return "", err
	}
	cmd := exec.Command("sh", "-c", `git archive --format=tar "$1" | tar -x -C "$2"`, "sh", ref, dir)
	cmd.Stderr = os.Stderr
	if err := cmd.Run(); err != nil {
		return "", fmt.Errorf("exporting %s: %w", ref, err)
	}
	return dir, nil
}

func main() {
	n := flag.Int("n", 10, "alternating pairs per workload")
	only := flag.String("workloads", "", "comma-separated workloads (default: every workload of the spec)")
	flag.Parse()
	if flag.NArg() != 2 || *n < 1 {
		flag.Usage()
		os.Exit(2)
	}
	if err := compare("BENCHMARK.json", *only, *n, flag.Arg(0), flag.Arg(1), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "ab:", err)
		os.Exit(1)
	}
}

// compare builds both sides, runs the pairs and prints the report.
func compare(specPath, only string, n int, oldRef, newRef string, w io.Writer) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var workloads []string
	for _, wl := range sp.Workloads {
		if only == "" || slices.Contains(strings.Split(only, ","), wl.Name) {
			workloads = append(workloads, wl.Name)
		}
	}
	tmp, err := os.MkdirTemp("", "ab-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	var dirs, bins [2]string
	for i, ref := range []string{oldRef, newRef} {
		if dirs[i], err = checkout(ref, tmp); err != nil {
			return err
		}
		bins[i] = filepath.Join(tmp, fmt.Sprintf("bench-%d", i))
		build := exec.Command("go", "build", "-o", bins[i], "./bench")
		build.Dir, build.Stderr = dirs[i], os.Stderr
		if err := build.Run(); err != nil {
			return fmt.Errorf("building %s: %w", ref, err)
		}
	}

	tw := tabwriter.NewWriter(w, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\told p50\told q1..q3\tnew p50\tchange\twon\tbound\tverdict\n")
	bad := false
	for _, wl := range workloads {
		samples := [2]map[string][]float64{{}, {}}
		for p := 0; p < n; p++ {
			for k := 0; k < 2; k++ {
				side := (p + k) % 2 // rotate which side goes first
				cmd := exec.Command(bins[side], "-workload", wl, "-trace", "0", "-out", filepath.Join(tmp, "out"))
				cmd.Dir = dirs[side]
				out, err := cmd.Output()
				if err != nil {
					return fmt.Errorf("%s side %d: %w", wl, side, err)
				}
				r, err := parseRun(out)
				if err != nil {
					return fmt.Errorf("%s side %d: %w", wl, side, err)
				}
				if !r.Correct || r.Failed > 0 {
					fmt.Fprintf(os.Stderr, "ab: %s pair %d side %d: %d of %d checks failed\n", wl, p, side, r.Failed, r.Attempted)
					bad = true
				}
				for name, v := range r.Metrics {
					samples[side][name] = append(samples[side][name], v.Value)
				}
			}
			fmt.Fprintf(os.Stderr, "ab: %s pair %d/%d done\n", wl, p+1, n)
		}
		for _, m := range sp.EndToEnd {
			olds, news := samples[0][m.Name], samples[1][m.Name]
			if len(olds) != n || len(news) != n {
				continue
			}
			v := judge(m, olds, news)
			bad = bad || v.call == "worse"
			fmt.Fprintf(tw, "%s\t%s\t%.4g\t%.4g..%.4g\t%.4g\t%+.1f%%\t%d/%d\t%.0f%%\t%s\n", wl, m.Name,
				v.oldMed, v.oldQ1, v.oldQ3, v.newMed, 100*(v.newMed-v.oldMed)/v.oldMed, v.won, v.pairs, 100*m.Bound, v.call)
		}
	}
	if err := tw.Flush(); err != nil {
		return err
	}
	if bad {
		return errors.New("a metric got worse beyond its bound or a run failed a check")
	}
	return nil
}
