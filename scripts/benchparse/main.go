// Command benchparse turns `go test -bench -json` output (the test2json
// event stream) into a compact BENCH_core.json: one record per benchmark
// with its iteration count and every reported metric (ns/op, B/op,
// allocs/op, and custom metrics like skipped_pct).
//
//	go test -run '^$' -bench . -json . | go run ./scripts/benchparse -o BENCH_core.json -check
//
// -check enforces the regression gates below (converged-step skipping, solver
// rounds, recovery, wire size, fleet convergence and parallelism); -prev adds
// the gates against a previous report. Any failure makes the exit code 1.
package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
)

// event is the subset of the test2json stream benchparse needs.
type event struct {
	Action string `json:"Action"`
	Output string `json:"Output"`
}

// record is one parsed benchmark result.
type record struct {
	Name    string             `json:"name"`
	Iters   int64              `json:"iters"`
	Metrics map[string]float64 `json:"metrics"`
}

// report is the BENCH_core.json document.
type report struct {
	Benchmarks []record `json:"benchmarks"`
}

func main() {
	out := flag.String("o", "BENCH_core.json", "output path for the parsed benchmark report")
	check := flag.Bool("check", false, "enforce the regression gates on this run's results")
	prev := flag.String("prev", "",
		"path to a prior report: fail, naming them, if gated benchmarks it contains are missing from this run or a bounded metric regressed past its tolerance")
	flag.Parse()

	recs, err := parse(os.Stdin)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchparse:", err)
		os.Exit(1)
	}
	if len(recs) == 0 {
		fmt.Fprintln(os.Stderr, "benchparse: no benchmark results in input")
		os.Exit(1)
	}
	sort.Slice(recs, func(i, j int) bool { return recs[i].Name < recs[j].Name })
	doc, err := json.MarshalIndent(report{Benchmarks: recs}, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchparse:", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*out, append(doc, '\n'), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, "benchparse:", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "benchparse: %d benchmarks -> %s\n", len(recs), *out)

	var errs []error
	if *check {
		errs = append(errs, checkGates(gates, recs))
	}
	if *prev != "" {
		errs = append(errs, checkNoGatedLoss(*prev, recs), checkPrevBounds(*prev, recs))
	}
	if err := errors.Join(errs...); err != nil {
		fmt.Fprintln(os.Stderr, "benchparse: CHECK FAILED:", err)
		os.Exit(1)
	}
}

// parse consumes a test2json stream and extracts benchmark result lines.
// test2json splits a benchmark result across output events (the name flushes
// on the tab, the timings arrive separately), so output fragments are
// reassembled into logical lines before parsing. Non-JSON input is tolerated
// (plain `go test -bench` output works too).
func parse(f *os.File) ([]record, error) {
	var recs []record
	var buf strings.Builder
	flush := func(chunk string) {
		buf.WriteString(chunk)
		for {
			s := buf.String()
			nl := strings.IndexByte(s, '\n')
			if nl < 0 {
				return
			}
			if r, ok := parseBenchLine(strings.TrimSpace(s[:nl])); ok {
				recs = append(recs, r)
			}
			buf.Reset()
			buf.WriteString(s[nl+1:])
		}
	}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1024*1024), 1024*1024)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "{") {
			var ev event
			if err := json.Unmarshal([]byte(line), &ev); err != nil || ev.Action != "output" {
				continue
			}
			flush(ev.Output)
			continue
		}
		flush(line + "\n")
	}
	flush("\n") // terminate a trailing partial line
	return recs, sc.Err()
}

// parseBenchLine parses one benchmark result line:
//
//	BenchmarkFoo/sub-8   123456   987.6 ns/op   42.0 custom_metric   0 B/op   0 allocs/op
func parseBenchLine(s string) (record, bool) {
	if !strings.HasPrefix(s, "Benchmark") {
		return record{}, false
	}
	fields := strings.Fields(s)
	if len(fields) < 4 {
		return record{}, false
	}
	iters, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return record{}, false
	}
	r := record{Name: fields[0], Iters: iters, Metrics: make(map[string]float64)}
	for i := 2; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			return record{}, false
		}
		r.Metrics[fields[i+1]] = v
	}
	if _, ok := r.Metrics["ns/op"]; !ok {
		return record{}, false
	}
	return r, true
}

// gate is one -check regression gate: bench's metric must stand in relation
// op (>=, <=, < or ==) to k, or to k times refMetric of the ref benchmark
// (which may be bench itself). A bench ending in "/" is a family:
// the gate holds for each member but ref, and members without ref are an
// error. Otherwise an absent bench skips the gate (narrower runs stay usable)
// unless need is set, or ref is present: one of a pair without the other is
// an error. A present record without the metric fails. minCPUs skips the
// gate, saying so, when the record's cpus metric is below it (the table
// requires that metric of the one record it gates so).
type gate struct {
	bench, metric, op string
	k                 float64
	ref, refMetric    string
	need              bool
	minCPUs           float64
}

// gates are the -check gates: the frozen fixed point skips at least 99 % of
// its controller solves at 0 allocs/op (its ns/op is bounded by prevBounds);
// no accelerated price solver needs more rounds than the gradient; a warm
// restart from a checkpoint re-converges in fewer rounds than a cold one; the
// million-subtask fleet certifies, and the parallel run (16 concurrent shard
// sweeps) in exactly its rounds — parallel sweeps leave no scheduling
// fingerprint — and on at least 4 CPUs in half its wall-clock; on the
// clustered workload the fleet's boundary rounds stay within twice the
// single engine's KKT rounds (SHARDING.md).
var gates = []gate{
	{bench: "BenchmarkEngineStepConverged", metric: "skipped_pct", op: ">=", k: 99, need: true},
	{bench: "BenchmarkEngineStepConverged", metric: "allocs/op", op: "==", need: true},
	{bench: "BenchmarkRoundsToConverge/", metric: "rounds", op: "<=", k: 1, ref: "BenchmarkRoundsToConverge/gradient", refMetric: "rounds"},
	{bench: "BenchmarkRecoveryRounds/warm", metric: "rounds", op: "<", k: 1, ref: "BenchmarkRecoveryRounds/cold", refMetric: "rounds"},
	{bench: "BenchmarkFleetConverge/1m", metric: "converged", op: "==", k: 1},
	{bench: "BenchmarkFleetConverge/clustered", metric: "single_rounds", op: ">=", k: 1},
	{bench: "BenchmarkFleetConverge/clustered", metric: "rounds", op: "<=", k: 2, ref: "BenchmarkFleetConverge/clustered", refMetric: "single_rounds"},
	{bench: "BenchmarkFleetConverge/1m-parallel", metric: "converged", op: "==", k: 1},
	{bench: "BenchmarkFleetConverge/1m-parallel", metric: "rounds", op: "==", k: 1, ref: "BenchmarkFleetConverge/1m", refMetric: "rounds"},
	{bench: "BenchmarkFleetConverge/1m-parallel", metric: "cpus", op: ">=", k: 1},
	{bench: "BenchmarkFleetConverge/1m-parallel", metric: "ns/op", op: "<=", k: 0.5, ref: "BenchmarkFleetConverge/1m", refMetric: "ns/op", minCPUs: 4},
}

// checkGates enforces gs on recs and returns the first breach.
func checkGates(gs []gate, recs []record) error {
	byName := make(map[string]record, len(recs))
	for _, r := range recs {
		byName[trimCPUSuffix(r.Name)] = r
	}
	metric := func(r record, m string) (float64, error) {
		v, ok := r.Metrics[m]
		if !ok {
			return 0, fmt.Errorf("%s reported no %s metric", r.Name, m)
		}
		return v, nil
	}
	for _, g := range gs {
		_, haveRef := byName[g.ref]
		var names []string
		if strings.HasSuffix(g.bench, "/") {
			for name := range byName {
				if strings.HasPrefix(name, g.bench) && name != g.ref {
					names = append(names, name)
				}
			}
			sort.Strings(names)
		} else if _, ok := byName[g.bench]; ok {
			names = []string{g.bench}
		} else if g.need || haveRef {
			return fmt.Errorf("%s missing from input", g.bench)
		}
		for _, name := range names {
			r := byName[name]
			v, err := metric(r, g.metric)
			if err != nil {
				return err
			}
			bound, of := g.k, ""
			if g.refMetric != "" {
				ref, ok := byName[g.ref]
				if !ok {
					return fmt.Errorf("%s missing from input", g.ref)
				}
				rv, err := metric(ref, g.refMetric)
				if err != nil {
					return err
				}
				bound, of = g.k*rv, fmt.Sprintf(" (%g x %s %s)", g.k, trimCPUSuffix(ref.Name), g.refMetric)
			}
			if cpus := r.Metrics["cpus"]; cpus < g.minCPUs {
				fmt.Fprintf(os.Stderr, "benchparse: check SKIPPED: %s %s %s%s needs >= %g CPUs, run had %g\n", name, g.metric, g.op, of, g.minCPUs, cpus)
				continue
			}
			ok := v <= bound
			switch g.op {
			case ">=":
				ok = v >= bound
			case "<":
				ok = v < bound
			case "==":
				ok = v == bound
			}
			if !ok {
				return fmt.Errorf("%s %s %g, want %s %g%s", name, g.metric, v, g.op, bound, of)
			}
			fmt.Fprintf(os.Stderr, "benchparse: check passed: %s %s %g %s %g%s\n", name, g.metric, v, g.op, bound, of)
		}
	}
	return nil
}

// prevBounds is the table of regression gates against the -prev report: the
// metric of the named benchmark may exceed the previous report's by at most
// tol (relative). Allocation counts repeat run to run, so their bound is
// tight — the exit Snapshot's counts row chunks, and a return to a row per
// task would multiply it — and a frame's size is exact — the batched PRICE frame of
// BenchmarkWireCodec may not grow by a byte (PROTOCOL.md fixes its layout).
// So is a round count: the million-subtask fleet may certify in fewer
// aggregator rounds than the report records, never in more (56 before the
// aggregator took Newton steps; a silent return there must fail).
// The one wall-clock bound is loose because CI compares its own runner with
// the machine that recorded the committed report — it catches the skipping
// going away (3.5x), not a few percent.
var prevBounds = []struct {
	bench, metric string
	tol           float64
}{
	{"BenchmarkEngineStepConverged", "ns/op", 1.0},
	{"BenchmarkEngineSnapshot", "allocs/op", 0.05},
	{"BenchmarkFleetBuild", "allocs/op", 0.05},
	{"BenchmarkFleetReplace", "allocs/op", 0.05},
	{"BenchmarkWireCodec", "binary_bytes", 0},
	{"BenchmarkWireCodec", "allocs/op", 0.05},
	{"BenchmarkFleetConverge/1m", "rounds", 0},
}

// isGated reports whether a (GOMAXPROCS-suffix-stripped) benchmark name is
// one a gate or a prevBounds row reads, or a member of a gated family. A
// report that silently drops one (a renamed benchmark, a narrowed bench
// regex) would turn its gate into a no-op — checkNoGatedLoss makes that loud
// instead.
func isGated(name string) bool {
	for _, g := range gates {
		if name == g.bench || name == g.ref || strings.HasSuffix(g.bench, "/") && strings.HasPrefix(name, g.bench) {
			return true
		}
	}
	for _, b := range prevBounds {
		if name == b.bench {
			return true
		}
	}
	return false
}

// checkNoGatedLoss fails, naming each one, when a gated benchmark present
// in the previous report is missing from the current run. Names are
// compared with the -GOMAXPROCS suffix stripped so a runner-width change is
// not a diff. A missing previous report skips the check (first run).
func checkNoGatedLoss(prevPath string, recs []record) error {
	prev, err := loadPrev(prevPath)
	if prev == nil {
		return err
	}
	have := make(map[string]bool, len(recs))
	for _, r := range recs {
		have[trimCPUSuffix(r.Name)] = true
	}
	var missing []string
	for _, r := range prev.Benchmarks {
		name := trimCPUSuffix(r.Name)
		if isGated(name) && !have[name] {
			missing = append(missing, name)
		}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("gated benchmark(s) present in %s but missing from this run: %s — a gate just became a no-op",
			prevPath, strings.Join(missing, ", "))
	}
	fmt.Fprintf(os.Stderr, "benchparse: check passed: every gated benchmark from %s is present\n", prevPath)
	return nil
}

// loadPrev reads the previous report; a missing one is (nil, nil) — a first
// run has nothing to be compared against.
func loadPrev(prevPath string) (*report, error) {
	raw, err := os.ReadFile(prevPath)
	if os.IsNotExist(err) {
		fmt.Fprintf(os.Stderr, "benchparse: no previous report at %s, skipping checks against it\n", prevPath)
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("reading previous report: %w", err)
	}
	var prev report
	if err := json.Unmarshal(raw, &prev); err != nil {
		return nil, fmt.Errorf("parsing previous report %s: %w", prevPath, err)
	}
	return &prev, nil
}

// checkPrevBounds enforces prevBounds, naming every breach. A row whose
// benchmark or metric is absent on either side is skipped: absence from this
// run is checkNoGatedLoss's finding, absence from the previous report means
// the row is new.
func checkPrevBounds(prevPath string, recs []record) error {
	prev, err := loadPrev(prevPath)
	if prev == nil {
		return err
	}
	metric := func(recs []record, bench, name string) (float64, bool) {
		for _, r := range recs {
			if trimCPUSuffix(r.Name) == bench {
				v, ok := r.Metrics[name]
				return v, ok
			}
		}
		return 0, false
	}
	var breaches []string
	checked := 0
	for _, g := range prevBounds {
		was, okWas := metric(prev.Benchmarks, g.bench, g.metric)
		now, okNow := metric(recs, g.bench, g.metric)
		if !okWas || !okNow {
			continue
		}
		checked++
		if now > was*(1+g.tol) {
			breaches = append(breaches, fmt.Sprintf("%s %s %.0f, previous report %.0f (+%.1f%%, bound +%.0f%%)",
				g.bench, g.metric, now, was, 100*(now/was-1), 100*g.tol))
		}
	}
	if len(breaches) > 0 {
		return fmt.Errorf("regression against %s: %s", prevPath, strings.Join(breaches, "; "))
	}
	fmt.Fprintf(os.Stderr, "benchparse: check passed: %d of %d bounded metrics compared with %s, all within tolerance\n", checked, len(prevBounds), prevPath)
	return nil
}

// trimCPUSuffix strips go test's -GOMAXPROCS sub-benchmark suffix (the
// solver name itself may contain dashes, so only a trailing all-digit
// segment is removed).
func trimCPUSuffix(name string) string {
	i := strings.LastIndexByte(name, '-')
	if i < 0 {
		return name
	}
	for _, c := range name[i+1:] {
		if c < '0' || c > '9' {
			return name
		}
	}
	if i+1 == len(name) {
		return name
	}
	return name[:i]
}
