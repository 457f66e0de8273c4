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

	if *check {
		for _, gate := range []func([]record) error{checkConvergedStep, checkAcceleratedRounds,
			checkRecoveryWarmFaster, checkFleetConverge, checkFleetParallel} {
			if err := gate(recs); err != nil {
				fmt.Fprintln(os.Stderr, "benchparse: CHECK FAILED:", err)
				os.Exit(1)
			}
		}
	}
	if *prev != "" {
		for _, gate := range []func(string, []record) error{checkNoGatedLoss, checkPrevBounds} {
			if err := gate(*prev, recs); err != nil {
				fmt.Fprintln(os.Stderr, "benchparse: CHECK FAILED:", err)
				os.Exit(1)
			}
		}
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

// checkConvergedStep enforces the active-set gate on the frozen fixed point
// (BenchmarkEngineStepConverged): at least 99 % of controller solves skipped
// and no allocation. Its ns/op is bounded against the previous report by
// prevBounds. The benchmark must be present: it is in every bench.sh run.
func checkConvergedStep(recs []record) error {
	for _, r := range recs {
		if trimCPUSuffix(r.Name) != "BenchmarkEngineStepConverged" {
			continue
		}
		skipped, okS := r.Metrics["skipped_pct"]
		allocs, okA := r.Metrics["allocs/op"]
		if !okS || !okA {
			return fmt.Errorf("%s did not report skipped_pct and allocs/op", r.Name)
		}
		if !(skipped >= 99) {
			return fmt.Errorf("converged step skipped %.1f%% of controller solves, want >= 99%%", skipped)
		}
		if allocs != 0 {
			return fmt.Errorf("converged step allocates %.0f objects per Step, want 0", allocs)
		}
		fmt.Fprintf(os.Stderr, "benchparse: check passed: converged step skips %.1f%% of solves, 0 allocs/op, %.1f ns/op\n",
			skipped, r.Metrics["ns/op"])
		return nil
	}
	return fmt.Errorf("BenchmarkEngineStepConverged missing from input")
}

// checkAcceleratedRounds enforces the price-dynamics regression gate: every
// accelerated solver's rounds-to-converge (BenchmarkRoundsToConverge/<solver>)
// must not exceed the reference gradient's. Absent rounds benchmarks skip the
// gate (narrower runs stay usable); a sweep that has accelerated records but
// no gradient baseline is an error.
func checkAcceleratedRounds(recs []record) error {
	const prefix = "BenchmarkRoundsToConverge/"
	gradient := -1.0
	accel := make(map[string]float64)
	for _, r := range recs {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		name := trimCPUSuffix(strings.TrimPrefix(r.Name, prefix))
		rounds, ok := r.Metrics["rounds"]
		if !ok {
			return fmt.Errorf("%s reported no rounds metric", r.Name)
		}
		if name == "gradient" {
			gradient = rounds
		} else {
			accel[name] = rounds
		}
	}
	if gradient < 0 && len(accel) == 0 {
		return nil
	}
	if gradient < 0 {
		return fmt.Errorf("rounds benchmarks present but the gradient baseline is missing")
	}
	names := make([]string, 0, len(accel))
	for name := range accel {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if accel[name] > gradient {
			return fmt.Errorf("accelerated solver %s needs %.0f rounds to converge, more than gradient's %.0f",
				name, accel[name], gradient)
		}
	}
	fmt.Fprintf(os.Stderr, "benchparse: check passed: accelerated rounds <= gradient (%.0f)\n", gradient)
	return nil
}

// checkRecoveryWarmFaster enforces the crash-recovery regression gate: a
// warm restart from a checkpoint (BenchmarkRecoveryRounds/warm) must
// re-converge in strictly fewer rounds than a cold restart from scratch
// (.../cold). Absent recovery benchmarks skip the gate (narrower runs stay
// usable); a run with one side but not the other is an error.
func checkRecoveryWarmFaster(recs []record) error {
	const prefix = "BenchmarkRecoveryRounds/"
	warm, cold := -1.0, -1.0
	for _, r := range recs {
		if !strings.HasPrefix(r.Name, prefix) {
			continue
		}
		rounds, ok := r.Metrics["rounds"]
		if !ok {
			return fmt.Errorf("%s reported no rounds metric", r.Name)
		}
		switch trimCPUSuffix(strings.TrimPrefix(r.Name, prefix)) {
		case "warm":
			warm = rounds
		case "cold":
			cold = rounds
		}
	}
	if warm < 0 && cold < 0 {
		return nil
	}
	if warm < 0 || cold < 0 {
		return fmt.Errorf("recovery benchmarks incomplete: warm=%v cold=%v (need both)", warm >= 0, cold >= 0)
	}
	if warm >= cold {
		return fmt.Errorf("warm recovery (%.0f rounds) is not below cold re-convergence (%.0f rounds)", warm, cold)
	}
	fmt.Fprintf(os.Stderr, "benchparse: check passed: warm recovery %.0f rounds < cold %.0f\n", warm, cold)
	return nil
}

// checkFleetConverge enforces the sharded-fleet gates (SHARDING.md): the
// million-subtask run (BenchmarkFleetConverge/1m) must certify convergence
// (converged == 1), and on the clustered workload the aggregator's boundary
// rounds (.../clustered rounds) must not exceed twice the single engine's
// KKT rounds (single_rounds) — the hierarchy may pay coordination overhead,
// but never more than 2x in price iterations. Absent fleet benchmarks skip
// the gate (narrower runs stay usable); a record missing its metrics is an
// error.
func checkFleetConverge(recs []record) error {
	for _, r := range recs {
		switch trimCPUSuffix(r.Name) {
		case "BenchmarkFleetConverge/1m":
			conv, ok := r.Metrics["converged"]
			if !ok {
				return fmt.Errorf("%s reported no converged metric", r.Name)
			}
			if conv != 1 {
				return fmt.Errorf("the million-subtask fleet run did not certify convergence (converged=%.0f)", conv)
			}
			fmt.Fprintf(os.Stderr, "benchparse: check passed: 1M-subtask fleet certified in %.0f rounds\n",
				r.Metrics["rounds"])
		case "BenchmarkFleetConverge/clustered":
			rounds, okR := r.Metrics["rounds"]
			single, okS := r.Metrics["single_rounds"]
			if !okR || !okS {
				return fmt.Errorf("%s did not report rounds and single_rounds", r.Name)
			}
			if single <= 0 {
				return fmt.Errorf("%s reported a degenerate single-engine baseline (%.0f rounds)", r.Name, single)
			}
			if rounds > 2*single {
				return fmt.Errorf("fleet boundary rounds (%.0f) exceed 2x the single engine's KKT rounds (%.0f)",
					rounds, single)
			}
			fmt.Fprintf(os.Stderr, "benchparse: check passed: fleet rounds %.0f <= 2x single-engine %.0f\n",
				rounds, single)
		}
	}
	return nil
}

// checkFleetParallel enforces the parallel-rounds gate (SHARDING.md):
// BenchmarkFleetConverge/1m-parallel (16 concurrent shard sweeps) must
// certify in exactly the serial run's round count — parallel sweeps leave
// no scheduling fingerprint — and, when the run had at least 4 CPUs, finish
// in at most half the serial wall-clock. Below 4 CPUs the wall-clock half
// of the gate is SKIPPED with an explicit message (a 1-CPU runner cannot
// speed up by running sweeps concurrently); it never silently passes. A
// report carrying one of the pair but not the other is an error.
func checkFleetParallel(recs []record) error {
	var serial, parallel *record
	for i := range recs {
		switch trimCPUSuffix(recs[i].Name) {
		case "BenchmarkFleetConverge/1m":
			serial = &recs[i]
		case "BenchmarkFleetConverge/1m-parallel":
			parallel = &recs[i]
		}
	}
	if serial == nil && parallel == nil {
		return nil
	}
	if serial == nil || parallel == nil {
		return fmt.Errorf("fleet parallel benchmarks incomplete: 1m present=%v, 1m-parallel present=%v (need both)",
			serial != nil, parallel != nil)
	}
	if conv := parallel.Metrics["converged"]; conv != 1 {
		return fmt.Errorf("the parallel million-subtask fleet run did not certify convergence (converged=%.0f)", conv)
	}
	sr, pr := serial.Metrics["rounds"], parallel.Metrics["rounds"]
	if sr != pr {
		return fmt.Errorf("parallel fleet certified in %.0f rounds but serial in %.0f — parallel sweeps changed the trajectory", pr, sr)
	}
	cpus, ok := parallel.Metrics["cpus"]
	if !ok {
		return fmt.Errorf("%s reported no cpus metric", parallel.Name)
	}
	if cpus < 4 {
		fmt.Fprintf(os.Stderr,
			"benchparse: check SKIPPED: fleet parallel wall-clock gate needs >= 4 CPUs, run had %.0f (round-count equality still enforced: %.0f rounds)\n",
			cpus, pr)
		return nil
	}
	sn, pn := serial.Metrics["ns/op"], parallel.Metrics["ns/op"]
	if pn > 0.5*sn {
		return fmt.Errorf("parallel 1m fleet (%.0f ns/op) is not <= 0.5x the serial run (%.0f ns/op) on %.0f CPUs",
			pn, sn, cpus)
	}
	fmt.Fprintf(os.Stderr, "benchparse: check passed: parallel 1m fleet %.2fx faster than serial, same %.0f rounds\n",
		sn/pn, pr)
	return nil
}

// gated lists the benchmarks the -check gates consume: a name ending in "/"
// is a family (every sub-benchmark), any other is one benchmark. A report
// that silently drops one of these (a renamed benchmark, a narrowed bench
// regex) would turn its gate into a no-op — checkNoGatedLoss makes that loud
// instead.
var gated = []string{
	"BenchmarkEngineStepConverged",
	"BenchmarkEngineSnapshot",
	"BenchmarkRoundsToConverge/",
	"BenchmarkRecoveryRounds/",
	"BenchmarkWireCodec",
	"BenchmarkFleetConverge/",
	"BenchmarkFleetBuild",
	"BenchmarkFleetReplace",
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

// isGated reports whether a (GOMAXPROCS-suffix-stripped) benchmark name is a
// gated benchmark or belongs to a gated family.
func isGated(name string) bool {
	for _, g := range gated {
		if name == g || strings.HasSuffix(g, "/") && strings.HasPrefix(name, g) {
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
