package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// small sizes a workload for tests: 1/100 of the problem.
func small(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{workload: workload, seed: 1, trace: trace, scale: 0.01, availability: 1, outDir: t.TempDir()}
}

// issueMetricsOf lists, per workload, the ISSUE 12 metrics that apply to it
// besides the three every workload reports.
var issueMetricsOf = map[string][]string{
	"fleet-1m-cold":    {"time_to_certify_s", "rounds_to_certify"},
	"fleet-churn-250k": {"recertify_ms_p50", "recertify_ms_p75", "recertify_iters"},
	"engine-online":    {"recertify_ms_p50", "recertify_iters"},
	"dist-tcp":         {"round_ms"},
}

// TestWorkloadsSmall runs every workload in both modes at 1/100 scale: all
// output checks pass, each mode emits exactly the catalogue's metrics, and
// the workloads between them report every ISSUE 12 metric and no other.
func TestWorkloadsSmall(t *testing.T) {
	reported := make(map[string]bool)
	defer func() {
		for _, d := range issueMetrics {
			if !reported[d.Name] {
				t.Errorf("no workload reports %s", d.Name)
			}
		}
	}()
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			o := small(t, w.Name, trace)
			out, err := runOne(o)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.Name, trace, err)
			}
			if !out.Correct || out.Failed != 0 || out.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v failed=%d attempted=%d: %v", w.Name, trace, out.Correct, out.Failed, out.Attempted, out.Failures)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(out.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics emitted, catalogue has %d", w.Name, trace, len(out.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := out.Metrics[d.Name]
				if !ok {
					t.Errorf("%s trace=%v: metric %s not emitted", w.Name, trace, d.Name)
				}
				if m.Unit != d.Unit {
					t.Errorf("%s: metric %s has unit %q, catalogue says %q", w.Name, d.Name, m.Unit, d.Unit)
				}
				if !trace && !(m.Value > 0) {
					t.Errorf("%s: end-to-end metric %s = %v, must be positive", w.Name, d.Name, m.Value)
				}
			}
			if trace {
				checkTraceFile(t, filepath.Join(o.outDir, w.Name+".trace.json"))
				continue
			}
			want := append([]string{"setup_s", "peak_rss_mb", "failed_ratio"}, issueMetricsOf[w.Name]...)
			if len(out.EndToEnd) != len(want) {
				t.Errorf("%s: reports %d ISSUE 12 metrics, want %v", w.Name, len(out.EndToEnd), want)
			}
			for _, name := range want {
				if _, ok := out.EndToEnd[name]; !ok {
					t.Errorf("%s: %s not reported", w.Name, name)
				}
				reported[name] = true
			}
		}
	}
}

// checkTraceFile holds a span file to its shape: every span closed and
// inside its parent, and set-up, iterate and verify together covering each
// run span to within 5 %.
func checkTraceFile(t *testing.T, path string) {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var tf traceFile
	if err := json.Unmarshal(raw, &tf); err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if len(tf.Spans) == 0 {
		t.Fatalf("%s: no spans", path)
	}
	var runNs, phaseNs int64
	for _, s := range tf.Spans {
		if s.End < s.Start {
			t.Errorf("%s: span %d (%s) ends before it starts", path, s.ID, s.Name)
		}
		if s.Name == "run" {
			runNs += s.End - s.Start
			continue
		}
		if s.Parent < 0 {
			t.Errorf("%s: span %d (%s) has no parent", path, s.ID, s.Name)
			continue
		}
		if tf.Spans[s.Parent].Name == "run" {
			if s.Name != "setup" && s.Name != "iterate" && s.Name != "verify" {
				t.Errorf("%s: %s directly under run", path, s.Name)
			}
			phaseNs += s.End - s.Start
		}
	}
	if float64(phaseNs) < 0.95*float64(runNs) {
		t.Errorf("%s: setup+iterate+verify cover %d ns of %d ns of run spans (< 95 %%)", path, phaseNs, runNs)
	}
}

// TestCatalogueMatchesBenchmarkJSON holds the names, units and bounds the
// program emits equal to those BENCHMARK.json lists, in both directions.
func TestCatalogueMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var manifest struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &manifest); err != nil {
		t.Fatal(err)
	}
	if want := []string{"go", "run", "./bench"}; !reflect.DeepEqual(manifest.Command, want) {
		t.Errorf("command %v, want %v", manifest.Command, want)
	}
	if want := []string{"bench"}; !reflect.DeepEqual(manifest.Paths, want) {
		t.Errorf("paths %v, want %v", manifest.Paths, want)
	}
	if manifest.RunSeconds != runSeconds {
		t.Errorf("run_seconds %d, the operation counts are sized for %d", manifest.RunSeconds, runSeconds)
	}

	if len(manifest.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program has %d", len(manifest.Workloads), len(workloads))
	}
	for i, w := range manifest.Workloads {
		if i < len(workloads) && (w.Name != workloads[i].Name || w.Why != workloads[i].Why) {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the program %q (%q)", i, w.Name, w.Why, workloads[i].Name, workloads[i].Why)
		}
		if len(w.Why) > 200 {
			t.Errorf("workload %s: why is %d characters, limit 200", w.Name, len(w.Why))
		}
	}
	same := func(kind string, listed []jsonMetric, defs []metricDef, bounded bool) {
		if len(listed) != len(defs) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the program emits %d", kind, len(listed), len(defs))
		}
		byName := make(map[string]jsonMetric)
		for _, m := range listed {
			byName[m.Name] = m
		}
		for _, d := range defs {
			m, ok := byName[d.Name]
			if !ok {
				t.Errorf("%s: %s is emitted but not in BENCHMARK.json", kind, d.Name)
				continue
			}
			delete(byName, d.Name)
			if m.Unit != d.Unit || m.Better != d.Better {
				t.Errorf("%s: %s is %s/%s in BENCHMARK.json, %s/%s in the program", kind, d.Name, m.Unit, m.Better, d.Unit, d.Better)
			}
			switch {
			case bounded && (m.Bound == nil || *m.Bound != d.Bound):
				t.Errorf("%s: %s bound differs from the program's %v", kind, d.Name, d.Bound)
			case !bounded && m.Bound != nil:
				t.Errorf("%s: %s has a bound; per-layer metrics have none", kind, d.Name)
			}
		}
		for name := range byName {
			t.Errorf("%s: %s is in BENCHMARK.json but never emitted", kind, name)
		}
	}
	same("end_to_end", manifest.EndToEnd, endToEnd, true)
	same("per_layer", manifest.PerLayer, perLayer, false)

	hasSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		hasSetup = hasSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !hasSetup {
		t.Error("end_to_end has no setup_s in seconds, lower is better")
	}
}

func TestPercentileRule(t *testing.T) {
	valid := []struct {
		n    int
		p    float64
		want bool
	}{
		{20, 50, true}, {19, 50, false},
		{40, 75, true}, {39, 75, false},
		{50, 80, true}, {49, 80, false},
		{100, 90, true}, {99, 90, false},
		{1000, 99, true}, {999, 99, false},
	}
	for _, c := range valid {
		if got := percentileValid(c.n, c.p); got != c.want {
			t.Errorf("percentileValid(%d, %g) = %v, want %v", c.n, c.p, got, c.want)
		}
	}
	highest := map[int]float64{5: 0, 19: 0, 20: 50, 40: 75, 50: 80, 99: 80, 100: 90, 200: 95, 1000: 99, 10000: 99.9}
	for n, want := range highest {
		if got := highestPercentile(n); got != want {
			t.Errorf("highestPercentile(%d) = %g, want %g", n, got, want)
		}
	}

	// recertify_ms_p75 is named for the percentile the churn events support;
	// the online events support a median and no more.
	if highestPercentile(churnEvents) != 75 || highestPercentile(onlineEvents) != 50 {
		t.Errorf("%d churn and %d online events support p%g and p%g, the program reports p75 and p50",
			churnEvents, onlineEvents, highestPercentile(churnEvents), highestPercentile(onlineEvents))
	}

	xs := make([]float64, 50)
	for i := range xs {
		xs[i] = float64(50 - i) // unsorted input: 50..1
	}
	if got := median(xs); got != 25.5 {
		t.Errorf("median = %g, want 25.5", got)
	}
	if v, p := tail(xs); p != 80 || math.Abs(v-40.2) > 1e-9 {
		t.Errorf("tail of 50 samples = %g at p%g, want 40.2 at p80", v, p)
	}
	if v, p := tail(xs[:3]); p != 100 || v != 50 {
		t.Errorf("tail of 3 samples = %g at p%g, want the maximum 50 at p100", v, p)
	}
	if xs[0] != 50 {
		t.Error("percentile reordered its input")
	}

	// The driver computes spreads with Python's statistics.quantiles(n=4).
	ten := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if q1, q3 := quartiles(ten); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %g, %g; Python gives 2.75, 8.25", q1, q3)
	}
}

func TestSpanSelfTime(t *testing.T) {
	spans := []span{
		{ID: 0, Parent: -1, Name: "run", Start: 0, End: 100},
		{ID: 1, Parent: 0, Name: "a", Start: 10, End: 30},
		{ID: 2, Parent: 0, Name: "a", Start: 20, End: 50}, // overlaps span 1: concurrent children
		{ID: 3, Parent: 0, Name: "b", Start: 60, End: 70},
		{ID: 4, Parent: 2, Name: "c", Start: 25, End: 45},
		{ID: 5, Parent: 3, Name: "c", Start: 65, End: 80}, // outlives its parent: clipped
	}
	want := []int64{100 - 40 - 10, 20, 30 - 20, 10 - 5, 20, 15}
	if got := selfTimes(spans); !reflect.DeepEqual(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
	byName := selfByName(spans)
	if got, want := byName["a"], 30e-6; math.Abs(got-want) > 1e-12 {
		t.Errorf("self time of a = %g ms, want %g", got, want)
	}

	tr := newTracer()
	if id := tr.begin("off", -1); id != -1 {
		t.Errorf("a tracer that is switched off recorded span %d", id)
	}
	tr.enable(true, 7)
	id := tr.begin("on", -1)
	tr.end(id)
	if len(tr.spans) != 1 || tr.spans[0].Run != 7 || tr.spans[0].End < tr.spans[0].Start {
		t.Errorf("recorded spans %+v", tr.spans)
	}
	var none *tracer
	none.enable(true, 0)
	none.end(none.begin("nil", -1)) // a nil tracer never records and never panics
}

// TestRoundDurations holds the round boundaries the decorator derives from
// report sends: one at every perRound-th send, the first round, which has no
// boundary before it, left out.
func TestRoundDurations(t *testing.T) {
	t0 := time.Unix(0, 0)
	at := func(ms ...int) []time.Time {
		out := make([]time.Time, len(ms))
		for i, m := range ms {
			out[i] = t0.Add(time.Duration(m) * time.Millisecond)
		}
		return out
	}
	// Three rounds of three reports: boundaries at 3 ms, 10 ms and 12 ms.
	if got, want := roundDurations(at(1, 2, 3, 5, 8, 10, 11, 11, 12), 3), []float64{7, 2}; !reflect.DeepEqual(got, want) {
		t.Errorf("roundDurations = %v, want %v", got, want)
	}
	// A round still under way adds nothing; one round alone gives no gap.
	if got, want := roundDurations(at(1, 2, 3, 5, 8, 10, 11), 3), []float64{7}; !reflect.DeepEqual(got, want) {
		t.Errorf("roundDurations with a partial round = %v, want %v", got, want)
	}
	if got := roundDurations(at(1, 2, 3), 3); len(got) != 0 {
		t.Errorf("roundDurations of one round = %v, want none", got)
	}

	// Reports are kept per episode: taking them starts the next episode's.
	c := &netCounters{reports: at(1, 2)}
	if got := c.takeReports(); len(got) != 2 || len(c.takeReports()) != 0 {
		t.Errorf("takeReports returned %d reports and left some behind", len(got))
	}
}

// TestChurnReplay holds the churn event stream to being a pure function of
// the seed: two runs log the same events, rebuild the same shards and take
// the same rounds; another seed gives another stream.
func TestChurnReplay(t *testing.T) {
	replay := func(seed int64) *run {
		o := small(t, "fleet-churn-250k", true)
		o.seed = seed
		r := newRun(o)
		if err := runFleetChurn(r); err != nil {
			t.Fatal(err)
		}
		if r.failed != 0 {
			t.Fatalf("seed %d: failed checks: %v", seed, r.failures)
		}
		return r
	}
	a, b, other := replay(3), replay(3), replay(4)
	if len(a.events) == 0 {
		t.Fatal("no events logged")
	}
	if !reflect.DeepEqual(a.events, b.events) {
		t.Errorf("same seed, different event logs:\n%+v\n%+v", a.events, b.events)
	}
	if !reflect.DeepEqual(a.iters, b.iters) {
		t.Errorf("same seed, different rounds per event: %v vs %v", a.iters, b.iters)
	}
	if x, y := a.layer["fleet.rebuilt_shards_per_event"], b.layer["fleet.rebuilt_shards_per_event"]; x != y || x == 0 {
		t.Errorf("fleet.rebuilt_shards_per_event %v vs %v", x, y)
	}
	if x, y := a.e2e["recertify_iters"], b.e2e["recertify_iters"]; x != y || x == 0 {
		t.Errorf("recertify_iters %v vs %v", x, y)
	}
	if reflect.DeepEqual(a.events, other.events) {
		t.Error("seeds 3 and 4 gave the same event stream")
	}
	for i, e := range a.events {
		if e.Kind != churnKinds[i%len(churnKinds)] {
			t.Errorf("event %d is %s, the cycle says %s", i, e.Kind, churnKinds[i%len(churnKinds)])
		}
	}
}

// TestInfeasibleFails is the failure path's self-test: a workload whose
// resources are too small to certify must come out as failed operations, a
// false verdict and a non-zero exit — not a panic, and not a hang.
func TestInfeasibleFails(t *testing.T) {
	o := small(t, "engine-online", false)
	o.availability = 0.0001
	out, err := runOne(o)
	if err != nil {
		t.Fatal(err)
	}
	if out.Correct || out.Failed == 0 || out.Failed > out.Attempted || !(out.EndToEnd["failed_ratio"].Value > 0) {
		t.Errorf("correct=%v failed=%d attempted=%d failed_ratio=%v, want a failed run",
			out.Correct, out.Failed, out.Attempted, out.EndToEnd["failed_ratio"].Value)
	}
	var stdout, stderr bytes.Buffer
	if code := report(out, &stdout, &stderr); code == 0 {
		t.Error("exit code 0 on an infeasible workload")
	}
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	var v verdict
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &v); err != nil {
		t.Fatalf("last line of output is not a verdict: %v", err)
	}
	if v.Correct || v.Failed != out.Failed {
		t.Errorf("verdict line %+v does not carry the failure", v)
	}
	if !strings.Contains(stderr.String(), "FAILED CHECK") {
		t.Errorf("the failed check is not named on stderr: %s", stderr.String())
	}
}

func TestCompare(t *testing.T) {
	// write makes a set of engine-online results: one run per recertify_ms_p50
	// value, every other metric at 100 and the iteration count as given.
	write := func(dir string, seed int64, cpus int, iters float64, p50 ...float64) {
		for i, c := range p50 {
			out := outcome{Stamp: stamp{Workload: "engine-online", Seed: seed, CPUs: cpus}}
			out.Correct, out.Attempted = true, 1
			out.EndToEnd = make(map[string]measurement)
			for _, name := range append([]string{"setup_s", "peak_rss_mb"}, issueMetricsOf["engine-online"]...) {
				out.EndToEnd[name] = measurement{Value: 100}
			}
			out.EndToEnd["failed_ratio"] = measurement{}
			out.EndToEnd["recertify_ms_p50"] = measurement{Value: c, Unit: "ms"}
			out.EndToEnd["recertify_iters"] = measurement{Value: iters + float64(i)*(iters-5720), Unit: "count"}
			sub := filepath.Join(dir, "r"+string(rune('0'+i)))
			if err := os.MkdirAll(sub, 0o755); err != nil {
				t.Fatal(err)
			}
			if err := writeJSON(filepath.Join(sub, "engine-online.json"), out, true); err != nil {
				t.Fatal(err)
			}
		}
	}
	dirs := make(map[string]string)
	for _, name := range []string{"base", "same", "slow", "noisy", "fast", "more iters", "other seed", "other cpus"} {
		dirs[name] = t.TempDir()
	}
	write(dirs["base"], 1, 2, 5720, 100, 101, 102, 103)
	write(dirs["same"], 1, 2, 5720, 103, 102, 101, 100)
	write(dirs["slow"], 1, 2, 5720, 112, 113, 114, 115) // +12 % against a 10 % bound
	write(dirs["noisy"], 1, 2, 5720, 60, 100, 140, 180) // spread 85 %: no bound resolves it
	write(dirs["fast"], 1, 2, 5720, 50, 60, 70, 80)
	write(dirs["more iters"], 1, 2, 5721, 100, 101, 102, 103) // a count: bound 0, and it varies inside the set
	write(dirs["other seed"], 2, 2, 5720, 100, 101, 102, 103)
	write(dirs["other cpus"], 1, 4, 5720, 100, 101, 102, 103)

	cases := []struct {
		b    string
		code int
		want string
	}{
		{"same", 0, "within bound"},
		{"slow", 1, "REGRESSION"},
		{"noisy", 1, "unresolved"},
		{"fast", 0, "better"},
		{"more iters", 1, "unresolved"},
		{"other seed", 2, "refused"},
		{"other cpus", 2, "refused"},
	}
	for _, c := range cases {
		var stdout, stderr bytes.Buffer
		code := compareSets(dirs["base"], dirs[c.b], &stdout, &stderr)
		if code != c.code || !strings.Contains(stdout.String()+stderr.String(), c.want) {
			t.Errorf("%s: exit %d, want %d with %q in:\n%s%s", c.b, code, c.code, c.want, stdout.String(), stderr.String())
		}
	}

	// One run a side: a count one higher is a regression, not noise.
	if _, v := judge([]float64{5720}, []float64{5721}, 0); v != "REGRESSION" {
		t.Errorf("5720 -> 5721 under bound 0 is %q, want REGRESSION", v)
	}
	if _, v := judge([]float64{0}, []float64{0.025}, 0); v != "REGRESSION" {
		t.Errorf("failed_ratio 0 -> 0.025 is %q, want REGRESSION", v)
	}
}
