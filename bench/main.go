// Command bench is the repository's benchmark: four LLA workloads timed end
// to end from outside the program, with a traced mode that attributes the
// time to layers. BENCHMARK.json at the repository root names its workloads
// and metrics; README.md in this directory explains them.
//
//	go run ./bench                                   every workload, untraced then traced
//	go run ./bench -workload dist-tcp -seed 7        one workload
//	go run ./bench -workload dist-tcp -trace 1       its per-layer metrics and span file
//	go run ./bench -compare bench/out/a bench/out/b  two result sets against the bounds
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// metricDef names one metric. Bound is the share of the parent's median an
// end-to-end metric may worsen by before that counts as a regression;
// per-layer metrics have none.
type metricDef struct {
	Name   string
	Unit   string
	Better string
	Bound  float64
}

type workloadDef struct {
	Name string
	Why  string
	run  func(*run) error
}

// workloads, endToEnd and perLayer are the catalogue the benchmark driver
// sees. The same names, units and bounds stand in BENCHMARK.json; a test
// holds the two equal in both directions.
var workloads = []workloadDef{
	{"fleet-1m-cold", "ROADMAP's 1M-subtask instance, 16 shards, cold to certified, 2 reps (issue: 3): all shards dirty, so solve, dense certification and Compile/Clone set-up do the work; skipping and warm starts do none", runFleetCold},
	{"fleet-churn-250k", "40 (issue: 60) seeded task/capacity changes on a certified 250k fleet: the write path (diff, dirty-shard rebuild, CarryFrom warm start, frozen-shard reuse, boundary re-pricing); a costlier build shows", runFleetChurn},
	{"engine-online", "one core.Engine on 47k DAG subtasks re-converging after 20 (issue: 50) capacity changes: multi-path controllers, the engine's worker pool and sparse skipping; bypasses fleet, dist and wire", runEngineOnline},
	{"dist-tcp", "161 subtasks as 49 nodes over TCP loopback with the binary codec, 6 (issue: 12) episodes of 400 rounds: compute is negligible, so transport, wire and the dist node loops do all the work", runDistTCP},
}

// endToEnd is what every workload prints on its verdict line. The driver
// wants each of these from each workload, never 0, and steady across seeds,
// so they are generic and robust: the median operation time and the median
// optimizer rounds per operation. The timings stand under the widest bound
// the contract allows, because this box's own drift reaches 10-25 %.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"certify_ms_p50", "ms", "lower", 0.25},
	{"iters_per_certify", "count", "lower", 0.02},
	{"peak_rss_mb", "MB", "lower", 0.15},
}

// issueMetrics are ISSUE 12's end-to-end metrics under its own names and
// bounds. A workload reports the ones that apply to it in <workload>.json,
// and -compare, which sets two runs of one seed side by side, judges these.
// The tail is the p75 the issue's own rule allows the churn workload's 40
// events (ten samples beyond it), where the issue, sized for 60, wrote p80;
// engine-online's 20 events support a median only.
var issueMetrics = []metricDef{
	{"setup_s", "s", "lower", 0.15},
	{"time_to_certify_s", "s", "lower", 0.10},
	{"rounds_to_certify", "count", "lower", 0},
	{"recertify_ms_p50", "ms", "lower", 0.10},
	{"recertify_ms_p75", "ms", "lower", 0.15},
	{"recertify_iters", "count", "lower", 0},
	{"round_ms", "ms", "lower", 0.10},
	{"peak_rss_mb", "MB", "lower", 0.05},
	{"failed_ratio", "ratio", "lower", 0},
}

var perLayer = []metricDef{
	{Name: "workload.gen_s", Unit: "s", Better: "lower"},
	{Name: "core.compile_s", Unit: "s", Better: "lower"},
	{Name: "core.compile_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "core.new_engine_s", Unit: "s", Better: "lower"},
	{Name: "core.step_cold_ns_per_subtask", Unit: "ns", Better: "lower"},
	{Name: "core.step_warm_ns_per_subtask", Unit: "ns", Better: "lower"},
	{Name: "core.kktstats_ns_per_subtask", Unit: "ns", Better: "lower"},
	{Name: "core.probe_ns_per_subtask", Unit: "ns", Better: "lower"},
	{Name: "core.subtask_iters_per_s", Unit: "1/s", Better: "higher"},
	{Name: "core.sparse_skipped_pct", Unit: "%", Better: "higher"},
	{Name: "core.iters_per_event_p50", Unit: "count", Better: "lower"},
	{Name: "core.set_availability_us", Unit: "us", Better: "lower"},
	{Name: "core.workers", Unit: "count", Better: "higher"},
	{Name: "utility.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "share.eval_ns", Unit: "ns", Better: "lower"},
	{Name: "price.step_ns_per_resource.gradient", Unit: "ns", Better: "lower"},
	{Name: "price.step_ns_per_resource.newton", Unit: "ns", Better: "lower"},
	{Name: "fleet.partition_s", Unit: "s", Better: "lower"},
	{Name: "fleet.new_s", Unit: "s", Better: "lower"},
	{Name: "fleet.new_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "fleet.round_ms_first", Unit: "ms", Better: "lower"},
	{Name: "fleet.round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.round_ms_p80", Unit: "ms", Better: "lower"},
	{Name: "fleet.local_iters", Unit: "count", Better: "lower"},
	{Name: "fleet.swept_shards", Unit: "count", Better: "lower"},
	{Name: "fleet.skipped_shards", Unit: "count", Better: "higher"},
	{Name: "fleet.skip_ratio", Unit: "ratio", Better: "higher"},
	{Name: "fleet.iterate_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "fleet.boundary_count", Unit: "count", Better: "lower"},
	{Name: "fleet.cut_cost", Unit: "count", Better: "lower"},
	{Name: "fleet.replace_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.replace_ms_p75", Unit: "ms", Better: "lower"},
	{Name: "fleet.rerun_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "fleet.rebuilt_shards_per_event", Unit: "count", Better: "lower"},
	{Name: "fleet.full_rebuilds", Unit: "count", Better: "lower"},
	{Name: "fleet.boundary_events", Unit: "count", Better: "lower"},
	{Name: "fleet.boundary_event_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.new_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.round_ms_p50", Unit: "ms", Better: "lower"},
	{Name: "dist.round_ms_p95", Unit: "ms", Better: "lower"},
	{Name: "dist.inproc_round_ms", Unit: "ms", Better: "lower"},
	{Name: "dist.msgs_per_round", Unit: "count", Better: "lower"},
	{Name: "dist.retransmits_per_round", Unit: "count", Better: "lower"},
	{Name: "dist.rejected_stale", Unit: "count", Better: "lower"},
	{Name: "dist.delta_suppressed_ratio", Unit: "ratio", Better: "higher"},
	{Name: "transport.sends", Unit: "count", Better: "lower"},
	{Name: "transport.send_errors", Unit: "count", Better: "lower"},
	{Name: "transport.send_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.send_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.endpoint_setup_ms", Unit: "ms", Better: "lower"},
	{Name: "transport.tcp_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "transport.tcp_rtt_us_p99", Unit: "us", Better: "lower"},
	{Name: "transport.inproc_rtt_us_p50", Unit: "us", Better: "lower"},
	{Name: "wire.encode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.decode_ns_per_frame", Unit: "ns", Better: "lower"},
	{Name: "wire.encode_allocs_per_frame", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_frame", Unit: "bytes", Better: "lower"},
	{Name: "wire.frames_per_round", Unit: "count", Better: "lower"},
	{Name: "wire.bytes_per_round", Unit: "bytes", Better: "lower"},
	{Name: "bench.certify_ms_tail", Unit: "ms", Better: "lower"},
	{Name: "bench.round_ms", Unit: "ms", Better: "lower"},
	{Name: "bench.trace_overhead_pct", Unit: "%", Better: "lower"},
}

func findWorkload(name string) *workloadDef {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// measurement is one metric as printed.
type measurement struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// verdict is the last line of a workload run's standard output.
type verdict struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]measurement `json:"metrics"`
}

// stamp records where and how a result was measured, so two results are
// compared only when they are comparable.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Traced     bool   `json:"traced"`
	CPUs       int    `json:"cpus"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"num_cpu"`
	GoVersion  string `json:"go_version"`
	Commit     string `json:"git_commit"`
	Time       string `json:"time"`
}

// outcome is the file a workload run leaves in the output directory.
type outcome struct {
	Stamp stamp `json:"stamp"`
	verdict
	// EndToEnd holds the issueMetrics that apply to the workload; untraced
	// runs only, since tracing costs time.
	EndToEnd map[string]measurement `json:"end_to_end,omitempty"`
	Failures []string               `json:"failures,omitempty"`
	Samples  map[string]int         `json:"samples"`
	// Raw holds the samples behind the end-to-end metrics, in run order.
	Raw   map[string][]float64 `json:"raw_samples"`
	Notes []string             `json:"notes,omitempty"`
	// Events is the replayable event log and ByKind the operation times split
	// by event kind, boundary-touching capacity events apart.
	Events []eventRecord        `json:"events,omitempty"`
	ByKind map[string]kindStats `json:"by_kind,omitempty"`
}

// kindStats is one event kind's share of a run.
type kindStats struct {
	Events int     `json:"events"`
	Rounds int     `json:"rounds"`
	MsP50  float64 `json:"ms_p50"`
	MsMax  float64 `json:"ms_max"`
}

// traceFile is what a traced run writes beside its outcome.
type traceFile struct {
	Stamp   stamp              `json:"stamp"`
	Dropped int                `json:"dropped_spans"`
	SelfMs  map[string]float64 `json:"self_ms_by_name"`
	Spans   []span             `json:"spans"`
}

func main() { os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr)) }

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	o := options{scale: 1, availability: 1}
	fs.StringVar(&o.workload, "workload", "", "workload to run (default: each in turn, in a process of its own)")
	fs.Int64Var(&o.seed, "seed", 1, "seed of every generator")
	fs.Int("seconds", runSeconds, "accepted because the benchmark driver passes it; a run does a fixed amount of work, sized for 20 s")
	trace := fs.Int("trace", -1, "1: traced run (per-layer metrics, span file); 0: untraced (end-to-end metrics); default: 0 for one workload, both for all")
	fs.StringVar(&o.outDir, "out", filepath.Join("bench", "out"), "directory for result and trace files")
	runs := fs.Int("runs", 1, "with no -workload: repetitions of each workload, written to <out>/r<i>")
	compare := fs.Bool("compare", false, "compare two result directories: -compare A B")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		if fs.NArg() != 2 {
			fmt.Fprintln(stderr, "usage: bench -compare DIR_A DIR_B")
			return 2
		}
		return compareSets(fs.Arg(0), fs.Arg(1), stdout, stderr)
	}
	if *runs < 1 || fs.NArg() != 0 {
		fmt.Fprintln(stderr, "bench: -runs must be at least 1, and no arguments may follow the flags")
		return 2
	}
	if o.workload == "" {
		return runAll(o, *trace, *runs, stdout, stderr)
	}
	o.trace = *trace == 1
	if findWorkload(o.workload) == nil {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", o.workload)
		return 2
	}
	out, err := runOne(o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return report(out, stdout, stderr)
}

// report prints a run's metrics, names its failed checks, ends standard
// output with the verdict line, and turns a failed check into exit code 1.
func report(out *outcome, stdout, stderr io.Writer) int {
	printOutcome(stdout, out)
	for _, f := range out.Failures {
		fmt.Fprintln(stderr, "FAILED CHECK:", f)
	}
	line, _ := json.Marshal(out.verdict) // plain numbers and strings: cannot fail
	fmt.Fprintln(stdout, string(line))
	if !out.Correct {
		return 1
	}
	return 0
}

// runAll re-executes this binary once per workload run, so peak_rss_mb is a
// workload's own and one workload's heap cannot slow the next.
func runAll(o options, trace, runs int, stdout, stderr io.Writer) int {
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	modes := []int{0, 1}
	if trace >= 0 {
		modes = []int{trace}
	}
	code := 0
	for i := 0; i < runs; i++ {
		dir := o.outDir
		if runs > 1 {
			dir = filepath.Join(o.outDir, "r"+strconv.Itoa(i))
		}
		for _, w := range workloads {
			for _, mode := range modes {
				cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(o.seed, 10),
					"-trace", strconv.Itoa(mode), "-out", dir)
				cmd.Stdout, cmd.Stderr = stdout, stderr
				if err := cmd.Run(); err != nil {
					fmt.Fprintf(stderr, "bench: %s (trace %d): %v\n", w.Name, mode, err)
					code = 1
				}
			}
		}
	}
	return code
}

// runOne runs one workload in this process and writes its files.
func runOne(o options) (*outcome, error) {
	cpus := runtime.NumCPU()
	if cpus > 4 {
		cpus = 4
	}
	runtime.GOMAXPROCS(cpus)

	r := newRun(o)
	if err := findWorkload(o.workload).run(r); err != nil {
		return nil, err
	}
	out := r.outcome(cpus)
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return nil, err
	}
	name := o.workload + ".json"
	if o.trace {
		name = o.workload + ".layers.json"
		spans := r.tr.spans
		tf := traceFile{Stamp: out.Stamp, Dropped: r.tr.dropped, SelfMs: selfByName(spans), Spans: spans}
		if err := writeJSON(filepath.Join(o.outDir, o.workload+".trace.json"), tf, false); err != nil {
			return nil, err
		}
	}
	if err := writeJSON(filepath.Join(o.outDir, name), out, true); err != nil {
		return nil, err
	}
	return out, nil
}

// outcome folds the run's samples into the metrics of its mode: end-to-end
// untraced, per-layer traced.
func (r *run) outcome(cpus int) *outcome {
	out := &outcome{
		Stamp: stamp{
			Workload: r.o.workload, Seed: r.o.seed, Traced: r.o.trace,
			CPUs: cpus, GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
			GoVersion: runtime.Version(), Commit: gitCommit(), Time: time.Now().UTC().Format(time.RFC3339),
		},
		Failures: r.failures, Samples: r.samples, Notes: r.notes, Events: r.events, ByKind: r.byKind(),
		Raw: map[string][]float64{"setup_s": r.setupS, "certify_ms": r.opMs, "iterate_ms": r.iterateMs, "iters": r.iters},
	}
	out.Attempted, out.Failed = r.attempted, r.failed
	if out.Attempted < 1 {
		out.Attempted = 1
	}
	out.Correct = r.failed == 0
	out.Metrics = make(map[string]measurement)
	r.samples["setup_s"] = len(r.setupS)
	r.samples["operations"] = len(r.opMs)

	values, defs := r.layer, perLayer
	if r.o.trace {
		r.layer["bench.certify_ms_tail"], _ = tail(r.opMs)
		r.layer["bench.round_ms"] = sum(r.iterateMs) / max(sum(r.iters), 1)
		r.layer["bench.trace_overhead_pct"] = r.overheadPct()
	} else {
		rss := peakRSSMB()
		values = map[string]float64{
			"setup_s":           median(r.setupS),
			"certify_ms_p50":    median(r.opMs),
			"iters_per_certify": median(r.iters),
			"peak_rss_mb":       rss,
		}
		defs = endToEnd
		r.e2e["setup_s"] = median(r.setupS)
		r.e2e["peak_rss_mb"] = rss
		r.e2e["failed_ratio"] = float64(r.failed) / float64(out.Attempted)
		out.EndToEnd = make(map[string]measurement)
		for _, d := range issueMetrics {
			if v, ok := r.e2e[d.Name]; ok {
				out.EndToEnd[d.Name] = measurement{Value: v, Unit: d.Unit}
			}
		}
	}
	for _, d := range defs {
		out.Metrics[d.Name] = measurement{Value: values[d.Name], Unit: d.Unit}
	}
	return out
}

// byKind splits the operation times of an event-driven workload by event
// kind, with capacity events that touched a boundary resource on their own:
// their re-pricing by the aggregator makes the times bimodal.
func (r *run) byKind() map[string]kindStats {
	if len(r.events) == 0 {
		return nil
	}
	times := make(map[string][]float64)
	out := make(map[string]kindStats)
	for i, e := range r.events {
		kind := e.Kind
		if e.Boundary {
			kind += "+boundary"
		}
		times[kind] = append(times[kind], r.opMs[i])
		st := out[kind]
		st.Events++
		st.Rounds += e.Rounds
		out[kind] = st
	}
	for kind, st := range out {
		st.MsP50, st.MsMax = median(times[kind]), percentile(times[kind], 100)
		out[kind] = st
	}
	return out
}

// peakRSSMB is the process's high-water resident set (VmHWM), or the Go
// runtime's total obtained from the OS where /proc is absent.
func peakRSSMB() float64 {
	if raw, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
				if kb, err := strconv.ParseFloat(f[1], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.Sys) / (1 << 20)
}

// gitCommit is the checkout's HEAD, or "unknown" outside a git work tree
// (the benchmark driver's checkout is not one).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--short=12", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

func writeJSON(path string, v any, indent bool) error {
	var raw []byte
	var err error
	if indent {
		raw, err = json.MarshalIndent(v, "", "  ")
	} else {
		raw, err = json.Marshal(v)
	}
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}

// printOutcome lists every metric of the run by name with its unit: the
// driver's, then for an untraced run ISSUE 12's with their bounds.
func printOutcome(w io.Writer, out *outcome) {
	s := out.Stamp
	fmt.Fprintf(w, "== %s  seed=%d traced=%v cpus=%d go=%s commit=%s\n",
		s.Workload, s.Seed, s.Traced, s.CPUs, s.GoVersion, s.Commit)
	names := make([]string, 0, len(out.Metrics))
	for name := range out.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		m := out.Metrics[name]
		fmt.Fprintf(w, "%-40s %16.6g %s\n", name, m.Value, m.Unit)
	}
	if !s.Traced {
		fmt.Fprintf(w, "-- end to end, as ISSUE 12 names them (%d set-ups, %d operations, %d of %d checks failed)\n",
			out.Samples["setup_s"], out.Samples["operations"], out.Failed, out.Attempted)
		for _, d := range issueMetrics {
			if m, ok := out.EndToEnd[d.Name]; ok {
				fmt.Fprintf(w, "%-40s %16.6g %-5s bound %g%%\n", d.Name, m.Value, m.Unit, 100*d.Bound)
			}
		}
	}
	kinds := make([]string, 0, len(out.ByKind))
	for kind := range out.ByKind {
		kinds = append(kinds, kind)
	}
	sort.Strings(kinds)
	for _, kind := range kinds {
		st := out.ByKind[kind]
		fmt.Fprintf(w, "events %-24s %3d  p50 %9.3f ms  max %9.3f ms  %4d rounds\n", kind, st.Events, st.MsP50, st.MsMax, st.Rounds)
	}
	for _, n := range out.Notes {
		fmt.Fprintln(w, "note:", n)
	}
}
