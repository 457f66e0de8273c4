package main

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"lla/internal/fleet"
)

// Operations per run. They are constants, not a function of -seconds: the
// bound-0 counts (rounds_to_certify, recertify_iters) compare only between
// runs that did the same work. ISSUE 12 sized 3 / 60 / 50 / 12; these are cut
// so that the driver's 92 runs fit its 3420 s on two cores even when the box
// runs half again slower than calm (a pass of the four workloads was seen to
// take from 100 s to 166 s), and problem sizes are untouched. engine-online
// gives up its tail for that: its event times are tight, the churn
// workload's are bimodal, so the forty events a p75 needs go to the latter. On that box the measured part of a run takes about
// runSeconds.
const (
	runSeconds   = 20 // BENCHMARK.json's run_seconds
	coldReps     = 2
	churnEvents  = 40
	onlineEvents = 20
	distEpisodes = 6
)

// options selects one workload run.
type options struct {
	workload string
	seed     int64
	trace    bool
	outDir   string
	// scale multiplies problem sizes and operation counts; only tests set it
	// below 1.
	scale float64
	// availability is B_r of every generated resource; only the failure-path
	// self-test sets it below 1, to make certification impossible.
	availability float64
}

// scaled applies the test scale to a size or count, never below 1.
func (o options) scaled(n int) int {
	return max(int(math.Round(float64(n)*o.scale)), 1)
}

// eventRecord is one line of a workload's replayable event log. Boundary
// marks a capacity event that halved or restored a resource whose price the
// aggregator owns; those re-certify in tens of rounds where others take two.
type eventRecord struct {
	Event    int                `json:"event"`
	Kind     string             `json:"kind"`
	Cluster  int                `json:"cluster"`
	Boundary bool               `json:"boundary"`
	Rounds   int                `json:"rounds"`
	Replace  fleet.ReplaceStats `json:"replace_stats"`
}

// run accumulates one workload run: the samples behind the end-to-end
// metrics, the failed-check count, and the per-layer readings.
type run struct {
	o  options
	tr *tracer

	setupS    []float64 // seconds per set-up
	opMs      []float64 // ms per operation: cold start or change applied -> certified
	iterateMs []float64 // ms per operation spent inside the iterate calls
	iters     []float64 // optimizer rounds per operation
	traced    []bool    // whether operation i recorded spans

	attempted int
	failed    int
	opFailed  bool
	failures  []string

	e2e     map[string]float64 // the workload's own ISSUE 12 end-to-end metrics
	layer   map[string]float64
	samples map[string]int
	events  []eventRecord
	notes   []string
}

func newRun(o options) *run {
	r := &run{o: o, e2e: make(map[string]float64), layer: make(map[string]float64), samples: make(map[string]int)}
	if o.trace {
		r.tr = newTracer()
	}
	return r
}

// beginOp starts operation i. In a traced run odd operations record spans
// and even ones do not, so the same process yields the paired timings
// bench.trace_overhead_pct is computed from. It returns the operation's root
// span.
func (r *run) beginOp(i int) int {
	r.countOp()
	on := r.o.trace && i%2 == 1
	r.traced = append(r.traced, on)
	r.tr.enable(on, i)
	return r.tr.begin("run", -1)
}

// endOp closes the operation's root span and records its timings: wall time
// from the change (or cold start) to certification, and the optimizer rounds
// that took, with the time spent inside the iterate calls.
func (r *run) endOp(root int, op, iterate time.Duration, rounds int) {
	r.tr.end(root)
	r.tr.enable(false, -1)
	r.opMs = append(r.opMs, ms(op))
	r.iterateMs = append(r.iterateMs, ms(iterate))
	r.iters = append(r.iters, float64(rounds))
}

// countOp opens a new operation for the failed-check count.
func (r *run) countOp() {
	r.attempted++
	r.opFailed = false
}

// fail records a failed output check against the current operation; an
// operation counts as failed once however many of its checks fail.
func (r *run) fail(format string, args ...any) {
	if !r.opFailed {
		r.failed++
		r.opFailed = true
	}
	if len(r.failures) < 20 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// check is fail unless ok.
func (r *run) check(ok bool, format string, args ...any) {
	if !ok {
		r.fail(format, args...)
	}
}

// recertifyMetrics reports an event-driven workload's operations under
// ISSUE 12's names: time from change applied to certified again, and the
// optimizer rounds all events took together.
func (r *run) recertifyMetrics() {
	r.e2e["recertify_ms_p50"] = median(r.opMs)
	r.e2e["recertify_iters"] = sum(r.iters)
}

// quiesce collects garbage between operations so each timed section starts
// from the same heap, instead of inheriting the previous operation's debt.
// Engines and fleets carry finalizers, which the first collection only
// runs; the second frees what they held.
func quiesce() {
	runtime.GC()
	runtime.GC()
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// allocMB runs fn and returns the heap bytes it allocated, in MB.
func allocMB(fn func()) float64 {
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	fn()
	runtime.ReadMemStats(&b)
	return float64(b.TotalAlloc-a.TotalAlloc) / (1 << 20)
}

// overheadPct compares the traced and untraced operations of a traced run.
func (r *run) overheadPct() float64 {
	var on, off []float64
	for i, v := range r.opMs {
		if r.traced[i] {
			on = append(on, v)
		} else {
			off = append(off, v)
		}
	}
	if len(on) == 0 || len(off) == 0 || median(off) == 0 {
		return 0
	}
	return 100 * (median(on)/median(off) - 1)
}

// beginSetup starts a set-up that is timed on its own, outside any
// operation: it counts as an attempt, since its certification is checked,
// and records spans only when traced is set in a traced run.
func (r *run) beginSetup(traced bool) int {
	r.countOp()
	r.tr.enable(r.o.trace && traced, -1)
	return r.tr.begin("run", -1)
}

func (r *run) endSetup(root int, d time.Duration) {
	r.tr.end(root)
	r.tr.enable(false, -1)
	r.setupS = append(r.setupS, d.Seconds())
}
