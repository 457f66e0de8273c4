// Package eval is the experiment harness: one runner per table/figure of
// the paper's evaluation (Table 1, Figures 5-8), each regenerating the
// artifact's data — workload, parameter sweep, optimizer/simulator run and
// the rows or series the paper reports — plus comparison against the
// published reference values. cmd/lla-sim and the top-level benchmarks are
// thin wrappers around this package.
package eval

import (
	"fmt"
	"strings"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/stats"
)

// Table is a rendered result table.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// Render returns an aligned text rendering.
func (t *Table) Render() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "%s\n", t.Title)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Header)
	for i, w := range widths {
		if i > 0 {
			b.WriteString("  ")
		}
		b.WriteString(strings.Repeat("-", w))
	}
	b.WriteByte('\n')
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// CSV returns a comma-separated rendering.
func (t *Table) CSV() string {
	var b strings.Builder
	b.WriteString(strings.Join(t.Header, ","))
	b.WriteByte('\n')
	for _, row := range t.Rows {
		b.WriteString(strings.Join(row, ","))
		b.WriteByte('\n')
	}
	return b.String()
}

// Result is one experiment's output.
type Result struct {
	// ID identifies the paper artifact (e.g. "table1", "fig5").
	ID string
	// Title describes the experiment.
	Title string
	// Tables holds the produced tables.
	Tables []*Table
	// Series holds the produced figure series.
	Series []*stats.Series
	// Notes records comparison findings (paper vs measured).
	Notes []string
	// RoundsToConverge records how many optimizer rounds the experiment's
	// reference engine took to meet its convergence criterion (0 = the
	// experiment does not measure convergence, -1 = it did not converge
	// within budget). Each round is one full price round, so under the
	// distributed runtime this is the broadcast-round count.
	RoundsToConverge int
}

// Render returns the full text report of the experiment.
func (r *Result) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n\n", r.ID, r.Title)
	if r.RoundsToConverge != 0 {
		fmt.Fprintf(&b, "rounds_to_converge: %d\n\n", r.RoundsToConverge)
	}
	for _, t := range r.Tables {
		b.WriteString(t.Render())
		b.WriteByte('\n')
	}
	if len(r.Series) > 0 {
		// Plot at most four series to keep the terminal chart legible; the
		// CSV below carries everything.
		plotted := r.Series
		if len(plotted) > 4 {
			plotted = plotted[:4]
		}
		b.WriteString(AsciiPlot(64, 14, plotted...))
		b.WriteByte('\n')
		b.WriteString("series (downsampled):\n")
		b.WriteString(stats.MergeCSV(downsampleAll(r.Series, 26)...))
		b.WriteByte('\n')
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// downsampleAll bounds each series for display.
func downsampleAll(series []*stats.Series, n int) []*stats.Series {
	out := make([]*stats.Series, len(series))
	for i, s := range series {
		out[i] = s.Downsample(n)
	}
	return out
}

// Options tunes experiment budgets; the zero value uses each experiment's
// paper-faithful defaults. Quick shrinks budgets for unit tests. Workers
// sets the optimizer's shard count (0 = GOMAXPROCS, 1 = serial); the
// engine's sharded iteration is bitwise-deterministic, so the artifacts are
// identical for every setting — only wall-clock time changes.
type Options struct {
	Quick   bool
	Seed    int64
	Workers int
	// Solver selects the resource-price dynamics ("" = the paper's gradient
	// projection, not the engine's Newton default: the experiments reproduce
	// the paper's trajectories). Unlike Workers this DOES change the
	// artifacts: Newton follows a different price trajectory to the same
	// fixed point, so iteration-indexed series and rounds-to-converge counts
	// shift. The solvers experiment ignores it (it sweeps both solvers
	// itself).
	Solver price.Solver
	// Observer, when non-nil, is attached to every engine an experiment
	// creates, so a run streams per-iteration telemetry (KKT residuals,
	// prices, utilities — see internal/obs) without changing the artifacts:
	// observation is read-only and the engines remain bitwise-deterministic.
	// Experiments that run several engines in sequence (sweeps, ablations)
	// reattach the same observer to each; samples carry iteration numbers
	// that restart at 1 per engine.
	Observer *obs.Observer
	// CheckpointDir roots crash-safe checkpoints (internal/recover) for the
	// experiments that write them — currently the soak. Empty uses a
	// temporary directory that does not survive the process.
	CheckpointDir string
	// CheckpointEvery is the churn-event period between periodic checkpoint
	// saves (0 = the experiment's default). Checkpoints are also written on
	// convergence and immediately before every simulated crash.
	CheckpointEvery int
	// Shards sets the fleet experiment's shard count (0 = the experiment's
	// default). Other experiments ignore it.
	Shards int
	// ShardWorkers sets the fleet experiment's concurrent shard sweeps per
	// aggregator round (0 = min(shards, GOMAXPROCS), 1 = serial). Bitwise
	// identical artifacts at every setting — the fleet asserts it. Other
	// experiments ignore it.
	ShardWorkers int
}

// attach hooks the configured observer (if any) onto an engine. Every
// experiment calls it right after core.NewEngine.
func (o Options) attach(e *core.Engine) { e.Observe(o.Observer) }

// engineConfig is the core.Config every experiment starts from; runners that
// sweep additional knobs (step sizers, weight modes) amend the returned
// value before handing it to core.NewEngine.
func (o Options) engineConfig() core.Config {
	cfg := core.Config{Workers: o.Workers, PriceSolver: o.Solver}
	if cfg.PriceSolver == "" {
		cfg.PriceSolver = price.SolverGradient
	}
	return cfg
}

// f1, f2, f3 are numeric cell formatters.
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f3(v float64) string { return fmt.Sprintf("%.3f", v) }
