// Command lla-sim regenerates the paper's evaluation artifacts — Table 1
// and Figures 5-8 — plus the repo's own studies (ablations, percentile
// sweeps, the churn admission-control experiment). Each experiment prints
// its tables, a downsampled view of its figure series, and
// paper-vs-measured notes; -csv dumps the full series for external
// plotting.
//
//	lla-sim -experiment table1
//	lla-sim -experiment all -csv out/
//	lla-sim -experiment churn -quick
//	lla-sim -experiment fig5 -trace fig5.jsonl -debug-addr localhost:8080
//
// -trace streams one JSONL line per optimizer iteration (KKT residuals,
// prices, demands — see OBSERVABILITY.md); -debug-addr serves /metrics,
// /debug/vars and /debug/pprof while the experiments run, and the same
// JSONL lines live as Server-Sent Events on /stream.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"lla/internal/eval"
	"lla/internal/obs"
	"lla/internal/price"
	"lla/internal/stats"
)

// experiments is the single registry of runnable experiments: the -experiment
// flag's help text, the name lookup, and the "all" execution order are all
// derived from this slice, so adding an entry here is the whole registration.
var experiments = []struct {
	id string
	fn func(eval.Options) (*eval.Result, error)
}{
	{"table1", eval.Table1},
	{"fig5", eval.Fig5},
	{"fig6", eval.Fig6},
	{"fig7", eval.Fig7},
	{"fig8", eval.Fig8},
	{"percentiles", eval.Percentiles},
	{"ablation-weights", eval.AblationWeights},
	{"ablation-baselines", eval.AblationBaselines},
	{"adaptation", eval.Adaptation},
	{"churn", eval.Churn},
	{"solvers", eval.Solvers},
	{"soak", eval.Soak},
	{"fleet", eval.Fleet},
}

// experimentIDs lists every registered experiment id, in run order.
func experimentIDs() []string {
	ids := make([]string, len(experiments))
	for i, e := range experiments {
		ids[i] = e.id
	}
	return ids
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "lla-sim:", err)
		os.Exit(1)
	}
}

// simFlags holds every lla-sim flag value. newFlagSet is the single place
// flags are declared, so the help test can assert the complete set.
type simFlags struct {
	experiment, solver, csvDir, tracePath, debugAddr, checkpointDir *string
	quick                                                           *bool
	seed                                                            *int64
	workers, sampleEvery, checkpointEvery, shards, shardWorkers     *int
}

// newFlagSet declares the full lla-sim flag set.
func newFlagSet() (*flag.FlagSet, *simFlags) {
	fs := flag.NewFlagSet("lla-sim", flag.ContinueOnError)
	f := &simFlags{
		experiment: fs.String("experiment", "all",
			"experiment: "+strings.Join(experimentIDs(), ", ")+", all"),
		quick:   fs.Bool("quick", false, "shrink iteration budgets (smoke test)"),
		seed:    fs.Int64("seed", 1, "simulation seed (fig8, soak)"),
		workers: fs.Int("workers", 0, "optimizer shards per iteration: 0 = GOMAXPROCS, 1 = serial (results are identical either way)"),
		solver:  fs.String("solver", "", "price dynamics: gradient (default here: the paper's experiments trace its trajectories), or newton (the engine default) — both reach the same fixed point"),
		csvDir:  fs.String("csv", "", "directory to write full series CSVs into"),
		tracePath: fs.String("trace", "",
			"append per-iteration JSONL telemetry (samples + events) to this file"),
		debugAddr: fs.String("debug-addr", "",
			"serve /metrics, /stream (SSE tail of the JSONL trace), /state, /debug/vars and /debug/pprof on this address while experiments run"),
		sampleEvery: fs.Int("trace-every", 1, "record every Nth iteration in the trace (1 = all)"),
		checkpointDir: fs.String("checkpoint-dir", "",
			"directory for crash-safe checkpoints in experiments that write them (soak); empty = a per-run temp dir"),
		checkpointEvery: fs.Int("checkpoint-every", 0,
			"churn events between periodic checkpoint saves (0 = experiment default)"),
		shards: fs.Int("shards", 0,
			"fleet experiment: number of coordinator shards (0 = experiment default; see SHARDING.md)"),
		shardWorkers: fs.Int("shard-workers", 0,
			"fleet experiment: concurrent shard sweeps per aggregator round (0 = min(shards, GOMAXPROCS), 1 = serial; results are bitwise identical either way)"),
	}
	return fs, f
}

func run(args []string, stdout io.Writer) error {
	fs, f := newFlagSet()
	if err := fs.Parse(args); err != nil {
		return err
	}
	var o *obs.Observer
	if *f.tracePath != "" || *f.debugAddr != "" {
		// One JSONL encoder feeds both byte sinks — the trace file and the
		// debug server's /stream — so -trace-every paces both.
		o = &obs.Observer{Metrics: obs.NewRegistry()}
		var sinks []io.Writer
		if *f.tracePath != "" {
			file, err := os.OpenFile(*f.tracePath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				return err
			}
			defer file.Close()
			sinks = append(sinks, file)
		}
		if *f.debugAddr != "" {
			st := obs.NewStream(o.Metrics)
			srv, addr, err := obs.Serve(*f.debugAddr, o.Metrics, st)
			if err != nil {
				return err
			}
			defer srv.Close()
			sinks = append(sinks, st)
			fmt.Fprintf(os.Stderr, "debug endpoint on http://%s/metrics (also /stream, /state, /debug/vars, /debug/pprof)\n", addr)
		}
		j := obs.NewJSONL(io.MultiWriter(sinks...))
		j.Every = *f.sampleEvery
		o.Recorder, o.Trace = j, j
		defer func() {
			if err := j.Err(); err != nil {
				fmt.Fprintln(os.Stderr, "lla-sim: trace:", err)
			}
		}()
	}

	runners := make(map[string]func(eval.Options) (*eval.Result, error), len(experiments))
	for _, e := range experiments {
		runners[e.id] = e.fn
	}

	var selected []string
	if *f.experiment == "all" {
		selected = experimentIDs()
	} else if _, ok := runners[*f.experiment]; ok {
		selected = []string{*f.experiment}
	} else {
		return fmt.Errorf("unknown experiment %q (see -h for the list)", *f.experiment)
	}

	sol, err := price.ParseSolver(*f.solver)
	if err != nil {
		return err
	}
	opts := eval.Options{Quick: *f.quick, Seed: *f.seed, Workers: *f.workers, Observer: o, Solver: sol,
		CheckpointDir: *f.checkpointDir, CheckpointEvery: *f.checkpointEvery,
		Shards: *f.shards, ShardWorkers: *f.shardWorkers}
	for _, name := range selected {
		res, err := runners[name](opts)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		fmt.Fprintln(stdout, res.Render())
		if *f.csvDir != "" {
			if err := writeCSVs(*f.csvDir, res); err != nil {
				return err
			}
		}
	}
	return nil
}

// writeCSVs dumps each result's series and tables as CSV files.
func writeCSVs(dir string, res *eval.Result) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if len(res.Series) > 0 {
		path := filepath.Join(dir, res.ID+"_series.csv")
		if err := os.WriteFile(path, []byte(stats.MergeCSV(res.Series...)), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	for i, t := range res.Tables {
		path := filepath.Join(dir, fmt.Sprintf("%s_table%d.csv", res.ID, i))
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}
	return nil
}
