package eval

import (
	"fmt"
	"math"
	"reflect"

	"lla/internal/core"
	"lla/internal/fleet"
	"lla/internal/obs"
	"lla/internal/stats"
	"lla/internal/workload"
)

// fleetUtilityTol gates the sharded fixed point against the single engine's:
// the aggregate utilities must agree to this relative deviation. The fleet
// certifies its own KKT residual too, but the cross-check against an
// independently converged engine is what ties the hierarchy back to the
// paper's centralized optimum.
const fleetUtilityTol = 1e-6

// Fleet runs the hierarchical sharded fleet (SHARDING.md) on a clustered
// workload and cross-checks it against the single-engine reference: the
// partition statistics, the aggregator rounds versus the single engine's KKT
// rounds, and the fixed-point utilities. Two invariants are asserted as it
// runs: a repeat run reproduces identical per-shard state hashes at every
// aggregator round (per-shard bitwise determinism), and the fleet's utility
// matches the single engine's within fleetUtilityTol.
func Fleet(opts Options) (*Result, error) {
	shards := opts.Shards
	if shards <= 0 {
		shards = 8
		if opts.Quick {
			shards = 4
		}
	}
	ccfg := workload.DefaultClusteredConfig(opts.Seed)
	ccfg.Clusters = shards
	ccfg.CrossFraction = 0.15
	singleIters := 20000
	if opts.Quick {
		ccfg.TasksPerCluster = 5
		singleIters = 5000
	} else {
		ccfg.TasksPerCluster = 12
		ccfg.ReplicateFactor = 4
		// Replication multiplies demand on each cluster's shared resources,
		// so the critical-time slack must scale with it or the minimum
		// feasible demand alone overloads the boundary (no price fixes that).
		ccfg.SlackFactor = 40
	}
	w, err := workload.Clustered(ccfg)
	if err != nil {
		return nil, err
	}

	build := func(workers int) (*fleet.Fleet, *obs.Memory, error) {
		mem := obs.NewMemory()
		fobs := &obs.Observer{Trace: mem}
		if opts.Observer != nil {
			fobs.Metrics = opts.Observer.Metrics
			if opts.Observer.Trace != nil {
				fobs.Trace = obs.MultiSink(opts.Observer.Trace, mem)
			}
		}
		f, err := fleet.New(w, fleet.Config{
			Shards:       shards,
			Seed:         opts.Seed,
			ShardWorkers: workers,
			Engine:       opts.engineConfig(),
			RecordHashes: true,
			Observer:     fobs,
		})
		return f, mem, err
	}
	run := func(workers int) (fleet.Result, *obs.Memory, error) {
		f, mem, err := build(workers)
		if err != nil {
			return fleet.Result{}, nil, err
		}
		defer f.Close()
		r, err := f.Run()
		return r, mem, err
	}

	// Primary run at the requested sweep concurrency (0 = parallel default);
	// the serial repeat both reproduces the run (bitwise determinism) and
	// proves the parallel rounds leave no scheduling fingerprint.
	fres, mem, err := run(opts.ShardWorkers)
	if err != nil {
		return nil, err
	}
	if !fres.Converged {
		return nil, fmt.Errorf("eval: fleet did not certify within %d rounds (kkt %.3g, boundary %.3g)",
			fres.Rounds, fres.KKTMax, fres.BoundaryResidual)
	}
	serial, _, err := run(1)
	if err != nil {
		return nil, err
	}
	if !reflect.DeepEqual(fres.ShardHashes, serial.ShardHashes) {
		return nil, fmt.Errorf("eval: parallel fleet (%d sweep workers) diverged from the serial run — per-shard state hashes differ",
			fres.ShardWorkers)
	}
	if !reflect.DeepEqual(fres.BoundaryResiduals, serial.BoundaryResiduals) {
		return nil, fmt.Errorf("eval: parallel fleet diverged from the serial run — boundary residual series differ")
	}

	single, err := core.NewEngine(w, opts.engineConfig())
	if err != nil {
		return nil, err
	}
	defer single.Close()
	opts.attach(single)
	snap, ok := single.RunUntilKKT(singleIters, 1e-6, 3, 1e-6)
	if !ok {
		return nil, fmt.Errorf("eval: single-engine reference did not converge within %d iterations", singleIters)
	}
	relDev := math.Abs(fres.Utility-snap.Utility) / math.Max(1, math.Abs(snap.Utility))
	if relDev > fleetUtilityTol {
		return nil, fmt.Errorf("eval: fleet utility %.6g deviates from single-engine %.6g by %.3g (> %g)",
			fres.Utility, snap.Utility, relDev, fleetUtilityTol)
	}

	res := &Result{
		ID:               "fleet",
		Title:            "Hierarchical sharded fleet vs single engine (SHARDING.md)",
		RoundsToConverge: fres.Rounds,
	}
	summary := &Table{
		Title:  "Fleet convergence and partition statistics",
		Header: []string{"shards", "workers", "tasks", "subtasks", "boundary", "cut", "rounds", "swept", "skipped", "local iters", "single iters", "util dev"},
	}
	summary.AddRow(
		fmt.Sprintf("%d", shards),
		fmt.Sprintf("%d", fres.ShardWorkers),
		fmt.Sprintf("%d", len(w.Tasks)),
		fmt.Sprintf("%d", w.TotalSubtasks()),
		fmt.Sprintf("%d", fres.BoundaryCount),
		fmt.Sprintf("%d", fres.CutCost),
		fmt.Sprintf("%d", fres.Rounds),
		fmt.Sprintf("%d", fres.SweptShards),
		fmt.Sprintf("%d", fres.SkippedShards),
		fmt.Sprintf("%d", fres.LocalIters),
		fmt.Sprintf("%d", snap.Iteration),
		fmt.Sprintf("%.2g", relDev),
	)
	res.Tables = append(res.Tables, summary)

	// Churn phase: tighten one task's critical time and apply the delta
	// through incremental repartitioning — only the affected shards rebuild
	// and the warm fleet re-certifies in a fraction of the cold rounds.
	w2 := w.Clone()
	w2.Tasks[0].CriticalMs *= 0.95
	warm, _, err := build(opts.ShardWorkers)
	if err != nil {
		return nil, err
	}
	defer warm.Close()
	if _, err := warm.Run(); err != nil {
		return nil, err
	}
	rst, err := warm.ReplaceWorkload(w2)
	if err != nil {
		return nil, fmt.Errorf("eval: fleet ReplaceWorkload: %w", err)
	}
	wres, err := warm.Run()
	if err != nil {
		return nil, err
	}
	if !wres.Converged {
		return nil, fmt.Errorf("eval: warm fleet did not re-certify after churn within %d rounds", wres.Rounds)
	}
	coldRef, err := func() (fleet.Result, error) {
		f, err := fleet.New(w2, fleet.Config{
			Shards: shards, Seed: opts.Seed, ShardWorkers: opts.ShardWorkers,
			Engine: opts.engineConfig(),
		})
		if err != nil {
			return fleet.Result{}, err
		}
		defer f.Close()
		return f.Run()
	}()
	if err != nil {
		return nil, err
	}
	relChurn := math.Abs(wres.Utility-coldRef.Utility) / math.Max(1, math.Abs(coldRef.Utility))
	if relChurn > fleetUtilityTol {
		return nil, fmt.Errorf("eval: warm post-churn utility %.6g deviates from cold %.6g by %.3g (> %g)",
			wres.Utility, coldRef.Utility, relChurn, fleetUtilityTol)
	}
	churn := &Table{
		Title:  "Incremental repartitioning after churn (one task's critical time tightened 5%)",
		Header: []string{"mode", "rebuilt", "reused", "rounds", "local iters"},
	}
	churn.AddRow("warm (ReplaceWorkload)",
		fmt.Sprintf("%d", rst.Rebuilt), fmt.Sprintf("%d", rst.Reused),
		fmt.Sprintf("%d", wres.Rounds), fmt.Sprintf("%d", wres.LocalIters))
	churn.AddRow("cold (full rebuild)",
		fmt.Sprintf("%d", shards), "0",
		fmt.Sprintf("%d", coldRef.Rounds), fmt.Sprintf("%d", coldRef.LocalIters))
	res.Tables = append(res.Tables, churn)

	resid := stats.NewSeries("boundary-residual")
	iters := stats.NewSeries("local-iters-per-round")
	for _, ev := range mem.ByKind(obs.EventFleetRound) {
		resid.Append(float64(ev.Round), ev.Value)
		iters.Append(float64(ev.Round), float64(ev.Iteration))
	}
	res.Series = append(res.Series, resid, iters)
	res.Notes = append(res.Notes,
		fmt.Sprintf("serial repeat (1 sweep worker) reproduced the %d-worker run's per-shard state hashes across all %d rounds (asserted)", fres.ShardWorkers, fres.Rounds),
		fmt.Sprintf("fleet utility within %.2g of the single-engine KKT fixed point (asserted at %g)", relDev, fleetUtilityTol),
		fmt.Sprintf("post-churn warm restart rebuilt %d/%d shards and re-certified in %d rounds (cold: %d); utility within %.2g of cold (asserted at %g)",
			rst.Rebuilt, shards, wres.Rounds, coldRef.Rounds, relChurn, fleetUtilityTol),
	)
	return res, nil
}
