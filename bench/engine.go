package main

import (
	"fmt"
	"math/rand"
	"time"

	"lla/internal/core"
	"lla/internal/workload"
)

// Stopping rule of engine-online, for the cold convergence and every event.
const (
	onlineMaxIters = 3000
	onlineKKTTol   = 1e-9
	onlineWindow   = 3
	onlineTol      = 1e-6
)

// dagClusters is the engine-online generator shape: 8 clusters of 100
// layered-DAG tasks (3-7 subtasks, several paths each) over 400 resources,
// replicated 12 times, 5 % of tasks reaching into the next cluster.
func dagClusters(o options) workload.ClusteredConfig {
	cfg := workload.DefaultClusteredConfig(o.seed)
	cfg.Clusters = 8
	cfg.TasksPerCluster = 100
	cfg.ReplicateFactor = o.scaled(12)
	cfg.ResourcesPerCluster = 400
	cfg.MinSubtasks = 3
	cfg.MaxSubtasks = 7
	cfg.ChainOnly = false
	cfg.SlackFactor = 400
	cfg.CrossFraction = 0.05
	cfg.Availability = o.availability
	return cfg
}

// runEngineOnline is engine-online: one engine, converged once, then hit
// with seeded capacity changes and re-converged after each.
func runEngineOnline(r *run) error {
	const setups, perEvent = 2, 8
	cfg := dagClusters(r.o)

	var w *workload.Workload
	var e *core.Engine
	for i := 0; i < setups; i++ {
		if e != nil {
			e.Close()
			e = nil
		}
		quiesce()
		last := i == setups-1
		root := r.beginSetup(last)
		var err error
		var ok bool
		var genD, newD time.Duration
		d := r.tr.timed("setup", root, func(id int) {
			genD = r.tr.timed("workload.gen", id, func(int) { w, err = workload.Clustered(cfg) })
			if err != nil {
				return
			}
			newD = r.tr.timed("core.new_engine", id, func(int) { e, err = core.NewEngine(w, core.Config{}) })
			if err != nil {
				return
			}
			r.tr.timed("core.run_until_kkt", id, func(int) {
				_, ok = e.RunUntilKKT(onlineMaxIters, onlineKKTTol, onlineWindow, onlineTol)
			})
		})
		r.endSetup(root, d)
		if err != nil {
			return fmt.Errorf("engine-online: set-up: %w", err)
		}
		r.check(ok, "set-up %d: no KKT point within %d iterations", i, onlineMaxIters)
		if last {
			r.layer["workload.gen_s"] = genD.Seconds()
			r.layer["core.new_engine_s"] = newD.Seconds()
		}
		if !ok {
			e.Close()
			return nil // nothing converged to perturb; the failure is recorded
		}
	}
	defer func() { e.Close() }()

	rng := rand.New(rand.NewSource(r.o.seed))
	subtasks := float64(w.TotalSubtasks())
	var halved []string
	var setAvailUs, eventIters []float64
	var iterate time.Duration
	e.ResetSparseStats()
	events := max(r.o.scaled(onlineEvents), 6)
	for ev := 0; ev < events; ev++ {
		picks := make([]string, perEvent)
		for i := range picks {
			picks[i] = w.Resources[rng.Intn(len(w.Resources))].ID
		}
		root := r.beginOp(ev)
		iter := r.tr.begin("iterate", root)
		var err error
		setD := r.tr.timed("core.set_availability", iter, func(int) {
			for _, id := range halved {
				if err == nil {
					err = e.SetAvailability(id, r.o.availability)
				}
			}
			for _, id := range picks {
				if err == nil {
					err = e.SetAvailability(id, r.o.availability/2)
				}
			}
		})
		if err != nil {
			return fmt.Errorf("engine-online: event %d: %w", ev, err)
		}
		setAvailUs = append(setAvailUs, float64(setD)/float64(time.Microsecond)/float64(len(halved)+len(picks)))
		halved = picks
		before := e.Iteration()
		var snap core.Snapshot
		var ok bool
		runD := r.tr.timed("core.run_until_kkt", iter, func(int) {
			snap, ok = e.RunUntilKKT(onlineMaxIters, onlineKKTTol, onlineWindow, onlineTol)
		})
		r.tr.end(iter)
		its := snap.Iteration - before

		verify := r.tr.begin("verify", root)
		kkt, _, _ := e.KKTStats()
		r.check(ok && kkt <= onlineKKTTol, "event %d: KKT residual %.3g after %d iterations", ev, kkt, its)
		r.check(snap.Feasible(onlineTol), "event %d: infeasible (resource %.3g, path %.3g)",
			ev, snap.MaxResourceViolation, snap.MaxPathViolationFrac)
		r.tr.end(verify)
		r.endOp(root, setD+runD, runD, its)
		eventIters = append(eventIters, float64(its))
		iterate += runD
	}

	r.recertifyMetrics()
	if r.o.trace {
		runCoreRungs(r, w, w, e.Workers())
		// The events' own readings replace the rung replays where both exist.
		st := e.SparseStats()
		r.layer["core.sparse_skipped_pct"] = 100 * ratio(int(st.SkippedSolves), int(st.SkippedSolves+st.ExecutedSolves))
		r.layer["core.iters_per_event_p50"] = median(eventIters)
		r.layer["core.set_availability_us"] = median(setAvailUs)
		r.layer["core.subtask_iters_per_s"] = sum(eventIters) * subtasks / iterate.Seconds()
	}
	return nil
}
