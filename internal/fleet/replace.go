package fleet

import (
	"fmt"
	"slices"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/workload"
)

// ReplaceStats reports what a ReplaceWorkload call did.
type ReplaceStats struct {
	// Full reports that the churn forced a full repartition-and-rebuild
	// instead of the incremental path.
	Full bool
	// Rebuilt and Reused count shards that got a new (warm-started) engine
	// versus shards whose engine — including its converged state and
	// skippability — survived untouched.
	Rebuilt, Reused int
	// Added and Removed count tasks that joined and left.
	Added, Removed int
	// BoundaryCount and CutCost describe the post-churn partition.
	BoundaryCount int
	CutCost       int
}

// ReplaceWorkload applies a workload churn delta — tasks joining, leaving or
// changing, resources changing capacity — rebuilding only the shards the
// delta touches. Surviving tasks keep their shard; new tasks are placed
// deterministically on the shard already touching most of their resources.
// Untouched shards keep their engine, converged state and pin epochs, so a
// localized delta leaves most of the fleet skippable and re-certification
// costs roughly the affected shards' sweeps. Rebuilt shards warm-start via
// core.CarryFrom from the old engines holding their tasks; the boundary
// price vector is recomputed for the new cut and warm-started by resource
// ID. Falls back to a full rebuild (still warm-started) when the delta
// invalidates the partition shape — fewer tasks than shards, or a shard
// left empty. Shards share w's *task.Task values, as in New.
//
// Validation, the match of each task to its predecessor and the diff are one
// pass over w (workload.Checked.Recheck, SHARDING.md §3b): w is refused,
// before any state is touched, exactly when w.Validate would refuse it.
// After any later error the fleet must be discarded.
func (f *Fleet) ReplaceWorkload(w *workload.Workload) (ReplaceStats, error) {
	if f.taskAt == nil { // the first churn: index the names now
		f.taskAt = f.ck.Workload().TaskIndex()
	}
	ck2, prev, taskDirty, err := f.ck.Recheck(w, f.taskAt)
	if err != nil {
		return ReplaceStats{}, fmt.Errorf("fleet: %w", err)
	}
	old, K, n2 := f.ck.Workload(), f.part.Shards, len(w.Tasks)

	// Survivors keep their shard; new tasks go, in ascending task order, to
	// the shard already touching the most of their resources (ties to the
	// lowest index) under the partitioner's balance cap — the same greedy
	// signal NewPartition's refinement uses, applied incrementally to the
	// partition's incidence, moved by the delta: the old rows of changed
	// survivors and of the tasks that left out, the new rows in (all of them
	// when the resource table moved, which re-indexes every row). A shard is
	// dirty — needs a rebuilt engine — iff a task left or joined it, one of
	// its tasks changed, or a resource its tasks use changed: anything else
	// about its sub-problem is bit-identical to its engine's. Where no task
	// index moved, a clean shard keeps its task list.
	si, sameRes, moved := f.part.inc, ck2.SharesIDs(f.ck), false
	if !sameRes {
		si = newShardIncidence(ck2, nil, K)
	}
	assign, count, alive, dirty := make([]int, n2), make([]int, K), make([]bool, len(old.Tasks)), make([]bool, K)
	var fresh, gone []int
	for ti, oi := range prev {
		if oi < 0 {
			assign[ti] = -1
			fresh = append(fresh, ti)
			continue
		}
		s := f.part.TaskShard[oi]
		assign[ti], alive[oi], moved = s, true, moved || oi != ti
		count[s]++
		if taskDirty[ti] {
			dirty[s] = true
			if sameRes {
				si.tally(f.ck.TaskResources(oi), s, -1)
			}
		}
		if !sameRes || taskDirty[ti] {
			si.tally(ck2.TaskResources(ti), s, 1)
		}
	}
	for oi, ok := range alive {
		if !ok {
			gone, dirty[f.part.TaskShard[oi]] = append(gone, oi), true
			if sameRes {
				si.tally(f.ck.TaskResources(oi), f.part.TaskShard[oi], -1)
			}
		}
	}
	added, removed := len(fresh), len(gone)
	if n2 < K {
		return f.replaceFull(ck2, prev, added, removed)
	}
	capacity := balanceCap(n2, K)
	// Placed tasks number fewer than n2 <= K*capacity, so some shard is always
	// under the cap.
	for _, ti := range fresh {
		best, bestScore := -1, -1
		for s := 0; s < K; s++ {
			if count[s] >= capacity {
				continue
			}
			score := 0
			for _, r32 := range ck2.TaskResources(ti) {
				if si.cnt[int(r32)*K+s] > 0 {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = s, score
			}
		}
		assign[ti], dirty[best] = best, true
		count[best]++
		si.tally(ck2.TaskResources(ti), best, 1)
	}
	if slices.Contains(count, 0) {
		return f.replaceFull(ck2, prev, added, removed)
	}

	shardTasks2 := make([][]int, K)
	for s := range shardTasks2 {
		if shardTasks2[s] = f.part.ShardTasks[s]; moved || dirty[s] {
			shardTasks2[s] = make([]int, 0, count[s])
		}
	}
	for ti, s := range assign {
		if moved || dirty[s] {
			shardTasks2[s] = append(shardTasks2[s], ti)
		}
	}

	// Build the dirty shards' replacement engines on the fleet's pool,
	// warm-started from the old engine of the same shard first, then
	// (ascending) the old shards of any surviving tasks that moved in. Old
	// engines stay alive as donors until every carry is done.
	newEngines, _, err := f.buildShards(ck2, shardTasks2, dirty, prev)
	if err != nil {
		return ReplaceStats{}, err
	}

	// Swap in the rebuilt engines, then bind the new cut's boundary on every
	// shard: surviving boundary resources keep the aggregator's iterate,
	// promoted interior resources adopt their current engine price.
	rebuilt := 0
	for s, eng := range newEngines {
		if sr := f.shards[s]; eng != nil {
			rebuilt++
			sr.eng.Close()
			sr.eng, sr.localRi, sr.slot = eng, nil, nil
			sr.atRest, sr.sweptEpoch, sr.iters, sr.utilityOK = false, 0, 0, false
		}
	}
	cut2, bRes2 := si.cut()
	if err := f.bindBoundary(w, bRes2, f); err != nil {
		return ReplaceStats{}, err
	}

	// Commit the name index: drop the tasks that left, move the rest.
	for _, oi := range gone {
		delete(f.taskAt, old.Tasks[oi].Name)
	}
	for ti, oi := range prev {
		if oi != ti {
			f.taskAt[w.Tasks[ti].Name] = ti
		}
	}
	f.part = &Partition{Shards: K, TaskShard: assign, ShardTasks: shardTasks2, Boundary: bRes2, CutCost: cut2, inc: si}
	f.ck = ck2
	f.stable = 0

	st := ReplaceStats{Rebuilt: rebuilt, Reused: K - rebuilt, Added: added, Removed: removed, BoundaryCount: len(bRes2), CutCost: cut2}
	f.publishRebuild(st, "incremental")
	return st, nil
}

// replaceFull rebuilds the fleet from scratch — fresh partition, fresh
// engines — but still warm-starts every shard from the old engines holding
// its surviving tasks and the boundary vector from the old iterate by ID.
func (f *Fleet) replaceFull(ck *workload.Checked, prev []int, added, removed int) (ReplaceStats, error) {
	nf, err := build(ck, f.cfg)
	if err != nil {
		return ReplaceStats{}, err
	}
	for _, s := range nf.shards {
		if donors := f.donors(-1, nf.part.ShardTasks[s.id], prev); len(donors) > 0 {
			s.eng.CarryFrom(donors...)
		}
	}
	// CarryFrom just overwrote the cold prices build pinned: bind again, warm.
	if err := nf.bindBoundary(ck.Workload(), nf.part.Boundary, f); err != nil {
		return ReplaceStats{}, err
	}
	nf.stats = f.stats
	nf.hashLog, nf.residLog = f.hashLog, f.residLog
	f.Close()
	*f = *nf
	f.taskAt = ck.Workload().TaskIndex()

	st := ReplaceStats{
		Full: true, Rebuilt: len(f.shards),
		Added: added, Removed: removed,
		BoundaryCount: len(f.bid), CutCost: f.part.CutCost,
	}
	f.publishRebuild(st, "full")
	return st, nil
}

// donors lists the engines a rebuilt shard holding the given tasks of the new
// workload warm-starts from: the old engine of shard own first (-1: none),
// then, ascending, the old shards of its surviving tasks.
func (f *Fleet) donors(own int, tasks, prev []int) []*core.Engine {
	from := make([]bool, len(f.shards))
	var donors []*core.Engine
	if own >= 0 {
		donors = append(donors, f.shards[own].eng)
	}
	for _, ti := range tasks {
		if oi := prev[ti]; oi >= 0 {
			from[f.part.TaskShard[oi]] = true
		}
	}
	for os, ok := range from {
		if ok && os != own {
			donors = append(donors, f.shards[os].eng)
		}
	}
	return donors
}

// publishRebuild emits the rebuild metrics and trace event.
func (f *Fleet) publishRebuild(st ReplaceStats, detail string) {
	if f.fm != nil {
		f.fm.BoundaryResources.Set(float64(st.BoundaryCount))
		f.fm.CutCost.Set(float64(st.CutCost))
		f.fm.ShardRebuilds.Add(int64(st.Rebuilt))
		f.fm.ShardReuses.Add(int64(st.Reused))
	}
	f.obsv.Emit(obs.Event{Kind: obs.EventFleetRebuild,
		Iteration: st.Rebuilt, Value: float64(st.Reused), Detail: detail})
}
