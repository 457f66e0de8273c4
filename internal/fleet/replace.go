package fleet

import (
	"fmt"
	"math"
	"reflect"
	"slices"

	"lla/internal/core"
	"lla/internal/obs"
	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
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
	Rebuilt int
	Reused  int
	// Added and Removed count tasks that joined and left.
	Added   int
	Removed int
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
// left empty. A workload that does not validate is refused before any state
// is touched; after any later error the fleet must be discarded. Shards
// share w's *task.Task values, as in New.
func (f *Fleet) ReplaceWorkload(w *workload.Workload) (ReplaceStats, error) {
	if err := w.Validate(); err != nil {
		return ReplaceStats{}, fmt.Errorf("fleet: %w", err)
	}
	inc2 := core.NewWorkloadIncidence(w)
	K := f.part.Shards
	n2 := len(w.Tasks)

	// prev[ti] is the new task ti's index in the old workload, or -1.
	prev := make([]int, n2)
	added := 0
	for ti, t := range w.Tasks {
		if oi, ok := f.taskAt[t.Name]; ok {
			prev[ti] = oi
		} else {
			prev[ti] = -1
			added++
		}
	}
	removed := len(f.w.Tasks) - (n2 - added)

	if n2 < K {
		return f.replaceFull(w, added, removed)
	}

	// Survivors keep their shard; new tasks go, in ascending task order, to
	// the shard already touching the most of their resources (ties to the
	// lowest index) under the partitioner's balance cap — the same greedy
	// signal NewPartition's refinement uses, applied incrementally.
	assign := make([]int, n2)
	count := make([]int, K)
	var fresh []int
	for ti, oi := range prev {
		if oi >= 0 {
			assign[ti] = f.part.TaskShard[oi]
			count[assign[ti]]++
		} else {
			assign[ti] = -1
			fresh = append(fresh, ti)
		}
	}
	cnt := make([]int32, inc2.NumResources()*K)
	for ti, s := range assign {
		if s < 0 {
			continue
		}
		for _, r32 := range inc2.TaskResources(ti) {
			cnt[int(r32)*K+s]++
		}
	}
	slack := f.cfg.BalanceSlack
	if slack <= 0 {
		slack = 0.2
	}
	capacity := int(math.Ceil(float64(n2) / float64(K) * (1 + slack)))
	if capacity < 1 {
		capacity = 1
	}
	for _, ti := range fresh {
		best, bestScore := -1, -1
		for s := 0; s < K; s++ {
			if count[s] >= capacity {
				continue
			}
			score := 0
			for _, r32 := range inc2.TaskResources(ti) {
				if cnt[int(r32)*K+s] > 0 {
					score++
				}
			}
			if score > bestScore {
				best, bestScore = s, score
			}
		}
		if best < 0 { // every shard at capacity: least loaded, lowest index
			best = 0
			for s := 1; s < K; s++ {
				if count[s] < count[best] {
					best = s
				}
			}
		}
		assign[ti] = best
		count[best]++
		for _, r32 := range inc2.TaskResources(ti) {
			cnt[int(r32)*K+best]++
		}
	}
	for s := 0; s < K; s++ {
		if count[s] == 0 {
			return f.replaceFull(w, added, removed)
		}
	}

	shardTasks2 := make([][]int, K)
	for s := range shardTasks2 {
		shardTasks2[s] = make([]int, 0, count[s])
	}
	for ti, s := range assign {
		shardTasks2[s] = append(shardTasks2[s], ti)
	}

	// A shard is dirty — needs a rebuilt engine — iff its task-name set
	// changed, a surviving task's definition changed, or a resource its
	// tasks use changed. Everything else about a clean shard's sub-problem
	// is bit-identical, so its engine state remains valid as-is. Survivors
	// never change shard, so the name set changed iff a task left (the
	// counts differ) or a new one arrived.
	oldRes := make(map[string]share.Resource, len(f.w.Resources))
	for _, r := range f.w.Resources {
		oldRes[r.ID] = r
	}
	resChanged := make([]bool, len(w.Resources))
	for ri, r := range w.Resources {
		resChanged[ri] = r != oldRes[r.ID]
	}
	taskDirty := func(ti int) bool {
		t := w.Tasks[ti]
		if prev[ti] < 0 || taskChanged(f.w.Tasks[prev[ti]], t, f.w.Curves[t.Name], w.Curves[t.Name]) {
			return true
		}
		for _, r32 := range inc2.TaskResources(ti) {
			if resChanged[r32] {
				return true
			}
		}
		return false
	}
	dirty := make([]bool, K)
	for s := range dirty {
		dirty[s] = len(shardTasks2[s]) != len(f.part.ShardTasks[s]) || slices.ContainsFunc(shardTasks2[s], taskDirty)
	}

	// Build the dirty shards' replacement engines, warm-started from the
	// old engine of the same shard first, then (ascending) the old shards
	// of any surviving tasks that moved in. Old engines stay alive as
	// donors until every carry is done.
	newEngines := make([]*core.Engine, K)
	rebuilt := 0
	for s := 0; s < K; s++ {
		if !dirty[s] {
			continue
		}
		sub := subWorkload(w, &inc2, fmt.Sprintf("%s/shard%d", w.Name, s), shardTasks2[s])
		eng, err := core.NewEngine(sub, f.shardCfg)
		if err != nil {
			return ReplaceStats{}, fmt.Errorf("fleet: rebuilding shard %d: %w", s, err)
		}
		donorSet := map[int]bool{s: true}
		donors := []*core.Engine{f.shards[s].eng}
		for _, ti := range shardTasks2[s] {
			if prev[ti] >= 0 {
				donorSet[f.part.TaskShard[prev[ti]]] = true
			}
		}
		for os := 0; os < K; os++ {
			if donorSet[os] && os != s {
				donors = append(donors, f.shards[os].eng)
			}
		}
		eng.CarryFrom(donors...)
		newEngines[s] = eng
		rebuilt++
	}

	// Boundary rework: new cut, prices warm-started by ID — surviving
	// boundary resources keep the aggregator's iterate, promoted interior
	// resources adopt their current engine price.
	cut2, bRes2 := cutOf(&inc2, assign, K)
	part2 := &Partition{
		Shards: K, TaskShard: assign, ShardTasks: shardTasks2,
		Boundary: bRes2, CutCost: cut2,
	}
	oldBMu := make(map[string]float64, len(f.bid))
	oldBCong := make(map[string]bool, len(f.bid))
	for b, id := range f.bid {
		oldBMu[id] = f.bmu[b]
		oldBCong[id] = f.bcong[b]
	}
	oldPinIDs := make([][]string, K)
	for s := 0; s < K; s++ {
		ids := make([]string, len(f.shards[s].slot))
		for j, b := range f.shards[s].slot {
			ids[j] = f.bid[b]
		}
		oldPinIDs[s] = ids
	}

	nb2 := len(bRes2)
	f.bid = make([]string, nb2)
	f.bavail = make([]float64, nb2)
	f.bmu = make([]float64, nb2)
	f.bdemand = make([]float64, nb2)
	f.bcurv = make([]float64, nb2)
	f.bcong = make([]bool, nb2)
	f.bmove = make([]float64, nb2)
	f.bprev = make([]float64, nb2)
	for b, ri := range bRes2 {
		id := w.Resources[ri].ID
		f.bid[b] = id
		f.bavail[b] = w.Resources[ri].Availability
		if mu, ok := oldBMu[id]; ok {
			f.bmu[b] = mu
		} else {
			mu := f.ecfg.InitialMu
			for s := 0; s < K; s++ {
				eng := newEngines[s]
				if eng == nil {
					eng = f.shards[s].eng
				}
				if lri := eng.ResourceIndex(id); lri >= 0 {
					mu = eng.MuAt(lri)
					break
				}
			}
			f.bmu[b] = mu
		}
		f.bcong[b] = oldBCong[id]
	}

	// Swap in the rebuilt engines and re-pin the new boundary everywhere.
	// On a clean shard, pinning an unchanged (price, congestion) pair does
	// not advance the pin epoch, so shards the delta did not reach stay
	// skippable; demoted boundary resources are unpinned (which does
	// advance it — the shard must re-solve with the resource free).
	newSet := make(map[string]bool, nb2)
	for _, id := range f.bid {
		newSet[id] = true
	}
	for s := 0; s < K; s++ {
		sr := f.shards[s]
		if dirty[s] {
			old := sr.eng
			sr.eng = newEngines[s]
			old.Close()
			sr.frozen, sr.sweptEpoch, sr.iters = false, 0, 0
		} else {
			for j, id := range oldPinIDs[s] {
				if !newSet[id] {
					sr.eng.UnpinPrice(sr.localRi[j])
				}
			}
		}
		sr.localRi, sr.slot = sr.localRi[:0], sr.slot[:0]
		for b, id := range f.bid {
			lri := sr.eng.ResourceIndex(id)
			if lri < 0 {
				continue
			}
			sr.localRi = append(sr.localRi, lri)
			sr.slot = append(sr.slot, b)
			if err := sr.eng.PinPrice(lri, f.bmu[b], f.bcong[b]); err != nil {
				return ReplaceStats{}, fmt.Errorf("fleet: re-pinning %s on shard %d: %w", id, s, err)
			}
		}
		sr.initBuffers(f.bid)
		// Repopulate the report buffer from the engine: a shard that stays
		// skippable must aggregate its real (cached) demand, not the zeroed
		// fresh buffer.
		sr.refreshBoundary(f.needCurv)
	}

	// Commit the name index: drop the tasks that left, move the rest.
	if removed > 0 {
		alive := make([]bool, len(f.w.Tasks))
		for _, oi := range prev {
			if oi >= 0 {
				alive[oi] = true
			}
		}
		for oi, t := range f.w.Tasks {
			if !alive[oi] {
				delete(f.taskAt, t.Name)
			}
		}
	}
	for ti, oi := range prev {
		if oi != ti {
			f.taskAt[w.Tasks[ti].Name] = ti
		}
	}
	f.bdyn.Reset(nb2)
	f.part = part2
	f.w = w
	f.stable = 0

	st := ReplaceStats{
		Rebuilt: rebuilt, Reused: K - rebuilt,
		Added: added, Removed: removed,
		BoundaryCount: nb2, CutCost: cut2,
	}
	f.publishRebuild(st, "incremental")
	return st, nil
}

// replaceFull rebuilds the fleet from scratch — fresh partition, fresh
// engines — but still warm-starts every shard from the old engines holding
// its surviving tasks and the boundary vector from the old iterate by ID.
func (f *Fleet) replaceFull(w *workload.Workload, added, removed int) (ReplaceStats, error) {
	nf, err := build(w, f.cfg)
	if err != nil {
		return ReplaceStats{}, err
	}
	for _, s := range nf.shards {
		donorSet := make(map[int]bool)
		for _, ti := range nf.part.ShardTasks[s.id] {
			if oi, ok := f.taskAt[w.Tasks[ti].Name]; ok {
				donorSet[f.part.TaskShard[oi]] = true
			}
		}
		var donors []*core.Engine
		for os := 0; os < f.part.Shards; os++ {
			if donorSet[os] {
				donors = append(donors, f.shards[os].eng)
			}
		}
		if len(donors) > 0 {
			s.eng.CarryFrom(donors...)
		}
	}
	// Warm the boundary iterate by ID (falling back to the engines' carried
	// prices for newly boundary resources) and re-pin it: CarryFrom just
	// overwrote the cold prices New pinned.
	oldBMu := make(map[string]float64, len(f.bid))
	oldBCong := make(map[string]bool, len(f.bid))
	for b, id := range f.bid {
		oldBMu[id] = f.bmu[b]
		oldBCong[id] = f.bcong[b]
	}
	for b, id := range nf.bid {
		if mu, ok := oldBMu[id]; ok {
			nf.bmu[b] = mu
		} else {
			for _, s := range nf.shards {
				if lri := s.eng.ResourceIndex(id); lri >= 0 {
					nf.bmu[b] = s.eng.MuAt(lri)
					break
				}
			}
		}
		nf.bcong[b] = oldBCong[id]
	}
	for _, s := range nf.shards {
		for j, b := range s.slot {
			if err := s.eng.PinPrice(s.localRi[j], nf.bmu[b], nf.bcong[b]); err != nil {
				return ReplaceStats{}, fmt.Errorf("fleet: re-pinning %s on shard %d: %w", nf.bid[b], s.id, err)
			}
		}
	}
	nf.stats = f.stats
	nf.hashLog, nf.residLog = f.hashLog, f.residLog
	f.Close()
	*f = *nf

	st := ReplaceStats{
		Full: true, Rebuilt: len(f.shards),
		Added: added, Removed: removed,
		BoundaryCount: len(f.bid), CutCost: f.part.CutCost,
	}
	f.publishRebuild(st, "full")
	return st, nil
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

// taskChanged reports whether a surviving task's definition differs in any
// way the compiled sub-problem can see. Curves are compared as interface
// values — dynamic type and fields — except pointer-typed ones (such as
// *utility.PiecewiseLinear), which are compared by what they point to.
func taskChanged(a, b *task.Task, ca, cb utility.Curve) bool {
	if a.CriticalMs != b.CriticalMs || a.Trigger != b.Trigger || len(a.Subtasks) != len(b.Subtasks) {
		return true
	}
	for i := range a.Subtasks {
		if a.Subtasks[i] != b.Subtasks[i] || !slices.Equal(a.Successors(i), b.Successors(i)) {
			return true
		}
	}
	// A value type that == cannot compare would panic below.
	if t := reflect.TypeOf(ca); t.Kind() == reflect.Pointer || !t.Comparable() {
		return !reflect.DeepEqual(ca, cb)
	}
	return ca != cb
}
