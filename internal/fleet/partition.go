// Package fleet implements hierarchical multi-coordinator sharding
// (SHARDING.md): a deterministic balanced min-cut
// partitioner over the task/resource incidence, a shard runtime wrapping
// one core.Engine per shard, and a top-level aggregator that iterates only
// on cross-shard ("boundary") resource prices — the decomposition of the
// Agrawal/Boyd price-discovery method applied to the paper's dual. Each
// shard's subproblem is just a smaller instance of the same Lagrangian, so
// the shard engines run their configured price.Dynamics unchanged, and on a
// partition with no cross-shard resources the fleet trajectory is bitwise
// identical to the single engine's.
package fleet

import (
	"fmt"
	"math"
	"math/bits"
	"math/rand"
)

// Incidence is what the partitioner reads of a problem's structure: for each
// task, the distinct resources it touches. A compiled problem's
// *core.Incidence provides it, and so does a validated workload's
// *workload.Checked, which is how the fleet partitions without compiling.
type Incidence interface {
	NumTasks() int
	NumResources() int
	TaskResources(ti int) []int32
}

// PartitionConfig parametrizes the task partitioner.
type PartitionConfig struct {
	// Shards is the number of shards K (>= 1; clamped to the task count).
	Shards int
	// Seed drives the refinement pass's task visit order. The partition is a
	// pure function of (incidence, config) — identical inputs produce
	// identical partitions on every run and GOMAXPROCS setting.
	Seed int64
}

// balanceSlack bounds shard size: no shard exceeds
// ceil(numTasks/K * (1+balanceSlack)).
const balanceSlack = 0.2

// refinePasses is the number of greedy refinement passes.
const refinePasses = 3

// Partition assigns every task to exactly one shard and identifies the
// boundary resources — those receiving shares from tasks in more than one
// shard, whose prices the top-level aggregator owns.
type Partition struct {
	// Shards is the effective shard count.
	Shards int
	// TaskShard[ti] is the shard of task ti.
	TaskShard []int
	// ShardTasks[s] lists shard s's tasks in ascending task order.
	ShardTasks [][]int
	// Boundary lists the cross-shard resource indices, ascending.
	Boundary []int
	// CutCost is Σ_r max(0, shards touching r − 1): the number of
	// shard-resource attachments the aggregator must reconcile.
	CutCost int
	// inc is the assignment's incidence, which a churn event moves by its
	// delta instead of recounting (ReplaceWorkload).
	inc *shardIncidence
}

// NewPartition computes a seeded, balanced, small-cut partition of the tasks
// into cfg.Shards shards. Initial assignment is contiguous blocks (cluster-
// ordered workloads land whole clusters in one shard); greedy refinement
// passes then move tasks toward shards their resources already touch, each
// move strictly reducing the cut under the balance cap. If naive round-robin
// would beat the refined cut (pathological topologies), round-robin is used
// instead — the result never cuts more than round-robin. Every shard always
// holds at least one task (refinement never drains a shard).
func NewPartition(inc Incidence, cfg PartitionConfig) (*Partition, error) {
	n := inc.NumTasks()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("fleet: Shards must be >= 1, got %d", cfg.Shards)
	}
	if n < 1 {
		return nil, fmt.Errorf("fleet: cannot partition an empty problem")
	}
	k := min(cfg.Shards, n)
	capacity := balanceCap(n, k)

	// Contiguous-block initial assignment: task i -> shard i*k/n. Block
	// sizes differ by at most one, so the balance cap holds from the start.
	assign, count := make([]int, n), make([]int, k)
	for i := range assign {
		assign[i] = i * k / n
		count[assign[i]]++
	}

	si := newShardIncidence(inc, assign, k)
	cnt, mask, words := si.cnt, si.mask, si.words

	rng := rand.New(rand.NewSource(cfg.Seed))
	order := rng.Perm(n)
	for pass := 0; pass < refinePasses; pass++ {
		moved := 0
		for _, i := range order {
			s0 := assign[i]
			if count[s0] == 1 {
				continue // never empty a shard: every shard keeps >= 1 task
			}
			res := inc.TaskResources(i)
			// Candidates: shards already touching one of i's resources.
			// Moving elsewhere can only add cut edges.
			best, bestDelta := -1, 0
			for w := 0; w < words; w++ {
				var m uint64
				for _, r32 := range res {
					m |= mask[int(r32)*words+w]
				}
				for m != 0 {
					b := bits.TrailingZeros64(m)
					m &^= 1 << b
					s := w*64 + b
					if s == s0 || count[s] >= capacity {
						continue
					}
					delta := 0
					for _, r32 := range res {
						r := int(r32)
						if cnt[r*k+s] == 0 {
							delta++ // move attaches r to a new shard
						}
						if cnt[r*k+s0] == 1 {
							delta-- // move detaches r from s0
						}
					}
					// Strict improvement only (bestDelta starts at 0), first
					// candidate wins ties — s iterates ascending, so the
					// tie-break is the lowest shard index: deterministic.
					if delta < bestDelta {
						best, bestDelta = s, delta
					}
				}
			}
			if best < 0 {
				continue
			}
			count[s0]--
			count[best]++
			assign[i] = best
			si.tally(res, s0, -1)
			si.tally(res, best, 1)
			moved++
		}
		if moved == 0 {
			break
		}
	}

	// Guarantee: never worse than naive round-robin. Round-robin is also
	// perfectly balanced, so swapping it in cannot violate the balance cap.
	rr := make([]int, n)
	for i := range rr {
		rr[i] = i % k
	}
	greedyCut, _ := si.cut()
	rrInc := newShardIncidence(inc, rr, k)
	if rrCut, _ := rrInc.cut(); rrCut < greedyCut {
		assign, si = rr, rrInc
	}

	cut, boundary := si.cut()
	p := &Partition{Shards: k, TaskShard: assign, ShardTasks: make([][]int, k), Boundary: boundary, CutCost: cut, inc: si}
	for i, s := range assign {
		p.ShardTasks[s] = append(p.ShardTasks[s], i)
	}
	return p, nil
}

// balanceCap is the most tasks a shard may hold: ceil(n/k * (1+balanceSlack)).
func balanceCap(n, k int) int {
	return max(1, int(math.Ceil(float64(n)/float64(k)*(1+balanceSlack))))
}

// shardIncidence is an assignment's incidence: cnt[r*k+s] counts shard s's
// tasks touching resource r, and mask holds the same as a per-resource shard
// bitset, so that candidate shards and cut costs come from O(degree) and
// O(words) scans, not O(k) ones.
type shardIncidence struct {
	k, words int
	cnt      []int32
	mask     []uint64
}

// newShardIncidence counts assign's tasks over k shards; a task on shard -1
// is not counted.
func newShardIncidence(inc Incidence, assign []int, k int) *shardIncidence {
	words := (k + 63) / 64
	si := &shardIncidence{k: k, words: words, cnt: make([]int32, inc.NumResources()*k), mask: make([]uint64, inc.NumResources()*words)}
	for ti, s := range assign {
		if s >= 0 {
			si.tally(inc.TaskResources(ti), s, 1)
		}
	}
	return si
}

// tally adds d to shard s's count on each resource of row.
func (si *shardIncidence) tally(row []int32, s int, d int32) {
	for _, r := range row {
		w := &si.mask[int(r)*si.words+s/64]
		if si.cnt[int(r)*si.k+s] += d; si.cnt[int(r)*si.k+s] > 0 {
			*w |= 1 << (s % 64)
		} else {
			*w &^= 1 << (s % 64)
		}
	}
}

// cut returns the cut cost and the boundary resources, ascending.
func (si *shardIncidence) cut() (cut int, boundary []int) {
	for r := 0; r*si.words < len(si.mask); r++ {
		distinct := 0
		for _, m := range si.mask[r*si.words : (r+1)*si.words] {
			distinct += bits.OnesCount64(m)
		}
		if distinct > 1 {
			cut += distinct - 1
			boundary = append(boundary, r)
		}
	}
	return cut, boundary
}
