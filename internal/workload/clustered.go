package workload

import (
	"fmt"
	"math/rand"
	"runtime"
	"slices"

	"lla/internal/par"
	"lla/internal/task"
	"lla/internal/utility"
)

// ClusteredConfig parametrizes the clustered workload generator: K clusters
// of tasks, each cluster with its own private resource pool, plus a tunable
// fraction of tasks given one subtask on the next cluster's resources. The
// result is a shard-friendly topology — a partitioner that discovers the
// clusters keeps all price traffic intra-shard except for the deliberately
// rewired cross-cluster edges.
type ClusteredConfig struct {
	// Seed drives the deterministic generator. Cluster c uses a seed derived
	// from Seed and c, so clusters differ but the whole workload is a pure
	// function of the config.
	Seed int64
	// Clusters is the number of clusters K (>= 1).
	Clusters int
	// TasksPerCluster is the number of distinct random tasks generated per
	// cluster before replication (>= 1).
	TasksPerCluster int
	// ReplicateFactor stamps out each cluster's random tasks this many times
	// via Replicate (>= 1), so million-subtask workloads generate quickly:
	// total tasks = Clusters * TasksPerCluster * ReplicateFactor.
	ReplicateFactor int
	// ResourcesPerCluster is the size of each cluster's private resource
	// pool (>= 2, >= MaxSubtasks).
	ResourcesPerCluster int
	// MinSubtasks and MaxSubtasks bound per-task subtask counts.
	MinSubtasks int
	MaxSubtasks int
	// MinExecMs and MaxExecMs bound subtask WCETs.
	MinExecMs float64
	MaxExecMs float64
	// SlackFactor scales critical times relative to the minimum feasible
	// critical path, as in RandomConfig.
	SlackFactor float64
	// LagMs is the scheduling lag of every generated resource.
	LagMs float64
	// Availability is B_r of every generated resource.
	Availability float64
	// UtilityK is the k of the linear curves f = k*C - lat.
	UtilityK float64
	// ChainOnly forces linear chains instead of layered DAGs.
	ChainOnly bool
	// MixedCurves draws curves from the full concave family.
	MixedCurves bool
	// CrossFraction in [0,1] is the probability that a task gets one of its
	// non-root subtasks reassigned to a resource of the next cluster,
	// creating a cross-cluster (boundary) edge. 0 yields a fully separable
	// workload: the clusters share no resources at all.
	CrossFraction float64
}

// DefaultClusteredConfig returns a schedulable medium-sized clustered
// configuration: 4 clusters, light cross-cluster coupling.
func DefaultClusteredConfig(seed int64) ClusteredConfig {
	return ClusteredConfig{
		Seed:                seed,
		Clusters:            4,
		TasksPerCluster:     6,
		ReplicateFactor:     1,
		ResourcesPerCluster: 8,
		MinSubtasks:         3,
		MaxSubtasks:         5,
		MinExecMs:           1,
		MaxExecMs:           6,
		SlackFactor:         10,
		LagMs:               1,
		Availability:        1,
		UtilityK:            2,
		CrossFraction:       0.15,
	}
}

// Clustered generates a deterministic clustered workload. Each cluster is a
// Random workload over a private resource pool, scaled up with Replicate and
// named with its "c<k>-" prefix in one pass; clusters generate concurrently
// and are concatenated in cluster order, so the schedule cannot reach the
// result. A seeded CrossFraction of tasks then have one subtask rewired onto
// the next cluster's resources. Identical configs give identical workloads.
// Random validates each cluster; the merged result is validated once, by
// whoever consumes it (fleet.New, core.NewEngine, core.Compile).
func Clustered(cfg ClusteredConfig) (*Workload, error) {
	if cfg.Clusters < 1 {
		return nil, fmt.Errorf("workload: Clusters must be >= 1, got %d", cfg.Clusters)
	}
	if cfg.ReplicateFactor < 1 {
		return nil, fmt.Errorf("workload: ReplicateFactor must be >= 1, got %d", cfg.ReplicateFactor)
	}
	if !(cfg.CrossFraction >= 0 && cfg.CrossFraction <= 1) { // also rejects NaN
		return nil, fmt.Errorf("workload: CrossFraction must be in [0,1], got %v", cfg.CrossFraction)
	}

	parts, curves, errs := make([]*Workload, cfg.Clusters), make([][]utility.Curve, cfg.Clusters), make([]error, cfg.Clusters)
	pool := par.New(runtime.GOMAXPROCS(0) - 1)
	defer pool.Close()
	pool.Run(cfg.Clusters, func(c int) {
		cw, err := Random(RandomConfig{
			Seed:         cfg.Seed + int64(c)*1000003,
			NumTasks:     cfg.TasksPerCluster,
			NumResources: cfg.ResourcesPerCluster,
			MinSubtasks:  cfg.MinSubtasks,
			MaxSubtasks:  cfg.MaxSubtasks,
			MinExecMs:    cfg.MinExecMs,
			MaxExecMs:    cfg.MaxExecMs,
			SlackFactor:  cfg.SlackFactor,
			LagMs:        cfg.LagMs,
			Availability: cfg.Availability,
			UtilityK:     cfg.UtilityK,
			ChainOnly:    cfg.ChainOnly,
			MixedCurves:  cfg.MixedCurves,
		})
		if err == nil {
			cw, curves[c], err = replicate(cw, cfg.ReplicateFactor, 1, fmt.Sprintf("c%d-", c))
		}
		parts[c], errs[c] = cw, err
	})
	for c, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload: cluster %d: %w", c, err)
		}
	}

	// Cluster c owns resources [c*nr, (c+1)*nr) and tasks [c*nt, (c+1)*nt).
	nr, nt := cfg.ResourcesPerCluster, cfg.TasksPerCluster*cfg.ReplicateFactor
	out := &Workload{
		Name:   fmt.Sprintf("clustered-seed%d-k%d", cfg.Seed, cfg.Clusters),
		Tasks:  make([]*task.Task, 0, cfg.Clusters*nt),
		Curves: make(map[string]utility.Curve, cfg.Clusters*nt),
	}
	for c, p := range parts {
		out.Resources = append(out.Resources, p.Resources...)
		out.Tasks = append(out.Tasks, p.Tasks...)
		putCurves(out.Curves, p.Tasks, curves[c])
		parts[c] = nil // merged: let the part go
	}

	// Cross-cluster rewiring: a seeded fraction of tasks move one non-root
	// subtask onto a resource of the next cluster. Clusters own disjoint
	// resource pools, so the rewired resource can only collide with another
	// already-rewired subtask of the same task; such picks are skipped to
	// preserve the distinct-resources-per-task invariant.
	if cfg.CrossFraction > 0 && cfg.Clusters > 1 {
		rng := rand.New(rand.NewSource(cfg.Seed ^ 0x5eed_c105))
		for i, t := range out.Tasks {
			if rng.Float64() >= cfg.CrossFraction || len(t.Subtasks) < 2 {
				continue
			}
			next := (i/nt + 1) % cfg.Clusters
			si := 1 + rng.Intn(len(t.Subtasks)-1)
			target := out.Resources[next*nr+rng.Intn(nr)].ID
			if !slices.ContainsFunc(t.Subtasks, func(s task.Subtask) bool { return s.Resource == target }) {
				t.Subtasks[si].Resource = target
			}
		}
	}

	return out, nil
}
