package workload

import (
	"fmt"
	"math/rand"

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
// renamed with a cluster prefix; clusters are then merged and a seeded
// CrossFraction of tasks have one subtask rewired onto the next cluster's
// resources. Identical configs always produce identical workloads.
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

	out := &Workload{
		Name:   fmt.Sprintf("clustered-seed%d-k%d", cfg.Seed, cfg.Clusters),
		Curves: make(map[string]utility.Curve),
	}
	// clusterRes[c] lists the resource IDs owned by cluster c, in generation
	// order, for the rewiring pass below.
	clusterRes := make([][]string, cfg.Clusters)
	// taskCluster[i] is the cluster of out.Tasks[i].
	var taskCluster []int

	for c := 0; c < cfg.Clusters; c++ {
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
		if err != nil {
			return nil, fmt.Errorf("workload: cluster %d: %w", c, err)
		}
		if cfg.ReplicateFactor > 1 {
			cw, err = Replicate(cw, cfg.ReplicateFactor, 1)
			if err != nil {
				return nil, fmt.Errorf("workload: cluster %d: %w", c, err)
			}
		}

		prefix := fmt.Sprintf("c%d-", c)
		rename := make(map[string]string, len(cw.Resources))
		for _, r := range cw.Resources {
			nr := r
			nr.ID = prefix + r.ID
			rename[r.ID] = nr.ID
			out.Resources = append(out.Resources, nr)
			clusterRes[c] = append(clusterRes[c], nr.ID)
		}
		// cw is private to this loop, so its tasks are renamed in place.
		for _, t := range cw.Tasks {
			curve := cw.Curves[t.Name]
			t.Name = prefix + t.Name
			for si := range t.Subtasks {
				t.Subtasks[si].Name = prefix + t.Subtasks[si].Name
				t.Subtasks[si].Resource = rename[t.Subtasks[si].Resource]
			}
			out.Tasks = append(out.Tasks, t)
			out.Curves[t.Name] = curve
			taskCluster = append(taskCluster, c)
		}
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
			next := clusterRes[(taskCluster[i]+1)%cfg.Clusters]
			si := 1 + rng.Intn(len(t.Subtasks)-1)
			target := next[rng.Intn(len(next))]
			used := false
			for _, s := range t.Subtasks {
				if s.Resource == target {
					used = true
					break
				}
			}
			if !used {
				t.Subtasks[si].Resource = target
			}
		}
	}

	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("workload: generated clustered workload invalid: %w", err)
	}
	return out, nil
}
