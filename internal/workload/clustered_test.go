package workload

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"strings"
	"testing"
)

func TestClusteredDeterminism(t *testing.T) {
	cfg := DefaultClusteredConfig(42)
	a, err := Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ja, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	jb, err := json.Marshal(b)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) != string(jb) {
		t.Fatal("same config produced different workloads")
	}

	cfg2 := cfg
	cfg2.Seed = 43
	c, err := Clustered(cfg2)
	if err != nil {
		t.Fatal(err)
	}
	jc, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if string(ja) == string(jc) {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestClusteredSeparableWhenCrossZero(t *testing.T) {
	cfg := DefaultClusteredConfig(7)
	cfg.CrossFraction = 0
	w, err := Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tk := range w.Tasks {
		prefix := tk.Name[:strings.Index(tk.Name, "-")+1]
		for _, s := range tk.Subtasks {
			if !strings.HasPrefix(s.Resource, prefix) {
				t.Fatalf("CrossFraction=0 but task %s has subtask on foreign resource %s", tk.Name, s.Resource)
			}
		}
	}
}

func TestClusteredCrossEdgesPresent(t *testing.T) {
	cfg := DefaultClusteredConfig(7)
	cfg.CrossFraction = 0.5
	cfg.TasksPerCluster = 20
	w, err := Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cross := 0
	for _, tk := range w.Tasks {
		prefix := tk.Name[:strings.Index(tk.Name, "-")+1]
		for _, s := range tk.Subtasks {
			if !strings.HasPrefix(s.Resource, prefix) {
				cross++
			}
		}
	}
	if cross == 0 {
		t.Fatal("CrossFraction=0.5 produced no cross-cluster edges")
	}
}

func TestClusteredReplicateFactorScales(t *testing.T) {
	cfg := DefaultClusteredConfig(5)
	cfg.ReplicateFactor = 3
	w, err := Clustered(cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := cfg.Clusters * cfg.TasksPerCluster * cfg.ReplicateFactor
	if len(w.Tasks) != want {
		t.Fatalf("got %d tasks, want %d", len(w.Tasks), want)
	}
}

func TestClusteredRejectsBadConfig(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*ClusteredConfig)
	}{
		{"zero clusters", func(c *ClusteredConfig) { c.Clusters = 0 }},
		{"zero replicate", func(c *ClusteredConfig) { c.ReplicateFactor = 0 }},
		{"negative cross", func(c *ClusteredConfig) { c.CrossFraction = -0.1 }},
		{"cross above one", func(c *ClusteredConfig) { c.CrossFraction = 1.5 }},
		{"zero tasks", func(c *ClusteredConfig) { c.TasksPerCluster = 0 }},
		{"negative tasks", func(c *ClusteredConfig) { c.TasksPerCluster = -5 }},
		{"subtasks exceed pool", func(c *ClusteredConfig) { c.MaxSubtasks = c.ResourcesPerCluster + 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultClusteredConfig(1)
			tc.mut(&cfg)
			if _, err := Clustered(cfg); err == nil {
				t.Fatal("expected error")
			}
		})
	}
}

// FuzzClusteredSeed asserts that any seed and cross fraction yields either a
// clean error or a valid, deterministic workload.
func FuzzClusteredSeed(f *testing.F) {
	f.Add(int64(0), 0.0)
	f.Add(int64(42), 0.15)
	f.Add(int64(-9), 1.0)
	f.Fuzz(func(t *testing.T, seed int64, cross float64) {
		cfg := DefaultClusteredConfig(seed)
		cfg.TasksPerCluster = 3
		cfg.CrossFraction = cross
		a, err := Clustered(cfg)
		if err != nil {
			if !(cross >= 0 && cross <= 1) {
				return // rejected cleanly
			}
			t.Fatalf("valid config rejected: %v", err)
		}
		if err := a.Validate(); err != nil {
			t.Fatalf("generated workload does not validate: %v", err)
		}
		b, err := Clustered(cfg)
		if err != nil {
			t.Fatal(err)
		}
		ja, _ := json.Marshal(a)
		jb, _ := json.Marshal(b)
		if string(ja) != string(jb) {
			t.Fatal("same config produced different workloads")
		}
	})
}

// workloadHash is an FNV-1a digest of everything the optimizer reads from a
// generated workload: resources, task and subtask names, placements, WCETs,
// critical times, curves and precedence edges, in order.
func workloadHash(w *Workload) uint64 {
	h := fnv.New64a()
	for _, r := range w.Resources {
		fmt.Fprintf(h, "r|%s|%d|%x|%x\n", r.ID, r.Kind, math.Float64bits(r.Availability), math.Float64bits(r.LagMs))
	}
	for _, t := range w.Tasks {
		fmt.Fprintf(h, "t|%s|%x|%#v\n", t.Name, math.Float64bits(t.CriticalMs), w.Curves[t.Name])
		for _, s := range t.Subtasks {
			fmt.Fprintf(h, "s|%s|%s|%x\n", s.Name, s.Resource, math.Float64bits(s.ExecMs))
		}
		fmt.Fprintf(h, "e|%v\n", t.Edges())
	}
	return h.Sum64()
}

// TestClusteredGolden pins the generators' output. The hashes were recorded
// before clusters generated concurrently and named each subtask once, so an
// equal hash proves the new path generates the same workload byte for byte;
// the table runs at GOMAXPROCS 1 and 4 so the schedule cannot reach it.
func TestClusteredGolden(t *testing.T) {
	dag := DefaultClusteredConfig(42)
	chain := DefaultClusteredConfig(7)
	chain.ChainOnly, chain.ReplicateFactor, chain.CrossFraction, chain.SlackFactor = true, 3, 0.3, 30
	mixed := DefaultClusteredConfig(11)
	mixed.MixedCurves, mixed.Clusters, mixed.ReplicateFactor, mixed.CrossFraction, mixed.SlackFactor = true, 16, 3, 0.3, 30
	bad := DefaultClusteredConfig(3)
	bad.MinExecMs = 0 // Random refuses it in every cluster
	const badErr = "workload: cluster 0: workload: invalid exec bounds [0,6]"
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range []struct {
			name string
			cfg  ClusteredConfig
			want uint64
		}{
			{"dag", dag, 0xf032170a704f5a06},
			{"chain-replicated", chain, 0xd24277488b0d3ce4},
			{"mixed-16-replicated", mixed, 0x26fd7c083cea8874},
		} {
			w, err := Clustered(tc.cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS %d %s: %v", procs, tc.name, err)
			}
			if got := workloadHash(w); got != tc.want {
				t.Errorf("GOMAXPROCS %d %s: workload hash %#x, want %#x", procs, tc.name, got, tc.want)
			}
		}
		r, err := Replicate(Base(), 3, 2)
		if err != nil {
			t.Fatalf("GOMAXPROCS %d Replicate: %v", procs, err)
		}
		if got, want := workloadHash(r), uint64(0x7a9e7c881734607d); got != want {
			t.Errorf("GOMAXPROCS %d Replicate(Base(), 3, 2): workload hash %#x, want %#x", procs, got, want)
		}
		if _, err := Clustered(bad); err == nil || err.Error() != badErr {
			t.Errorf("GOMAXPROCS %d: every cluster failing gave %v, want %q", procs, err, badErr)
		}
	}
}
