package workload

import (
	"crypto/sha256"
	"encoding/hex"
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

// FuzzClusteredSeed holds Clustered to its guarantee — Clustered does not
// validate its merged output, so this does: any seed, cross fraction, cluster
// count (1–5), replication (1–4), chain or DAG shape, curve family and
// subtask bounds (0–9 on 8 resources) yields either a clean error on an
// invalid config or a workload that validates, the same every time.
func FuzzClusteredSeed(f *testing.F) {
	f.Add(int64(0), 0.0, uint8(3), uint8(0), false, false, uint8(3), uint8(5))
	f.Add(int64(42), 0.15, uint8(1), uint8(1), true, false, uint8(5), uint8(5))
	f.Add(int64(-9), 1.0, uint8(4), uint8(3), false, true, uint8(1), uint8(8))
	f.Add(int64(7), 0.5, uint8(0), uint8(2), false, true, uint8(6), uint8(2))
	f.Fuzz(func(t *testing.T, seed int64, cross float64, clusters, replicate uint8, chain, mixed bool, minSub, maxSub uint8) {
		cfg := DefaultClusteredConfig(seed)
		cfg.TasksPerCluster = 3
		cfg.CrossFraction = cross
		cfg.Clusters, cfg.ReplicateFactor = 1+int(clusters%5), 1+int(replicate%4)
		cfg.ChainOnly, cfg.MixedCurves = chain, mixed
		cfg.MinSubtasks, cfg.MaxSubtasks = int(minSub%10), int(maxSub%10)
		valid := cross >= 0 && cross <= 1 &&
			cfg.MinSubtasks >= 1 && cfg.MaxSubtasks >= cfg.MinSubtasks && cfg.MaxSubtasks <= cfg.ResourcesPerCluster
		a, err := Clustered(cfg)
		if err != nil {
			if !valid {
				return // rejected cleanly
			}
			t.Fatalf("valid config rejected: %v", err)
		}
		if !valid {
			t.Fatalf("invalid config %+v accepted", cfg)
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

// TestClusteredOutputValidates: the three benchmark shapes — 16 chain
// clusters of 125 tasks (fleet-1m-cold, fleet-churn-250k), 8 DAG clusters
// of 100 tasks (engine-online) and the default — validate at replication up
// to 3, lightly and fully cross-wired.
func TestClusteredOutputValidates(t *testing.T) {
	chains := DefaultClusteredConfig(1)
	chains.Clusters, chains.TasksPerCluster, chains.ResourcesPerCluster = 16, 125, 500
	chains.MinSubtasks, chains.MaxSubtasks, chains.ChainOnly, chains.SlackFactor = 5, 5, true, 400
	dags := DefaultClusteredConfig(1)
	dags.Clusters, dags.TasksPerCluster, dags.ResourcesPerCluster = 8, 100, 400
	dags.MinSubtasks, dags.MaxSubtasks, dags.SlackFactor = 3, 7, 400
	for name, shape := range map[string]ClusteredConfig{"chains": chains, "dags": dags, "default": DefaultClusteredConfig(1)} {
		for replicate := 1; replicate <= 3; replicate++ {
			for _, cross := range []float64{0.3, 1} {
				cfg := shape
				cfg.ReplicateFactor, cfg.CrossFraction = replicate, cross
				w, err := Clustered(cfg)
				if err != nil {
					t.Fatalf("%s x%d cross %v: %v", name, replicate, cross, err)
				}
				if err := w.Validate(); err != nil {
					t.Fatalf("%s x%d cross %v: generated workload does not validate: %v", name, replicate, cross, err)
				}
			}
		}
	}
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

// TestGeneratorDigests pins the generators' JSON output, byte for byte, on
// the benchmark's shapes (the DAG one at the default slack). The digests were
// recorded before Replicate carved clones from shared arrays; an equal digest
// proves the output unchanged.
func TestGeneratorDigests(t *testing.T) {
	chain := func(replicate int) ClusteredConfig {
		cfg := DefaultClusteredConfig(1)
		cfg.Clusters, cfg.TasksPerCluster, cfg.ReplicateFactor, cfg.ResourcesPerCluster = 16, 125, replicate, 500
		cfg.MinSubtasks, cfg.MaxSubtasks, cfg.ChainOnly = 5, 5, true
		cfg.SlackFactor, cfg.CrossFraction = 400, 0.002
		return cfg
	}
	dag := func(mixed bool) ClusteredConfig {
		cfg := DefaultClusteredConfig(1)
		cfg.Clusters, cfg.TasksPerCluster, cfg.ReplicateFactor, cfg.ResourcesPerCluster = 8, 100, 2, 400
		cfg.MinSubtasks, cfg.MaxSubtasks = 3, 7
		cfg.CrossFraction, cfg.MixedCurves = 0.05, mixed
		return cfg
	}
	for _, tc := range []struct {
		name string
		gen  func() (*Workload, error)
		want string
	}{
		{"fleet-1m-cold shape, replicate 1", func() (*Workload, error) { return Clustered(chain(1)) }, "ee1a7315066e9dd49371d12a212d6686f86cdfac9eb9b9dfee8cd6a486823ec6"},
		{"fleet-1m-cold shape, replicate 3", func() (*Workload, error) { return Clustered(chain(3)) }, "3b013e9d37892cfc97b800f456e77ab0c37438932fbf1c3fcce0cd79075ab825"},
		{"engine-online shape, linear", func() (*Workload, error) { return Clustered(dag(false)) }, "ccc7c1d9ffe74ee214f7068a2c5153febc31d2cc79b655372ce3dca8dfc5d1af"},
		{"engine-online shape, mixed curves", func() (*Workload, error) { return Clustered(dag(true)) }, "d51505517f2407cf61f1ea172cfa7d67fe26f7665c5214b6f7716ba56a8ae7df"},
		{"Replicate(Base(), 3, 2)", func() (*Workload, error) { return Replicate(Base(), 3, 2) }, "e6cada27cccc4fadd96381be483206d851a7929cf6111fff30d09d6ea9946951"},
	} {
		w, err := tc.gen()
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		b, err := json.Marshal(w)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if sum := sha256.Sum256(b); hex.EncodeToString(sum[:]) != tc.want {
			t.Errorf("%s: JSON SHA-256 %x, want %s", tc.name, sum, tc.want)
		}
	}
}
