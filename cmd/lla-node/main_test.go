package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"lla/internal/core"
	rec "lla/internal/recover"
	"lla/internal/workload"
)

func TestRunBadInputs(t *testing.T) {
	cases := [][]string{
		{"-bogus"},
		{"-workload", "/nonexistent.json", "-demo"},
		{"-workload", "base", "-role", "warp", "-registry", "/tmp/x"},
		{"-workload", "base"}, // no registry, no demo
		{"-workload", "base", "-fleet", "-shards", "2", "-rounds", "-1"},
	}
	for _, args := range cases {
		if err := run(context.Background(), args); err == nil {
			t.Errorf("args %v should fail", args)
		}
	}
}

// TestHelpListsEveryFlag pins the flag set both ways: every expected flag is
// declared with usage text that renders into the help output, and no flag can
// be added without being listed here (forcing its documentation).
func TestHelpListsEveryFlag(t *testing.T) {
	want := map[string]bool{
		"workload": true, "registry": true, "role": true, "id": true,
		"rounds": true, "demo": true, "print-registry": true,
		"debug-addr": true, "trace": true, "workers": true,
		"solver": true, "checkpoint-dir": true, "checkpoint-every": true,
		"fleet": true, "shards": true, "shard-workers": true,
	}
	fs, _ := newFlagSet()
	if fs.Lookup("sparse") != nil {
		t.Error("-sparse is declared: the iteration has one path and no switch")
	}
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.PrintDefaults()
	help := buf.String()
	got := map[string]bool{}
	fs.VisitAll(func(f *flag.Flag) {
		got[f.Name] = true
		if f.Usage == "" {
			t.Errorf("flag -%s has no usage text", f.Name)
		}
		if !strings.Contains(help, "-"+f.Name) {
			t.Errorf("help output does not list -%s:\n%s", f.Name, help)
		}
	})
	for name := range want {
		if !got[name] {
			t.Errorf("expected flag -%s is not declared", name)
		}
	}
	for name := range got {
		if !want[name] {
			t.Errorf("flag -%s is declared but not in the expected list — document it here", name)
		}
	}
}

// TestDemoCheckpoints runs the loopback demo with a checkpoint directory: the
// run must leave decodable checkpoint generations behind, stamped with epoch
// 0 in a fresh directory, and a second demo over the same directory must add
// new generations that keep the epoch of the newest one already there (the
// demo schedules no coordinator crash, so nothing bumps it).
func TestDemoCheckpoints(t *testing.T) {
	if testing.Short() {
		t.Skip("demo spins up a full TCP deployment")
	}
	dir := t.TempDir()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	args := []string{"-workload", "prototype", "-demo", "-rounds", "200",
		"-checkpoint-dir", dir, "-checkpoint-every", "40"}
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("demo with checkpoints: %v", err)
	}
	cp, _, err := rec.Latest(dir)
	if err != nil {
		t.Fatalf("demo left no decodable checkpoint: %v", err)
	}
	if cp.Workload == nil || len(cp.Workload.Tasks) == 0 {
		t.Error("checkpoint carries no workload")
	}
	eng, _, err := rec.Restore(cp, core.Config{})
	if err != nil {
		t.Fatalf("demo checkpoint does not restore: %v", err)
	}
	if eng.Iteration() == 0 {
		t.Error("checkpoint carries no optimizer progress")
	}
	eng.Close()
	if cp.Epoch != 0 {
		t.Errorf("checkpoint epoch in a fresh directory = %d, want 0", cp.Epoch)
	}
	// Seed the directory with a bumped epoch: the next demo's generations
	// must carry it.
	wr, err := rec.NewWriter(dir)
	if err != nil {
		t.Fatal(err)
	}
	cp.Epoch = 4
	seeded, err := wr.Save(cp)
	if err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), args); err != nil {
		t.Fatalf("second demo over reused checkpoint dir: %v", err)
	}
	cp2, path, err := rec.Latest(dir)
	if err != nil {
		t.Fatal(err)
	}
	if path == seeded {
		t.Fatalf("the second demo added no checkpoint generation after %s", seeded)
	}
	if cp2.Epoch != 4 {
		t.Errorf("second demo's checkpoint epoch = %d, want the directory's newest 4", cp2.Epoch)
	}
}

// TestDemoRefusesRetiredCheckpointDir: a checkpoint directory whose only
// generation is of a retired version fails the demo with the version named,
// instead of restarting the epoch fence at 0.
func TestDemoRefusesRetiredCheckpointDir(t *testing.T) {
	if testing.Short() {
		t.Skip("demo spins up a full TCP deployment")
	}
	b, err := os.ReadFile(filepath.Join("..", "..", "internal", "recover", "testdata", "ckpt_v3_newton.bin"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "ckpt-000000000001.llackpt"), b, 0o644); err != nil {
		t.Fatal(err)
	}
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()
	err = run(context.Background(), []string{"-workload", "prototype", "-demo", "-rounds", "40", "-checkpoint-dir", dir})
	if err == nil || !strings.Contains(err.Error(), "version 3") {
		t.Fatalf("demo over a directory of retired checkpoints = %v, want an error naming version 3", err)
	}
}

func TestPrintRegistry(t *testing.T) {
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := run(context.Background(), []string{"-workload", "base", "-print-registry"})
	w.Close()
	os.Stdout = old
	if runErr != nil {
		t.Fatal(runErr)
	}
	data := make([]byte, 1<<16)
	n, _ := r.Read(data)
	registry := make(map[string]string)
	if err := json.Unmarshal(data[:n], &registry); err != nil {
		t.Fatalf("registry output not JSON: %v", err)
	}
	// 1 coordinator + 3 controllers + 8 resources.
	if len(registry) != 12 {
		t.Fatalf("registry has %d entries, want 12", len(registry))
	}
	for k := range registry {
		if !strings.HasPrefix(k, "res/") && !strings.HasPrefix(k, "ctl/") && k != "coordinator" {
			t.Errorf("unexpected registry key %q", k)
		}
	}
}

func TestDemoPrototype(t *testing.T) {
	if testing.Short() {
		t.Skip("demo spins up a full TCP deployment")
	}
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	if err := run(context.Background(), []string{"-workload", "prototype", "-demo", "-rounds", "300"}); err != nil {
		t.Fatalf("demo: %v", err)
	}
}

// TestFleetMode runs the in-process sharded fleet on the base workload and
// checks it certifies (the command errors if the fleet fails to converge).
func TestFleetMode(t *testing.T) {
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	if err := run(context.Background(), []string{"-workload", "base", "-fleet", "-shards", "2", "-workers", "1"}); err != nil {
		t.Fatalf("fleet: %v", err)
	}
}

func TestRegistryFileErrors(t *testing.T) {
	if err := run(context.Background(), []string{"-workload", "base", "-registry", "/nonexistent.json", "-role", "resource", "-id", "r0"}); err == nil {
		t.Fatal("missing registry should fail")
	}
	bad := filepath.Join(t.TempDir(), "reg.json")
	if err := os.WriteFile(bad, []byte("not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), []string{"-workload", "base", "-registry", bad, "-role", "resource", "-id", "r0"}); err == nil {
		t.Fatal("corrupt registry should fail")
	}
}

func TestLoadWorkloadJSONFile(t *testing.T) {
	// A valid workload file loads.
	w, err := workload.Load("base")
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(w)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := workload.Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name != w.Name {
		t.Errorf("round trip changed name: %q", back.Name)
	}
	// Corrupt file fails.
	badPath := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(badPath, []byte("{"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := workload.Load(badPath); err == nil {
		t.Fatal("corrupt workload should fail")
	}
}
