package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"lla/internal/workload"
)

func TestRunRequiresMode(t *testing.T) {
	if err := run(nil); err == nil {
		t.Fatal("no mode should fail")
	}
}

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag should fail")
	}
}

func TestGenerateValidateDescribeCycle(t *testing.T) {
	// Generate writes to stdout; capture through a pipe.
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	genErr := run([]string{"-generate", "-seed", "9", "-tasks", "3"})
	w.Close()
	os.Stdout = old
	if genErr != nil {
		t.Fatal(genErr)
	}
	data := make([]byte, 1<<20)
	n, _ := r.Read(data)
	data = data[:n]

	var wl workload.Workload
	if err := json.Unmarshal(data, &wl); err != nil {
		t.Fatalf("generated output is not a valid workload: %v", err)
	}
	if len(wl.Tasks) != 3 {
		t.Fatalf("tasks = %d, want 3", len(wl.Tasks))
	}

	path := filepath.Join(t.TempDir(), "w.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", path}); err != nil {
		t.Errorf("validate: %v", err)
	}
	if err := run([]string{"-describe", path}); err != nil {
		t.Errorf("describe: %v", err)
	}
}

func TestDescribeBuiltins(t *testing.T) {
	for _, name := range []string{"base", "prototype"} {
		if err := run([]string{"-describe", name}); err != nil {
			t.Errorf("describe %s: %v", name, err)
		}
	}
}

func TestValidateMissingFile(t *testing.T) {
	if err := run([]string{"-validate", "/nonexistent/w.json"}); err == nil {
		t.Fatal("missing file should fail")
	}
}

func TestValidateRejectsBadJSON(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"name":"x"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run([]string{"-validate", path}); err == nil {
		t.Fatal("invalid workload should fail")
	}
}

func TestGenerateBadParams(t *testing.T) {
	if err := run([]string{"-generate", "-tasks", "0"}); err == nil {
		t.Fatal("zero tasks should fail")
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := workload.Load("/nonexistent/path.json"); err == nil {
		t.Fatal("unknown path should fail")
	}
}
