package main

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}); err == nil {
		t.Fatal("unknown experiment should fail")
	}
}

// TestHelpListsEveryExperiment rebuilds the -experiment usage line the way
// run does and checks every registered runner appears in it: the registry
// slice is the single source of truth, so a new experiment cannot be
// runnable but undocumented.
func TestHelpListsEveryExperiment(t *testing.T) {
	fs := flag.NewFlagSet("lla-sim", flag.ContinueOnError)
	var buf bytes.Buffer
	fs.SetOutput(&buf)
	fs.String("experiment", "all", "experiment: "+strings.Join(experimentIDs(), ", ")+", all")
	fs.Usage()
	help := buf.String()
	for _, e := range experiments {
		if !strings.Contains(help, e.id) {
			t.Errorf("help text does not list experiment %q:\n%s", e.id, help)
		}
	}
	if !strings.Contains(help, "churn") {
		t.Errorf("help text missing the churn experiment:\n%s", help)
	}
}

// TestHelpListsEveryFlag pins the flag set both ways: every expected flag is
// declared with usage text that renders into the help output, and no flag can
// be added without being listed here (forcing its documentation).
func TestHelpListsEveryFlag(t *testing.T) {
	want := map[string]bool{
		"experiment": true, "quick": true, "seed": true, "workers": true,
		"solver": true, "csv": true, "trace": true,
		"debug-addr": true, "trace-every": true,
		"checkpoint-dir": true, "checkpoint-every": true,
		"shards": true, "shard-workers": true,
	}
	fs, _ := newFlagSet()
	if fs.Lookup("sparse") != nil {
		t.Error("-sparse is declared: the iteration has one path and no switch")
	}
	if fs.Lookup("gateway-addr") != nil {
		t.Error("-gateway-addr is declared: /stream lives on -debug-addr")
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

func TestRunBadFlag(t *testing.T) {
	if err := run([]string{"-bogus"}); err == nil {
		t.Fatal("unknown flag should fail")
	}
}

func TestRunSingleExperimentQuick(t *testing.T) {
	// Redirect stdout to keep test output readable.
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	if err := run([]string{"-experiment", "table1", "-quick"}); err != nil {
		t.Fatalf("table1: %v", err)
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() { os.Stdout = old; devnull.Close() }()

	if err := run([]string{"-experiment", "fig5", "-quick", "-csv", dir}); err != nil {
		t.Fatalf("fig5: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5_series.csv")); err != nil {
		t.Errorf("series CSV missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5_table0.csv")); err != nil {
		t.Errorf("table CSV missing: %v", err)
	}
}
