package main

import (
	"bytes"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunUnknownExperiment(t *testing.T) {
	if err := run([]string{"-experiment", "nope"}, io.Discard); err == nil {
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
	if err := run([]string{"-bogus"}, io.Discard); err == nil {
		t.Fatal("unknown flag should fail")
	}
}

func TestRunSingleExperimentQuick(t *testing.T) {
	if err := run([]string{"-experiment", "table1", "-quick"}, io.Discard); err != nil {
		t.Fatalf("table1: %v", err)
	}
}

func TestRunWritesCSV(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-experiment", "fig5", "-quick", "-csv", dir}, io.Discard); err != nil {
		t.Fatalf("fig5: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5_series.csv")); err != nil {
		t.Errorf("series CSV missing: %v", err)
	}
	if _, err := os.Stat(filepath.Join(dir, "fig5_table0.csv")); err != nil {
		t.Errorf("table CSV missing: %v", err)
	}
}

// TestQuickTranscript diffs `lla-sim -quick -experiment all -shard-workers 2`
// against the committed transcript at -workers 1 and at -workers 4: the
// engine is bitwise-deterministic across worker counts, so both must
// reproduce it line for line. -shard-workers is pinned because its default
// follows GOMAXPROCS and the fleet report prints it. A change that moves a
// line on purpose re-records the file with that command and names the
// experiments it changed.
func TestQuickTranscript(t *testing.T) {
	want, err := os.ReadFile("testdata/quick_all.txt")
	if err != nil {
		t.Fatal(err)
	}
	// One run at a time: the soak's allocation check reads process-wide
	// allocation counts.
	for _, w := range []string{"1", "4"} {
		var out bytes.Buffer
		if err := run([]string{"-quick", "-experiment", "all", "-shard-workers", "2", "-workers", w}, &out); err != nil {
			t.Fatalf("-workers %s: %v", w, err)
		}
		got, exp := strings.Split(out.String(), "\n"), strings.Split(string(want), "\n")
		for j := 0; j < max(len(got), len(exp)); j++ {
			if j >= len(got) || j >= len(exp) || got[j] != exp[j] {
				t.Errorf("-workers %s: line %d differs from testdata/quick_all.txt:\n got %q\nwant %q",
					w, j+1, at(got, j), at(exp, j))
				break
			}
		}
	}
}

// at is lines[j], or "" past the end.
func at(lines []string, j int) string {
	if j < len(lines) {
		return lines[j]
	}
	return ""
}
