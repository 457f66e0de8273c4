package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

func TestParseBenchLine(t *testing.T) {
	for _, tc := range []struct {
		name string
		line string
		want *record // nil = rejected
	}{
		{
			name: "standard metrics with CPU suffix",
			line: "BenchmarkEngineStep-8   \t  123456\t       987.6 ns/op\t       0 B/op\t       0 allocs/op",
			want: &record{Name: "BenchmarkEngineStep-8", Iters: 123456,
				Metrics: map[string]float64{"ns/op": 987.6, "B/op": 0, "allocs/op": 0}},
		},
		{
			name: "custom metrics",
			line: "BenchmarkFleetConverge/1m-parallel-2 1 24000000000 ns/op 1.000 converged 2.000 cpus 56.00 rounds",
			want: &record{Name: "BenchmarkFleetConverge/1m-parallel-2", Iters: 1,
				Metrics: map[string]float64{"ns/op": 24e9, "converged": 1, "cpus": 2, "rounds": 56}},
		},
		{
			name: "no CPU suffix, scientific notation",
			line: "BenchmarkWireCodec 10 1.5e+03 ns/op 846 binary_bytes 70 allocs/op",
			want: &record{Name: "BenchmarkWireCodec", Iters: 10,
				Metrics: map[string]float64{"ns/op": 1500, "binary_bytes": 846, "allocs/op": 70}},
		},
		{
			name: "dangling value without a unit is dropped",
			line: "BenchmarkX-2 5 10 ns/op 7",
			want: &record{Name: "BenchmarkX-2", Iters: 5, Metrics: map[string]float64{"ns/op": 10}},
		},
		{name: "not a benchmark line", line: "ok  \tlla\t3.2s"},
		{name: "name only (test2json flushes it first)", line: "BenchmarkEngineStep-8"},
		{name: "too few fields", line: "BenchmarkX-2 5 10"},
		{name: "non-integer iteration count", line: "BenchmarkX-2 1.5 10 ns/op"},
		{name: "non-numeric metric value", line: "BenchmarkX-2 5 fast ns/op"},
		{name: "no ns/op metric", line: "BenchmarkX-2 5 10 B/op"},
		{name: "benchmark log output", line: "BenchmarkX-2 logged: 3 shards 4 workers"},
		{name: "empty", line: ""},
	} {
		got, ok := parseBenchLine(tc.line)
		if tc.want == nil {
			if ok {
				t.Errorf("%s: accepted %q as %+v", tc.name, tc.line, got)
			}
			continue
		}
		if !ok {
			t.Errorf("%s: rejected %q", tc.name, tc.line)
			continue
		}
		if !reflect.DeepEqual(got, *tc.want) {
			t.Errorf("%s:\n got %+v\nwant %+v", tc.name, got, *tc.want)
		}
	}
}

func TestTrimCPUSuffix(t *testing.T) {
	for in, want := range map[string]string{
		"BenchmarkFleetConverge/1m-8":                  "BenchmarkFleetConverge/1m",
		"BenchmarkFleetConverge/1m-parallel-2":         "BenchmarkFleetConverge/1m-parallel",
		"BenchmarkFleetConverge/1m-parallel":           "BenchmarkFleetConverge/1m-parallel",
		"BenchmarkRoundsToConverge/price-discovery-16": "BenchmarkRoundsToConverge/price-discovery",
		"BenchmarkWireCodec":                           "BenchmarkWireCodec",
		"BenchmarkOdd-":                                "BenchmarkOdd-",
	} {
		if got := trimCPUSuffix(in); got != want {
			t.Errorf("trimCPUSuffix(%q) = %q, want %q", in, got, want)
		}
	}
}

// rec builds a record from alternating metric names and values.
func rec(name string, kv ...any) record {
	r := record{Name: name, Iters: 1, Metrics: map[string]float64{"ns/op": 1}}
	for i := 0; i+1 < len(kv); i += 2 {
		r.Metrics[kv[i].(string)] = kv[i+1].(float64)
	}
	return r
}

// gateCase is one row of a recs-only gate's table test.
type gateCase struct {
	name    string
	recs    []record
	wantErr string // "" = accept
}

// gatesOn returns the gates on the named benchmarks, in table order.
func gatesOn(benches ...string) []gate {
	var gs []gate
	for _, g := range gates {
		for _, b := range benches {
			if g.bench == b {
				gs = append(gs, g)
			}
		}
	}
	return gs
}

// runGateCases checks gates against their table: accepted rows must pass,
// rejected rows must fail with an error containing wantErr.
func runGateCases(t *testing.T, gs []gate, cases []gateCase) {
	t.Helper()
	if len(gs) == 0 {
		t.Fatal("no gates selected")
	}
	for _, tc := range cases {
		err := checkGates(gs, tc.recs)
		switch {
		case tc.wantErr == "" && err != nil:
			t.Errorf("%s: rejected: %v", tc.name, err)
		case tc.wantErr != "" && err == nil:
			t.Errorf("%s: accepted, want error containing %q", tc.name, tc.wantErr)
		case tc.wantErr != "" && !strings.Contains(err.Error(), tc.wantErr):
			t.Errorf("%s: error %q does not contain %q", tc.name, err, tc.wantErr)
		}
	}
}

func TestCheckConvergedStep(t *testing.T) {
	runGateCases(t, gatesOn("BenchmarkEngineStepConverged"), []gateCase{
		{
			name: "frozen fixed point: everything skipped, nothing allocated",
			recs: []record{rec("BenchmarkEngineStepConverged-2", "skipped_pct", 100.0, "allocs/op", 0.0, "ns/op", 780.0)},
		},
		{
			name: "exactly 99% is still inside",
			recs: []record{rec("BenchmarkEngineStepConverged", "skipped_pct", 99.0, "allocs/op", 0.0)},
		},
		{
			name:    "skipping disengaged",
			recs:    []record{rec("BenchmarkEngineStepConverged-2", "skipped_pct", 98.9, "allocs/op", 0.0)},
			wantErr: "skipped_pct 98.9, want >= 99",
		},
		{
			name:    "NaN skip rate (no solves counted)",
			recs:    []record{rec("BenchmarkEngineStepConverged-2", "skipped_pct", math.NaN(), "allocs/op", 0.0)},
			wantErr: "want >= 99",
		},
		{
			name:    "the step allocates",
			recs:    []record{rec("BenchmarkEngineStepConverged-2", "skipped_pct", 100.0, "allocs/op", 1.0)},
			wantErr: "allocs/op 1, want == 0",
		},
		{
			name:    "run without -benchmem columns",
			recs:    []record{rec("BenchmarkEngineStepConverged-2", "skipped_pct", 100.0)},
			wantErr: "reported no allocs/op metric",
		},
		{
			name:    "benchmark missing",
			recs:    []record{rec("BenchmarkEngineStep-2", "allocs/op", 0.0)},
			wantErr: "BenchmarkEngineStepConverged missing",
		},
		{
			name:    "the deleted dense/sparse pair does not stand in for it",
			recs:    []record{rec("BenchmarkEngineStepConverged/sparse-2", "skipped_pct", 100.0, "allocs/op", 0.0)},
			wantErr: "BenchmarkEngineStepConverged missing",
		},
	})
}

func TestCheckAcceleratedRounds(t *testing.T) {
	runGateCases(t, gatesOn("BenchmarkRoundsToConverge/"), []gateCase{
		{name: "no rounds benchmarks: gate skipped", recs: []record{rec("BenchmarkEngineStep-2")}},
		{
			name: "every accelerated solver at or below gradient",
			recs: []record{
				rec("BenchmarkRoundsToConverge/gradient-2", "rounds", 60.0),
				rec("BenchmarkRoundsToConverge/newton-2", "rounds", 6.0),
				rec("BenchmarkRoundsToConverge/price-discovery-2", "rounds", 60.0),
			},
		},
		{name: "gradient alone", recs: []record{rec("BenchmarkRoundsToConverge/gradient", "rounds", 60.0)}},
		{
			name: "one solver above gradient, named with both counts",
			recs: []record{
				rec("BenchmarkRoundsToConverge/gradient-2", "rounds", 60.0),
				rec("BenchmarkRoundsToConverge/newton-2", "rounds", 6.0),
				rec("BenchmarkRoundsToConverge/anderson-2", "rounds", 61.0),
			},
			wantErr: "anderson rounds 61, want <= 60 (1 x BenchmarkRoundsToConverge/gradient rounds)",
		},
		{
			name:    "accelerated records without the baseline",
			recs:    []record{rec("BenchmarkRoundsToConverge/newton-2", "rounds", 6.0)},
			wantErr: "gradient missing",
		},
		{
			name: "a record without a rounds metric",
			recs: []record{
				rec("BenchmarkRoundsToConverge/gradient-2", "rounds", 60.0),
				rec("BenchmarkRoundsToConverge/newton-2"),
			},
			wantErr: "newton-2 reported no rounds metric",
		},
	})
}

func TestCheckRecoveryWarmFaster(t *testing.T) {
	runGateCases(t, gatesOn("BenchmarkRecoveryRounds/warm"), []gateCase{
		{name: "no recovery benchmarks: gate skipped", recs: []record{rec("BenchmarkEngineStep-2")}},
		{
			name: "warm below cold",
			recs: []record{
				rec("BenchmarkRecoveryRounds/warm-2", "rounds", 3.0),
				rec("BenchmarkRecoveryRounds/cold-2", "rounds", 60.0),
			},
		},
		{
			name: "warm equal to cold is not faster",
			recs: []record{
				rec("BenchmarkRecoveryRounds/warm", "rounds", 60.0),
				rec("BenchmarkRecoveryRounds/cold", "rounds", 60.0),
			},
			wantErr: "warm rounds 60, want < 60 (1 x BenchmarkRecoveryRounds/cold rounds)",
		},
		{
			name:    "only the warm side ran",
			recs:    []record{rec("BenchmarkRecoveryRounds/warm-2", "rounds", 3.0)},
			wantErr: "BenchmarkRecoveryRounds/cold missing",
		},
		{
			name:    "only the cold side ran",
			recs:    []record{rec("BenchmarkRecoveryRounds/cold-2", "rounds", 60.0)},
			wantErr: "BenchmarkRecoveryRounds/warm missing",
		},
		{
			name: "a side without a rounds metric",
			recs: []record{
				rec("BenchmarkRecoveryRounds/warm-2"),
				rec("BenchmarkRecoveryRounds/cold-2", "rounds", 60.0),
			},
			wantErr: "warm-2 reported no rounds metric",
		},
	})
}

func TestCheckFleetConverge(t *testing.T) {
	runGateCases(t, gatesOn("BenchmarkFleetConverge/1m", "BenchmarkFleetConverge/clustered"), []gateCase{
		{name: "no fleet benchmarks: gate skipped", recs: []record{rec("BenchmarkEngineStep-2")}},
		{
			name: "1m certified, clustered within 2x",
			recs: []record{
				rec("BenchmarkFleetConverge/1m-2", "converged", 1.0, "rounds", 56.0),
				rec("BenchmarkFleetConverge/clustered-2", "rounds", 35.0, "single_rounds", 40.0),
			},
		},
		{
			name: "clustered exactly 2x is still inside",
			recs: []record{rec("BenchmarkFleetConverge/clustered", "rounds", 80.0, "single_rounds", 40.0)},
		},
		{
			name:    "1m did not certify",
			recs:    []record{rec("BenchmarkFleetConverge/1m-2", "converged", 0.0, "rounds", 300.0)},
			wantErr: "converged 0, want == 1",
		},
		{
			name:    "1m without a converged metric",
			recs:    []record{rec("BenchmarkFleetConverge/1m-2", "rounds", 56.0)},
			wantErr: "no converged metric",
		},
		{
			name:    "clustered beyond 2x",
			recs:    []record{rec("BenchmarkFleetConverge/clustered-2", "rounds", 81.0, "single_rounds", 40.0)},
			wantErr: "rounds 81, want <= 80 (2 x BenchmarkFleetConverge/clustered single_rounds)",
		},
		{
			name:    "clustered missing its baseline",
			recs:    []record{rec("BenchmarkFleetConverge/clustered-2", "rounds", 35.0)},
			wantErr: "reported no single_rounds metric",
		},
		{
			name:    "clustered with a degenerate baseline",
			recs:    []record{rec("BenchmarkFleetConverge/clustered-2", "rounds", 0.0, "single_rounds", 0.0)},
			wantErr: "single_rounds 0, want >= 1",
		},
		{
			name: "the parallel row is not the serial gate's business",
			recs: []record{rec("BenchmarkFleetConverge/1m-parallel-2", "converged", 0.0)},
		},
	})
}

func TestCheckFleetParallel(t *testing.T) {
	serial := rec("BenchmarkFleetConverge/1m-2", "converged", 1.0, "rounds", 5.0)
	serial.Metrics["ns/op"] = 100
	parallel := func(cpus, rounds, ns float64) record {
		r := rec("BenchmarkFleetConverge/1m-parallel-2", "converged", 1.0, "rounds", rounds, "cpus", cpus)
		r.Metrics["ns/op"] = ns
		return r
	}
	runGateCases(t, gatesOn("BenchmarkFleetConverge/1m-parallel"), []gateCase{
		{name: "no fleet benchmarks: gate skipped", recs: []record{rec("BenchmarkEngineStep-2")}},
		{name: "2 CPUs: same rounds, wall-clock gate skipped", recs: []record{serial, parallel(2, 5, 100)}},
		{name: "4 CPUs: half the wall-clock", recs: []record{serial, parallel(4, 5, 50)}},
		{name: "4 CPUs: not half", recs: []record{serial, parallel(4, 5, 51)}, wantErr: "ns/op 51, want <= 50"},
		{name: "other rounds", recs: []record{serial, parallel(2, 6, 100)}, wantErr: "rounds 6, want == 5"},
		{
			name:    "parallel did not certify",
			recs:    []record{serial, rec("BenchmarkFleetConverge/1m-parallel-2", "converged", 0.0)},
			wantErr: "converged 0, want == 1",
		},
		{name: "serial alone", recs: []record{serial}, wantErr: "1m-parallel missing"},
		{name: "parallel alone", recs: []record{parallel(2, 5, 100)}, wantErr: "BenchmarkFleetConverge/1m missing"},
		{
			name:    "no cpus metric",
			recs:    []record{serial, rec("BenchmarkFleetConverge/1m-parallel-2", "converged", 1.0, "rounds", 5.0)},
			wantErr: "reported no cpus metric",
		},
	})
}

func TestCheckNoGatedLoss(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	prevDoc, err := json.Marshal(report{Benchmarks: []record{
		rec("BenchmarkFleetConverge/1m-8"),
		rec("BenchmarkFleetConverge/1m-parallel-8"),
		rec("BenchmarkRoundsToConverge/price-discovery-8"),
		rec("BenchmarkEngineStepLarge-8"), // ungated: may come and go
	}})
	if err != nil {
		t.Fatal(err)
	}
	prev := write("prev.json", string(prevDoc))
	// The report committed before the dense path was deleted, and the one after.
	pairDoc, _ := json.Marshal(report{Benchmarks: []record{
		rec("BenchmarkEngineStepConverged/dense-2"), rec("BenchmarkEngineStepConverged/sparse-2")}})
	oneDoc, _ := json.Marshal(report{Benchmarks: []record{rec("BenchmarkEngineStepConverged-2")}})
	prevPair, prevOne := write("pair.json", string(pairDoc)), write("one.json", string(oneDoc))

	for _, tc := range []struct {
		name    string
		prev    string
		recs    []record
		wantErr []string // nil = accept; otherwise every substring must appear
	}{
		{
			name: "all gated benchmarks present under another CPU width",
			prev: prev,
			recs: []record{
				rec("BenchmarkFleetConverge/1m-2"),
				rec("BenchmarkFleetConverge/1m-parallel-2"),
				rec("BenchmarkRoundsToConverge/price-discovery-2"),
			},
		},
		{
			name: "no previous report: first run",
			prev: filepath.Join(dir, "absent.json"),
			recs: []record{rec("BenchmarkEngineStep-2")},
		},
		{
			name: "gated benchmarks vanished, each one named",
			prev: prev,
			recs: []record{
				rec("BenchmarkFleetConverge/1m-2"),
				rec("BenchmarkEngineStepLarge-2"),
			},
			wantErr: []string{"BenchmarkFleetConverge/1m-parallel", "BenchmarkRoundsToConverge/price-discovery"},
		},
		{
			name:    "unparsable previous report",
			prev:    write("garbage.json", "{not json"),
			recs:    []record{rec("BenchmarkFleetConverge/1m-2")},
			wantErr: []string{"parsing previous report"},
		},
		{
			name: "the deleted dense/sparse sub-benchmarks are not a gated family",
			prev: prevPair,
			recs: []record{rec("BenchmarkEngineStepConverged-8")},
		},
		{
			name:    "the single converged-step benchmark is gated by exact name",
			prev:    prevOne,
			recs:    []record{rec("BenchmarkEngineStepConvergedish-2"), rec("BenchmarkEngineStepConverged/sparse-2")},
			wantErr: []string{"missing from this run: BenchmarkEngineStepConverged "},
		},
	} {
		err := checkNoGatedLoss(tc.prev, tc.recs)
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want error naming %v", tc.name, tc.wantErr)
			continue
		}
		for _, sub := range tc.wantErr {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, sub)
			}
		}
		if strings.Contains(err.Error(), "BenchmarkEngineStepLarge") {
			t.Errorf("%s: error %q names an ungated benchmark", tc.name, err)
		}
	}
}

func TestCheckPrevBounds(t *testing.T) {
	dir := t.TempDir()
	prevDoc, err := json.Marshal(report{Benchmarks: []record{
		rec("BenchmarkFleetBuild-8", "allocs/op", 100000.0),
		rec("BenchmarkFleetReplace-8", "allocs/op", 10000.0),
		rec("BenchmarkEngineStep-8", "allocs/op", 0.0), // unbounded: free to move
		rec("BenchmarkEngineStepConverged-8", "ns/op", 800.0),
		rec("BenchmarkEngineSnapshot-8", "allocs/op", 31.0),
		rec("BenchmarkWireCodec-8", "binary_bytes", 846.0, "allocs/op", 100.0),
		rec("BenchmarkFleetConverge/1m-8", "rounds", 10.0, "converged", 1.0),
	}})
	if err != nil {
		t.Fatal(err)
	}
	prev := filepath.Join(dir, "prev.json")
	if err := os.WriteFile(prev, prevDoc, 0o644); err != nil {
		t.Fatal(err)
	}
	garbage := filepath.Join(dir, "garbage.json")
	if err := os.WriteFile(garbage, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}

	for _, tc := range []struct {
		name    string
		prev    string
		recs    []record
		wantErr []string // nil = accept; otherwise every substring must appear
	}{
		{
			name: "equal counts under another CPU width",
			prev: prev,
			recs: []record{
				rec("BenchmarkFleetBuild-2", "allocs/op", 100000.0),
				rec("BenchmarkFleetReplace-2", "allocs/op", 10000.0),
			},
		},
		{
			name: "exactly +5% is still inside, fewer is always inside",
			prev: prev,
			recs: []record{
				rec("BenchmarkFleetBuild-2", "allocs/op", 105000.0),
				rec("BenchmarkFleetReplace-2", "allocs/op", 500.0),
			},
		},
		{
			name: "build over the bound, named with both counts",
			prev: prev,
			recs: []record{
				rec("BenchmarkFleetBuild-2", "allocs/op", 105001.0),
				rec("BenchmarkFleetReplace-2", "allocs/op", 10000.0),
			},
			wantErr: []string{"BenchmarkFleetBuild allocs/op 105001", "100000"},
		},
		{
			name: "both over the bound, both named",
			prev: prev,
			recs: []record{
				rec("BenchmarkFleetBuild-2", "allocs/op", 200000.0),
				rec("BenchmarkFleetReplace-2", "allocs/op", 10600.0),
			},
			wantErr: []string{"BenchmarkFleetBuild", "BenchmarkFleetReplace allocs/op 10600"},
		},
		{
			name: "the exit snapshot at its recorded row chunks",
			prev: prev,
			recs: []record{rec("BenchmarkEngineSnapshot-2", "allocs/op", 31.0)},
		},
		{
			name:    "the exit snapshot back at two rows per task",
			prev:    prev,
			recs:    []record{rec("BenchmarkEngineSnapshot-2", "allocs/op", 19207.0)},
			wantErr: []string{"BenchmarkEngineSnapshot allocs/op 19207", "31"},
		},
		{
			name: "converged step twice as slow on another machine is still inside",
			prev: prev,
			recs: []record{rec("BenchmarkEngineStepConverged-2", "ns/op", 1600.0)},
		},
		{
			name:    "converged step at the cost of a dense sweep",
			prev:    prev,
			recs:    []record{rec("BenchmarkEngineStepConverged-2", "ns/op", 2800.0)},
			wantErr: []string{"BenchmarkEngineStepConverged ns/op 2800", "800", "bound +100%"},
		},
		{
			name: "the wire frame at its recorded size, allocations at exactly +5%",
			prev: prev,
			recs: []record{rec("BenchmarkWireCodec-2", "binary_bytes", 846.0, "allocs/op", 105.0)},
		},
		{
			name: "a smaller frame is inside",
			prev: prev,
			recs: []record{rec("BenchmarkWireCodec-2", "binary_bytes", 800.0, "allocs/op", 3.0)},
		},
		{
			name:    "the wire frame one byte larger",
			prev:    prev,
			recs:    []record{rec("BenchmarkWireCodec-2", "binary_bytes", 847.0, "allocs/op", 100.0)},
			wantErr: []string{"BenchmarkWireCodec binary_bytes 847", "846", "bound +0%"},
		},
		{
			name:    "the codec allocating again",
			prev:    prev,
			recs:    []record{rec("BenchmarkWireCodec-2", "binary_bytes", 846.0, "allocs/op", 106.0)},
			wantErr: []string{"BenchmarkWireCodec allocs/op 106", "100"},
		},
		{
			name: "the 1M fleet at its recorded rounds",
			prev: prev,
			recs: []record{rec("BenchmarkFleetConverge/1m-2", "rounds", 10.0)},
		},
		{
			name: "the 1M fleet in fewer rounds",
			prev: prev,
			recs: []record{rec("BenchmarkFleetConverge/1m-2", "rounds", 9.0)},
		},
		{
			name:    "the 1M fleet one round over",
			prev:    prev,
			recs:    []record{rec("BenchmarkFleetConverge/1m-2", "rounds", 11.0, "converged", 1.0)},
			wantErr: []string{"BenchmarkFleetConverge/1m rounds 11", "10", "bound +0%"},
		},
		{
			name:    "a silent return to the gradient aggregator's 56 rounds, still converged",
			prev:    prev,
			recs:    []record{rec("BenchmarkFleetConverge/1m-2", "rounds", 56.0, "converged", 1.0)},
			wantErr: []string{"BenchmarkFleetConverge/1m rounds 56", "previous report 10"},
		},
		{
			name: "the parallel twin is held to the serial count by checkFleetParallel, not here",
			prev: prev,
			recs: []record{rec("BenchmarkFleetConverge/1m-parallel-2", "rounds", 56.0)},
		},
		{
			name: "an unbounded benchmark may regress",
			prev: prev,
			recs: []record{rec("BenchmarkEngineStep-2", "allocs/op", 50.0)},
		},
		{
			name: "run without -benchmem columns: row skipped",
			prev: prev,
			recs: []record{rec("BenchmarkFleetBuild-2"), rec("BenchmarkFleetReplace-2")},
		},
		{
			name: "no previous report: first run",
			prev: filepath.Join(dir, "absent.json"),
			recs: []record{rec("BenchmarkFleetBuild-2", "allocs/op", 1e9)},
		},
		{
			name:    "unparsable previous report",
			prev:    garbage,
			recs:    []record{rec("BenchmarkFleetBuild-2", "allocs/op", 1.0)},
			wantErr: []string{"parsing previous report"},
		},
	} {
		err := checkPrevBounds(tc.prev, tc.recs)
		if tc.wantErr == nil {
			if err != nil {
				t.Errorf("%s: rejected: %v", tc.name, err)
			}
			continue
		}
		if err == nil {
			t.Errorf("%s: accepted, want error naming %v", tc.name, tc.wantErr)
			continue
		}
		for _, sub := range tc.wantErr {
			if !strings.Contains(err.Error(), sub) {
				t.Errorf("%s: error %q does not mention %q", tc.name, err, sub)
			}
		}
	}
}
