package main

import (
	"math"
	"testing"
)

func TestParseRun(t *testing.T) {
	const table = "== engine-online  seed=1\ncertify_ms_p50   24.3 ms\niters_per_certify  4 count\n"
	for _, tc := range []struct {
		name    string
		out     string
		ok      bool
		correct bool
		failed  int
		metric  string
		value   float64
	}{
		{"table then result", table + `{"correct":true,"attempted":22,"failed":0,"metrics":{"certify_ms_p50":{"value":24.3,"unit":"ms"}}}` + "\n",
			true, true, 0, "certify_ms_p50", 24.3},
		{"trailing blank lines", table + `{"correct":false,"attempted":2,"failed":1,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}` + "\n\n  \n",
			true, false, 1, "setup_s", 0.5},
		{"only the last line counts", `{"correct":true,"metrics":{"a":{"value":1}}}` + "\n" + table + `{"correct":true,"metrics":{"a":{"value":2}}}`,
			true, true, 0, "a", 2},
		{"no result line", table, false, false, 0, "", 0},
		{"empty output", "", false, false, 0, "", 0},
		{"truncated JSON", table + `{"correct":true,"metrics":{"a":`, false, false, 0, "", 0},
		{"no metrics", table + `{"correct":true,"attempted":1,"failed":0}`, false, false, 0, "", 0},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r, err := parseRun([]byte(tc.out))
			if (err == nil) != tc.ok {
				t.Fatalf("parseRun error %v, want ok=%v", err, tc.ok)
			}
			if !tc.ok {
				return
			}
			if r.Correct != tc.correct || r.Failed != tc.failed {
				t.Errorf("correct %v failed %d, want %v %d", r.Correct, r.Failed, tc.correct, tc.failed)
			}
			if got := r.Metrics[tc.metric].Value; got != tc.value {
				t.Errorf("%s = %v, want %v", tc.metric, got, tc.value)
			}
		})
	}
}

func TestJudge(t *testing.T) {
	lower := metric{Name: "certify_ms_p50", Better: "lower", Bound: 0.25}
	higher := metric{Name: "skip_ratio", Better: "higher", Bound: 0.1}
	ten := func(v float64) []float64 { return []float64{v, v, v, v, v, v, v, v, v, v} }
	for _, tc := range []struct {
		name       string
		m          metric
		olds, news []float64
		won        int
		call       string
	}{
		{"clear gain", lower, []float64{340, 350, 360, 345, 355, 338, 362, 349, 351, 347}, ten(30), 10, "better"},
		{"identical counts", metric{Name: "iters_per_certify", Better: "lower", Bound: 0.02}, ten(4), ten(4), 0, "same"},
		{"inside the bound", lower, ten(100), ten(120), 0, "same"},
		{"beyond the bound", lower, ten(100), ten(130), 0, "worse"},
		{"8 of 10 is no claim", lower, []float64{10, 10, 10, 10, 10, 10, 10, 10, 10, 10}, []float64{5, 5, 5, 5, 5, 5, 5, 5, 11, 11}, 8, "same"},
		{"gain inside the noise", lower, []float64{50, 100, 150, 50, 100, 150, 50, 100, 150, 100}, []float64{40, 90, 140, 40, 90, 140, 40, 90, 140, 90}, 10, "same"},
		{"higher is better", higher, ten(0.4), ten(0.6), 10, "better"},
		{"higher, worse", higher, ten(0.5), ten(0.4), 0, "worse"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			v := judge(tc.m, tc.olds, tc.news)
			if v.won != tc.won || v.call != tc.call {
				t.Errorf("won %d %q, want %d %q (%+v)", v.won, v.call, tc.won, tc.call, v)
			}
		})
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	for q, want := range map[float64]float64{0: 1, 0.25: 2, 0.5: 3, 0.75: 4, 1: 5} {
		if got := quantile(xs, q); got != want {
			t.Errorf("quantile(%v) = %v, want %v", q, got, want)
		}
	}
	if got := quantile([]float64{1, 2}, 0.5); got != 1.5 {
		t.Errorf("even median = %v, want 1.5", got)
	}
	if got := quantile(nil, 0.5); !math.IsNaN(got) {
		t.Errorf("quantile of no samples = %v, want NaN", got)
	}
}
