package core

import (
	"math"
	"testing"

	"lla/internal/price"
	"lla/internal/share"
	"lla/internal/task"
	"lla/internal/utility"
	"lla/internal/workload"
)

// newTestProblem compiles a one-task chain over two resources.
func newTestProblem(t *testing.T, curve utility.Curve) *Problem {
	t.Helper()
	tk := task.NewBuilder("t", 100).
		Subtask("a", "r0", 3).
		Subtask("b", "r1", 2).
		Chain("a", "b").
		MustBuild()
	w := &workload.Workload{
		Name:  "unit",
		Tasks: []*task.Task{tk},
		Resources: []share.Resource{
			{ID: "r0", Kind: share.CPU, Availability: 1, LagMs: 1},
			{ID: "r1", Kind: share.Link, Availability: 1, LagMs: 1},
		},
		Curves: map[string]utility.Curve{"t": curve},
	}
	p, err := Compile(w, task.WeightPathNormalized)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// fixedPolicy is a constant step size 1.
var fixedPolicy = StepPolicy{Gamma: 1}

func TestControllerInitialLatenciesAreFairSplit(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	c := NewController(p, 0, fixedPolicy)
	// Each subtask is alone on its resource: fair share = full availability
	// -> latency = (c+l)/1.
	if math.Abs(c.LatMs[0]-4) > 1e-12 || math.Abs(c.LatMs[1]-3) > 1e-12 {
		t.Errorf("initial latencies = %v, want [4 3]", c.LatMs)
	}
}

func TestControllerClosedFormAllocation(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	c := NewController(p, 0, fixedPolicy)
	// With mu = [16, 9], lambda = 0, w = 1, |f'| = 1:
	// lat_a = sqrt(16*4/1) = 8; lat_b = sqrt(9*3/1) ≈ 5.196.
	c.Solve([]float64{16, 9}, nil)
	if math.Abs(c.LatMs[0]-8) > 1e-9 {
		t.Errorf("lat_a = %v, want 8", c.LatMs[0])
	}
	if math.Abs(c.LatMs[1]-math.Sqrt(27)) > 1e-9 {
		t.Errorf("lat_b = %v, want sqrt(27)", c.LatMs[1])
	}
}

func TestControllerPathPriceRaisesUnderViolation(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	c := NewController(p, 0, fixedPolicy)
	// Force the path over its critical time.
	c.LatMs[0], c.LatMs[1] = 80, 40 // sum 120 > C=100
	c.Solve([]float64{1, 1}, nil)
	if c.Lambda[0] <= 0 {
		t.Errorf("lambda = %v, want positive after violation", c.Lambda[0])
	}
	// With slack, the price projects back to zero.
	for i := 0; i < 10; i++ {
		c.LatMs[0], c.LatMs[1] = 10, 10
		c.Solve([]float64{1, 1}, nil)
	}
	if c.Lambda[0] != 0 {
		t.Errorf("lambda = %v, want 0 after sustained slack", c.Lambda[0])
	}
}

func TestControllerZeroPriceTakesMinLatency(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	c := NewController(p, 0, fixedPolicy)
	c.Solve([]float64{0, 0}, nil)
	if c.LatMs[0] != p.Tasks[0].LatMinMs[0] || c.LatMs[1] != p.Tasks[0].LatMinMs[1] {
		t.Errorf("free resources should give minimum latencies, got %v", c.LatMs)
	}
}

func TestControllerHugePriceClampsAtMax(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	c := NewController(p, 0, fixedPolicy)
	c.Solve([]float64{1e12, 1e12}, nil)
	if c.LatMs[0] != p.Tasks[0].LatMaxMs[0] || c.LatMs[1] != p.Tasks[0].LatMaxMs[1] {
		t.Errorf("expensive resources should clamp at max latencies, got %v (max %v)",
			c.LatMs, p.Tasks[0].LatMaxMs)
	}
}

func TestControllerNonlinearInnerLoopConverges(t *testing.T) {
	p := newTestProblem(t, utility.Quadratic{A: 1000, B: 0.1})
	c := NewController(p, 0, fixedPolicy)
	c.Solve([]float64{20, 20}, nil)
	// The fixed point satisfies the stationarity condition:
	// w·f'(L) = mu·share'(lat) for interior latencies.
	agg := 0.0
	for si, w := range p.Tasks[0].Weights {
		agg += w * c.LatMs[si]
	}
	for si := range c.LatMs {
		lat := c.LatMs[si]
		if lat <= p.Tasks[0].LatMinMs[si]+1e-9 || lat >= p.Tasks[0].LatMaxMs[si]-1e-9 {
			continue
		}
		lhs := p.Tasks[0].Weights[si] * p.Tasks[0].Curve.Slope(agg)
		rhs := 20 * p.Share(0, si).Deriv(lat)
		if math.Abs(lhs-rhs) > 1e-6*math.Abs(lhs) {
			t.Errorf("subtask %d: stationarity residual %v vs %v", si, lhs, rhs)
		}
	}
}

func TestControllerClampDeadlineSafe(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	c := NewController(p, 0, fixedPolicy)
	pt := &p.Tasks[0]

	// Violating assignment: path sum 120 > C=100.
	c.LatMs[0], c.LatMs[1] = 80, 40
	if v := c.ClampDeadlineSafe(); v > 1e-12 {
		t.Fatalf("residual violation %v, want 0", v)
	}
	sum := c.LatMs[0] + c.LatMs[1]
	if math.Abs(sum-100) > 1e-9 {
		t.Errorf("clamped path sum = %v, want exactly the critical time 100", sum)
	}
	for si, lat := range c.LatMs {
		if lat < pt.LatMinMs[si]-1e-12 {
			t.Errorf("subtask %d clamped below its floor: %v < %v", si, lat, pt.LatMinMs[si])
		}
	}
	// Slack above each floor shrinks by a common factor.
	r0 := (c.LatMs[0] - pt.LatMinMs[0]) / (80 - pt.LatMinMs[0])
	r1 := (c.LatMs[1] - pt.LatMinMs[1]) / (40 - pt.LatMinMs[1])
	if math.Abs(r0-r1) > 1e-9 {
		t.Errorf("slack factors differ: %v vs %v", r0, r1)
	}

	// A feasible assignment is left untouched.
	c.LatMs[0], c.LatMs[1] = 30, 20
	if v := c.ClampDeadlineSafe(); v != 0 {
		t.Errorf("feasible point reported violation %v", v)
	}
	if c.LatMs[0] != 30 || c.LatMs[1] != 20 {
		t.Errorf("feasible point modified: %v", c.LatMs)
	}
}

func TestControllerResetPrices(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	c := NewController(p, 0, fixedPolicy)
	c.LatMs[0], c.LatMs[1] = 80, 40
	c.Solve([]float64{1, 1}, nil)
	if c.Lambda[0] == 0 {
		t.Fatal("setup failed: lambda should be positive")
	}
	c.ResetPrices()
	if c.Lambda[0] != 0 {
		t.Errorf("lambda = %v after reset, want 0", c.Lambda[0])
	}
}

func TestControllerSharesAndCriticalPath(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	c := NewController(p, 0, fixedPolicy)
	c.LatMs[0], c.LatMs[1] = 8, 6
	shares := make([]float64, 2)
	p.sharesInto(shares, 0, c.LatMs, false)
	if math.Abs(shares[0]-0.5) > 1e-12 || math.Abs(shares[1]-0.5) > 1e-12 {
		t.Errorf("shares = %v, want [0.5 0.5]", shares)
	}
	cp, pi := c.CriticalPathMs()
	if math.Abs(cp-14) > 1e-12 || pi != 0 {
		t.Errorf("critical path = %v (path %d), want 14 (path 0)", cp, pi)
	}
	if u := c.Utility(); math.Abs(u-(200-14)) > 1e-12 {
		t.Errorf("utility = %v, want 186", u)
	}
}

func TestResourcePriceDynamics(t *testing.T) {
	r := &newTestProblem(t, utility.Linear{K: 2, CMs: 100}).Resources[0]
	if r.Congested(1.0) {
		t.Error("exact saturation should be within the congestion margin")
	}
	if !r.Congested(1.05) {
		t.Error("5% overload should be congested")
	}
	grad := Config{Step: fixedPolicy, PriceSolver: price.SolverGradient}.WithDefaults().NewDynamics()
	grad.Reset(1)
	mu, _ := grad.StepAt(0, 1, 1.5, r.Availability, 0, r.Congested(1.5)) // overload: price rises
	if mu <= 1 {
		t.Errorf("mu = %v, want > 1 after overload", mu)
	}
	if low, _ := grad.StepAt(0, mu, 0.5, r.Availability, 0, r.Congested(0.5)); low >= mu { // slack: price falls
		t.Errorf("mu = %v, want < %v after slack", low, mu)
	}
}

func TestEngineDemand(t *testing.T) {
	p := newTestProblem(t, utility.Linear{K: 2, CMs: 100})
	e, err := NewEngine(p.Workload(), Config{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	copy(e.Controller(0).LatMs, []float64{8, 6})
	e.refreshResourceState()
	// r0 hosts only subtask a: share = 4/8 = 0.5.
	if sum := e.ShareSumAt(0); math.Abs(sum-0.5) > 1e-12 {
		t.Errorf("share sum = %v, want 0.5", sum)
	}
}

// Mixed-curve random workloads exercise the nonlinear path at scale: LLA
// must certify them — every Equation 7 residual below the certificate's
// 1e-9. Seeds 1, 6 and 16 at the default slack hold tasks whose latencies
// and aggregate a slope-aggregate fixed-point iteration cycles between
// (seed 6's ExpPenalty task: slopes −0.0555 and −279.6) instead of solving.
// Seeds 5, 9 and 19 at the default slack still do not certify: their
// controllers are exact (KKT below 1e-9) but the prices never settle, a
// resource stays 0.5–2.4 % over capacity. They are recorded, not dropped: a
// change that makes them certify must move them up.
func TestEngineMixedCurveRandomWorkloads(t *testing.T) {
	const kktTol, tol = 1e-9, 1e-6
	for _, tc := range []struct {
		seed      int64
		slack     float64 // 0: the generator's default
		certifies bool
	}{
		{0, 10, true}, {1, 10, true}, {2, 10, true}, {3, 10, true}, {4, 10, true},
		{1, 0, true}, {6, 0, true}, {16, 0, true},
		{5, 0, false}, {9, 0, false}, {19, 0, false},
	} {
		cfg := workload.DefaultRandomConfig(tc.seed)
		cfg.MixedCurves = true
		if tc.slack > 0 {
			cfg.SlackFactor = tc.slack
		}
		w, err := workload.Random(cfg)
		if err != nil {
			t.Fatal(err)
		}
		e, err := NewEngine(w, Config{})
		if err != nil {
			t.Fatal(err)
		}
		snap, ok := e.RunUntilKKT(4000, kktTol, 3, tol)
		c, _ := e.Certify(math.Inf(1), math.Inf(1))
		e.Close()
		if ok != tc.certifies {
			t.Errorf("seed %d slack %v: certified %v, want %v: %+v", tc.seed, tc.slack, ok, tc.certifies, c)
			continue
		}
		if !ok {
			if c.KKTMax >= kktTol {
				t.Errorf("seed %d slack %v: controllers not stationary: %+v", tc.seed, tc.slack, c)
			}
			continue
		}
		if !snap.Feasible(tol) {
			t.Errorf("seed %d slack %v: infeasible: %v", tc.seed, tc.slack, snap)
		}
		if c.KKTMax >= kktTol {
			t.Errorf("seed %d slack %v: KKT residual %v", tc.seed, tc.slack, c.KKTMax)
		}
	}
}

// slopeCounter counts Slope evaluations of the curve it wraps.
type slopeCounter struct {
	utility.Curve
	calls *int
}

func (s slopeCounter) Slope(x float64) float64 {
	*s.calls++
	return s.Curve.Slope(x)
}

// TestAllocateLatenciesEarlyExitBitwise asserts Solve leaves exactly the
// latencies of the reference solve — one pass at the entry slope when it
// reproduces its aggregate, otherwise bisection to exhaustion — over a price
// sweep that covers the free, clamped and interior regimes, with and without
// path prices, carrying state from one solve into the next; and that the
// one-pass exit lands within 1e-7 of the root an exhaustive bisection finds
// without it, which every solve that bisects returns bit for bit.
func TestAllocateLatenciesEarlyExitBitwise(t *testing.T) {
	curves := map[string]utility.Curve{
		"linear":      utility.Linear{K: 2, CMs: 100},
		"neg-latency": utility.NegLatency{},
		"quadratic":   utility.Quadratic{A: 1000, B: 0.1},
		"exp-penalty": utility.ExpPenalty{A: 200, B: 1, Tau: 30},
	}
	prices := []float64{0, 1e-6, 0.3, 1, 7, 20, 400, 1e12}
	for name, curve := range curves {
		e, err := NewEngine(newTestProblem(t, curve).Workload(), Config{Workers: 1, Step: fixedPolicy})
		if err != nil {
			t.Fatal(err)
		}
		got := e.Controller(0)
		want := newRefTask(t, e, 0, new(refHits))
		root := newRefTask(t, e, 0, new(refHits))
		root.noOnePass = true
		for _, lambda := range []float64{0, 0.5} {
			got.Lambda[0], want.lambda[0] = lambda, lambda
			for _, m0 := range prices {
				for _, m1 := range prices {
					mu := []float64{m0, m1}
					got.Solve(mu, nil)
					referenceSolve(want, mu, nil)
					copy(root.lambda, got.Lambda) // the path prices the latencies were solved at
					root.allocateLatencies(mu)
					for si := range got.LatMs {
						if got.LatMs[si] != want.lat[si] {
							t.Fatalf("%s lambda=%v mu=%v subtask %d: Solve %x, reference %x",
								name, lambda, mu, si, got.LatMs[si], want.lat[si])
						}
						if d := math.Abs(got.LatMs[si] - root.lat[si]); d > 1e-7*(1+math.Abs(root.lat[si])) {
							t.Fatalf("%s lambda=%v mu=%v subtask %d: Solve %v, exhaustive bisection %v",
								name, lambda, mu, si, got.LatMs[si], root.lat[si])
						}
					}
				}
			}
		}
	}
}

// TestAllocateLatenciesInnerRounds pins what the early exit keys on: a
// constant-slope curve takes one inner round however far the latencies
// move, and a curve whose slope moved keeps iterating.
func TestAllocateLatenciesInnerRounds(t *testing.T) {
	for _, tc := range []struct {
		name      string
		curve     utility.Curve
		wantCalls func(int) bool
	}{
		// Behind the counter the curve is not recognized as constant-slope:
		// initial slope + one re-evaluation that comes back equal.
		{"linear", utility.Linear{K: 2, CMs: 100}, func(n int) bool { return n == 2 }},
		// At least two rounds: initial slope and two or more re-evaluations.
		{"quadratic", utility.Quadratic{A: 1000, B: 0.1}, func(n int) bool { return n >= 3 }},
	} {
		calls := 0
		p := newTestProblem(t, slopeCounter{tc.curve, &calls})
		c := NewController(p, 0, fixedPolicy)
		before := append([]float64(nil), c.LatMs...)
		calls = 0 // Compile samples the curve to validate it
		if _, moved := c.Solve([]float64{20, 20}, nil); !moved {
			t.Fatalf("%s: latencies did not move from %v", tc.name, before)
		}
		if !tc.wantCalls(calls) {
			t.Errorf("%s: %d slope evaluations", tc.name, calls)
		}
	}
}
