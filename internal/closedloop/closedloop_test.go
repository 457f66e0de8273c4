package closedloop

import (
	"math"
	"testing"

	"lla/internal/core"
	"lla/internal/sim"
	"lla/internal/workload"
)

func newLoop(t *testing.T, cfg Config) *Loop {
	t.Helper()
	l, err := New(workload.Prototype(), core.Config{},
		sim.Config{Scheduler: sim.Quantum, QuantumMs: 5, Seed: 4}, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// The full Figure 8 behaviour through the closed loop: correction off, the
// loop holds the model optimum; enabling it shifts fast shares to the
// minimum and slow shares to the surplus.
func TestLoopReproducesErrorCorrectionShift(t *testing.T) {
	l := newLoop(t, Config{EpochMs: 800})
	l.SetCorrection(false)

	var last Epoch
	if err := l.RunEpochs(6, func(e Epoch) { last = e }); err != nil {
		t.Fatal(err)
	}
	if math.Abs(last.Snapshot.Shares[0][0]-10.0/35) > 0.01 {
		t.Fatalf("pre-correction fast share = %v, want 0.286", last.Snapshot.Shares[0][0])
	}
	if last.CorrectionActive {
		t.Fatal("correction should be off")
	}
	for _, row := range last.ErrMs {
		for _, v := range row {
			if v != 0 {
				t.Fatalf("errors should be zero before correction: %v", last.ErrMs)
			}
		}
	}

	l.SetCorrection(true)
	if !l.correcting {
		t.Fatal("correction should be on")
	}
	if err := l.RunEpochs(12, func(e Epoch) { last = e }); err != nil {
		t.Fatal(err)
	}
	if math.Abs(last.Snapshot.Shares[0][0]-0.2) > 0.01 {
		t.Errorf("post-correction fast share = %v, want 0.20", last.Snapshot.Shares[0][0])
	}
	if math.Abs(last.Snapshot.Shares[2][0]-0.25) > 0.01 {
		t.Errorf("post-correction slow share = %v, want 0.25", last.Snapshot.Shares[2][0])
	}
	if last.ErrMs[0][0] > -5 {
		t.Errorf("learned fast error = %v, want clearly negative", last.ErrMs[0][0])
	}
}

// The enactment policy keeps the loop quiet once converged: enactments stop
// growing while epochs continue.
func TestLoopEnactmentGoesQuiet(t *testing.T) {
	l := newLoop(t, Config{EpochMs: 500})
	l.SetCorrection(false)
	if err := l.RunEpochs(5, nil); err != nil {
		t.Fatal(err)
	}
	afterWarm := l.Enactments()
	if afterWarm == 0 {
		t.Fatal("first epoch must enact")
	}
	if err := l.RunEpochs(5, nil); err != nil {
		t.Fatal(err)
	}
	if l.Enactments() != afterWarm {
		t.Errorf("enactments grew from %d to %d on a stable system", afterWarm, l.Enactments())
	}
}

// Epoch observations are well-formed and monotone in time.
func TestLoopEpochObservations(t *testing.T) {
	l := newLoop(t, Config{EpochMs: 300})
	var epochs []Epoch
	if err := l.RunEpochs(4, func(e Epoch) { epochs = append(epochs, e) }); err != nil {
		t.Fatal(err)
	}
	if len(epochs) != 4 {
		t.Fatalf("epochs = %d, want 4", len(epochs))
	}
	for i, e := range epochs {
		if e.Index != i {
			t.Errorf("epoch %d has index %d", i, e.Index)
		}
		if i > 0 && e.SimTimeMs <= epochs[i-1].SimTimeMs {
			t.Errorf("sim time not monotone: %v then %v", epochs[i-1].SimTimeMs, e.SimTimeMs)
		}
		if len(e.ErrMs) != 4 {
			t.Errorf("ErrMs covers %d tasks, want 4", len(e.ErrMs))
		}
	}
	if l.Engine() == nil || l.world == nil {
		t.Error("accessors returned nil")
	}
}

// Dynamic changes through the exposed engine integrate with the loop: a
// capacity drop mid-run re-enacts a new allocation.
func TestLoopReactsToCapacityDrop(t *testing.T) {
	l := newLoop(t, Config{EpochMs: 500})
	l.SetCorrection(false)
	if err := l.RunEpochs(4, nil); err != nil {
		t.Fatal(err)
	}
	before := l.Enactments()
	// cpu2 loses capacity (0.9 -> 0.85; the fast tasks' deadline-driven
	// 2x0.286 plus the slow floors 2x0.13 need 0.83, so 0.85 stays
	// feasible): shares must shift.
	if err := l.Engine().SetAvailability("cpu2", 0.85); err != nil {
		t.Fatal(err)
	}
	var last Epoch
	if err := l.RunEpochs(4, func(e Epoch) { last = e }); err != nil {
		t.Fatal(err)
	}
	if l.Enactments() == before {
		t.Error("capacity drop should trigger a new enactment")
	}
	sum := 0.0
	for ti := range last.Snapshot.Shares {
		sum += last.Snapshot.Shares[ti][2] // subtasks on cpu2
	}
	if sum > 0.851 {
		t.Errorf("cpu2 share sum %v exceeds new availability", sum)
	}
}

func TestLoopRejectsInvalidInputs(t *testing.T) {
	bad := workload.Prototype()
	bad.Tasks = nil
	if _, err := New(bad, core.Config{}, sim.Config{}, Config{}); err == nil {
		t.Error("invalid workload should fail")
	}
}
