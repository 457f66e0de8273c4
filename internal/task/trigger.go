package task

import (
	"fmt"
	"math"
)

// TriggerKind enumerates the supported triggering-event arrival patterns
// (Section 2: "signals with an arrival pattern").
type TriggerKind int

const (
	// TriggerPeriodic releases a job set every PeriodMs milliseconds.
	TriggerPeriodic TriggerKind = iota + 1
	// TriggerPoisson releases job sets as a Poisson process with mean
	// inter-arrival PeriodMs.
	TriggerPoisson
	// TriggerBursty is a two-state on/off (Markov-modulated) process: during
	// an on-phase, arrivals are periodic with PeriodMs; off-phases produce
	// no arrivals. It models bursty real-world event streams.
	TriggerBursty
)

// String implements fmt.Stringer.
func (k TriggerKind) String() string {
	switch k {
	case TriggerPeriodic:
		return "periodic"
	case TriggerPoisson:
		return "poisson"
	case TriggerBursty:
		return "bursty"
	default:
		return fmt.Sprintf("TriggerKind(%d)", int(k))
	}
}

// Trigger specifies a task's triggering-event arrival pattern.
type Trigger struct {
	Kind TriggerKind
	// PeriodMs is the (mean) inter-arrival time in milliseconds.
	PeriodMs float64
	// OnMs and OffMs are mean phase durations for TriggerBursty; ignored
	// otherwise.
	OnMs  float64
	OffMs float64
}

// Periodic returns a periodic trigger with the given period.
func Periodic(periodMs float64) Trigger {
	return Trigger{Kind: TriggerPeriodic, PeriodMs: periodMs}
}

// Poisson returns a Poisson trigger with the given mean inter-arrival time.
func Poisson(meanMs float64) Trigger {
	return Trigger{Kind: TriggerPoisson, PeriodMs: meanMs}
}

// Bursty returns an on/off trigger: periodic arrivals of period periodMs
// during on-phases of mean length onMs, separated by off-phases of mean
// length offMs.
func Bursty(periodMs, onMs, offMs float64) Trigger {
	return Trigger{Kind: TriggerBursty, PeriodMs: periodMs, OnMs: onMs, OffMs: offMs}
}

// Validate checks trigger parameters: durations are finite, periods and
// on-phases positive.
func (tr Trigger) Validate() error {
	positive := func(ms float64) bool { return ms > 0 && ms <= math.MaxFloat64 }
	switch tr.Kind {
	case TriggerPeriodic, TriggerPoisson:
		if !positive(tr.PeriodMs) {
			return fmt.Errorf("trigger %s: period must be positive and finite, got %v", tr.Kind, tr.PeriodMs)
		}
	case TriggerBursty:
		if !(positive(tr.PeriodMs) && positive(tr.OnMs) && tr.OffMs >= 0 && tr.OffMs <= math.MaxFloat64) {
			return fmt.Errorf("trigger bursty: invalid parameters period=%v on=%v off=%v", tr.PeriodMs, tr.OnMs, tr.OffMs)
		}
	case 0:
		// Zero value: task without an arrival specification (allowed for
		// pure optimization workloads that never get simulated).
	default:
		return fmt.Errorf("trigger: unknown kind %d", int(tr.Kind))
	}
	return nil
}
