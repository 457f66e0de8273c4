package lla_test

import (
	"reflect"
	"slices"
	"testing"

	"lla/internal/admit"
	"lla/internal/closedloop"
	"lla/internal/core"
	"lla/internal/fleet"
	"lla/internal/sim"
)

// TestConfigSurface holds every policy config type's exported fields to an
// explicit list: 23 settable values across core.Config (4), core.StepPolicy
// (2), fleet.Config (8), fleet.PartitionConfig (2), admit.Config (2),
// closedloop.Config (1) and sim.Config (4). admit.PlacerConfig and
// errcorr.Config have no entry because they do not exist; their values are
// constants. A value with one setting in use is a constant, so a knob added
// later has to edit this list in plain sight.
func TestConfigSurface(t *testing.T) {
	for _, tc := range []struct {
		typ  any
		want []string
	}{
		{core.Config{}, []string{"WeightMode", "Step", "Workers", "PriceSolver"}},
		{core.StepPolicy{}, []string{"Adaptive", "Gamma"}},
		{fleet.Config{}, []string{"Shards", "Seed", "ShardWorkers", "Engine", "LocalIters",
			"MaxRounds", "RecordHashes", "Observer"}},
		{fleet.PartitionConfig{}, []string{"Shards", "Seed"}},
		{admit.Config{}, []string{"TrialIters", "AdmitAll"}},
		{closedloop.Config{}, []string{"EpochMs"}},
		{sim.Config{}, []string{"Seed", "Scheduler", "QuantumMs", "ExecJitterFrac"}},
	} {
		typ := reflect.TypeOf(tc.typ)
		var got []string
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); f.IsExported() {
				got = append(got, f.Name)
			}
		}
		if !slices.Equal(got, tc.want) {
			t.Errorf("%v fields = %v, want %v", typ, got, tc.want)
		}
	}
}
