package eval

import (
	"strings"
	"testing"
)

// TestFleetExperimentQuick runs the fleet experiment in quick mode: the
// runner itself asserts per-shard hash determinism and the utility gate, so
// the test mostly checks the artifact shape.
func TestFleetExperimentQuick(t *testing.T) {
	res, err := Fleet(Options{Quick: true, Seed: 1, Workers: 1})
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	if res.ID != "fleet" {
		t.Errorf("ID %q, want fleet", res.ID)
	}
	if res.RoundsToConverge < 1 {
		t.Errorf("RoundsToConverge %d, want >= 1", res.RoundsToConverge)
	}
	if len(res.Tables) != 2 || len(res.Tables[0].Rows) != 1 {
		t.Fatalf("want summary and churn tables with one summary row, got %+v", res.Tables)
	}
	if len(res.Tables[1].Rows) != 2 {
		t.Fatalf("want warm and cold churn rows, got %+v", res.Tables[1].Rows)
	}
	if len(res.Series) != 2 {
		t.Fatalf("want 2 series, got %d", len(res.Series))
	}
	out := res.Render()
	for _, want := range []string{"boundary", "cut", "per-shard state hashes", "Incremental repartitioning", "warm (ReplaceWorkload)"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered report missing %q", want)
		}
	}
}

// TestFleetExperimentShardsOverride checks Options.Shards reaches the
// partitioner and the wire-verify path composes with it.
func TestFleetExperimentShardsOverride(t *testing.T) {
	res, err := Fleet(Options{Quick: true, Seed: 2, Workers: 1, Shards: 3})
	if err != nil {
		t.Fatalf("Fleet: %v", err)
	}
	if got := res.Tables[0].Rows[0][0]; got != "3" {
		t.Errorf("shards cell %q, want 3", got)
	}
}
