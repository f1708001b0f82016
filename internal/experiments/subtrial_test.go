package experiments

import (
	"strings"
	"testing"

	"repro/internal/parallel"
)

// subTrialExperiments are the heavy runners whose trials must spread
// across shards: fig3's sub-trial grids, and fig4's timeline figures,
// plain loops of one trial per curve.
var subTrialExperiments = []string{"fig3-5", "fig3-6", "fig3-7", "fig3-8", "fig4-4", "fig4-5", "fig4-6"}

// TestSubTrialPlanTravelsOnWire asserts that a sub-trial loop's
// LoopPartial carries the declared Cells×Units plan and that the plan
// multiplies out to the trial-range size.
func TestSubTrialPlanTravelsOnWire(t *testing.T) {
	loops := runShard(t, "fig3-8", Config{Scale: 0.1, Seed: 7}, parallel.Shard{Index: 0, Count: 1})
	if len(loops) != 1 {
		t.Fatalf("recorded %d loops, want 1", len(loops))
	}
	loop := loops[0]
	// fig3-8 at scale 0.1: one environment × scaleInt(10,4)=4 traces,
	// six protocols per cell.
	if loop.Cells != 4 || loop.Units != 6 || loop.N != 24 {
		t.Errorf("loop plan = %d×%d over %d trials, want 4×6 over 24", loop.Cells, loop.Units, loop.N)
	}
}

// TestMergeShardsRejectsSubPlanMismatch asserts the two plan guards: a
// shard disagreeing with its peers on the plan, and a complete shard
// set whose plan does not match the decomposition the experiment
// declares (stale records from a build with a different split).
func TestMergeShardsRejectsSubPlanMismatch(t *testing.T) {
	cfg := Config{Scale: 0.1, Seed: 7}
	fixture := func() [][]*LoopPartial {
		var shards [][]*LoopPartial
		for _, shard := range parallel.NewShardPlan(2).Shards() {
			shards = append(shards, runShard(t, "fig3-8", cfg, shard))
		}
		return shards
	}

	disagree := fixture()
	disagree[1][0].Cells, disagree[1][0].Units = 6, 4
	if _, err := MergeShards("fig3-8", cfg, disagree); err == nil || !strings.Contains(err.Error(), "sub-trial plan") {
		t.Errorf("cross-shard plan disagreement accepted (err=%v)", err)
	}

	stale := fixture()
	for _, loops := range stale {
		loops[0].Cells, loops[0].Units = 0, 0
	}
	if _, err := MergeShards("fig3-8", cfg, stale); err == nil || !strings.Contains(err.Error(), "stale partials") {
		t.Errorf("plan-less partials for a sub-trial loop accepted (err=%v)", err)
	}
}

// TestSubTrialShardsSpread is the decomposition half of the issue's
// acceptance criterion: on a four-shard split (the four-worker fleet),
// every restructured heavy experiment must put real work on every
// shard, and the merge must stay byte-identical to the single-process
// run.
func TestSubTrialShardsSpread(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-experiment sweep")
	}
	const k = 4
	for _, id := range subTrialExperiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			exp, ok := ByID(id)
			if !ok {
				t.Fatalf("unknown experiment %q", id)
			}
			cfg := Config{Scale: 0.1, Seed: 42}
			want := referenceReport(exp, cfg.Scale, cfg.Seed)

			var shards [][]*LoopPartial
			busy := 0
			for _, shard := range parallel.NewShardPlan(k).Shards() {
				loops := runShard(t, id, cfg, shard)
				trials := 0
				for _, loop := range loops {
					trials += len(loop.Trials)
				}
				if trials > 0 {
					busy++
				}
				shards = append(shards, loops)
			}
			if busy < 2 {
				t.Fatalf("only %d of %d shards carried trials; the experiment does not spread", busy, k)
			}
			rep, err := MergeShards(id, cfg, shards)
			if err != nil {
				t.Fatalf("MergeShards: %v", err)
			}
			if got := rep.String(); got != want {
				t.Errorf("merged report differs from single-process run\n--- merged ---\n%s\n--- single ---\n%s", got, want)
			}
		})
	}
}
