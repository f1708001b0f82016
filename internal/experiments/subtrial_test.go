package experiments

import (
	"testing"

	"repro/internal/parallel"
)

// subTrialExperiments are the heavy runners whose trials must spread
// across shards: fig3's comparisons, one trial per (environment,
// trace) cell, and fig4's timeline figures, one trial per curve.
var subTrialExperiments = []string{"fig3-5", "fig3-6", "fig3-7", "fig3-8", "fig4-4", "fig4-5", "fig4-6"}

// TestRateComparisonRunsOneTrialPerTrace pins fig3's loop shape: one
// trial per (environment, trace) cell, each replaying every protocol
// of protoSet over its trace into that protocol's accumulator.
func TestRateComparisonRunsOneTrialPerTrace(t *testing.T) {
	loops := runShard(t, "fig3-8", Config{Scale: 0.1, Seed: 7}, parallel.Shard{Index: 0, Count: 1})
	if len(loops) != 1 {
		t.Fatalf("recorded %d loops, want 1", len(loops))
	}
	// fig3-8 at scale 0.1: one environment × scaleInt(10,4)=4 traces.
	loop := loops[0]
	if loop.N != 4 || loop.Lo != 0 || len(loop.Trials) != 4 {
		t.Fatalf("loop n=%d lo=%d trials=%d, want n=4 lo=0 trials=4", loop.N, loop.Lo, len(loop.Trials))
	}
	for i, tp := range loop.Trials {
		if len(tp.Accs) != len(protoSet) || len(tp.Hists) != 0 || len(tp.Series) != 0 {
			t.Errorf("trial %d carries %d accumulators, %d histograms, %d series; want %d accumulators only",
				i, len(tp.Accs), len(tp.Hists), len(tp.Series), len(protoSet))
		}
		for _, p := range protoSet {
			if _, ok := tp.Accs["vehicular/"+p]; !ok {
				t.Errorf("trial %d has no vehicular/%s accumulator", i, p)
			}
		}
	}
}

// TestSubTrialShardsSpread: on a four-shard split (the four-worker
// fleet), every heavy experiment must put real work on more than one
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
			for i := 0; i < k; i++ {
				loops := runShard(t, id, cfg, parallel.Shard{Index: i, Count: k})
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
