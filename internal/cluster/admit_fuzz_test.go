package cluster_test

import (
	"math"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
)

// FuzzAdmit feeds arbitrary job spec text through the coordinator's
// front door, cluster.ParseJob, which ends with admission's own check,
// and asserts that nothing panics and that every job it accepts names a
// registered experiment, has a positive finite scale (so its Assign
// encodes and it does not silently run at paper scale) and asks for 1
// to MaxShards shards, so admitting it sizes per-shard state within the
// cap.
func FuzzAdmit(f *testing.F) {
	for _, spec := range []string{
		"fig4-6",
		"fig3-7:shards=4",
		"sec5-1:scale=0.5:seed=7:shards=4096",
		"fig4-6:shards=1073741824",
		"fig2-2:shards=4097",
		"fig3-1:shards=0",
		"fig3-1:scale=NaN",
		"fig3-1:scale=0",
		"fig3-1:scale=-1",
		"no-such:shards=2",
		":::",
		"",
	} {
		f.Add(spec)
	}
	def := cluster.Job{Scale: 1, Seed: 42, Shards: 4}
	f.Fuzz(func(t *testing.T, spec string) {
		j, err := cluster.ParseJob(spec, def)
		if err != nil {
			return
		}
		if _, ok := experiments.ByID(j.Experiment); !ok {
			t.Fatalf("admitted %q: unknown experiment %q", spec, j.Experiment)
		}
		if !(j.Scale > 0 && j.Scale <= math.MaxFloat64) {
			t.Fatalf("admitted %q with scale %g", spec, j.Scale)
		}
		if j.Shards < 1 || j.Shards > cluster.MaxShards {
			t.Fatalf("admitted %q with %d shards, outside [1, %d]", spec, j.Shards, cluster.MaxShards)
		}
	})
}
