package cluster_test

import (
	"testing"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/experiments"
)

// FuzzAdmit feeds arbitrary job spec text through the coordinator's
// front door — campaign.ParseJob, then admission's per-job check — and
// asserts that nothing panics and that every job admission accepts
// names a registered experiment and asks for 1 to MaxShards shards, so
// admitting it sizes per-shard state within the cap.
func FuzzAdmit(f *testing.F) {
	for _, spec := range []string{
		"fig4-6",
		"fig3-7:shards=4",
		"sec5-1:scale=0.5:seed=7:shards=4096",
		"fig4-6:shards=1073741824",
		"fig2-2:shards=4097",
		"fig3-1:shards=0",
		"fig3-1:scale=NaN",
		"no-such:shards=2",
		":::",
		"",
	} {
		f.Add(spec)
	}
	def := cluster.Job{Scale: 1, Seed: 42, Shards: 4}
	f.Fuzz(func(t *testing.T, spec string) {
		j, err := campaign.ParseJob(spec, def)
		if err != nil {
			return
		}
		if cluster.CheckJob(j) != nil {
			return
		}
		if _, ok := experiments.ByID(j.Experiment); !ok {
			t.Fatalf("admitted %q: unknown experiment %q", spec, j.Experiment)
		}
		if j.Shards < 1 || j.Shards > cluster.MaxShards {
			t.Fatalf("admitted %q with %d shards, outside [1, %d]", spec, j.Shards, cluster.MaxShards)
		}
	})
}
