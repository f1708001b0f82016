package cluster

import (
	"math"
	"strings"
	"testing"
)

// TestParseJob pins the spec grammar, and that a spec ends with
// admission's own check: a spec over the shard cap is refused while
// parsing, before any fleet starts.
func TestParseJob(t *testing.T) {
	def := Job{Scale: 1, Seed: 42, Shards: 4}
	good := []struct {
		spec string
		want Job
	}{
		{"fig3-1", Job{Experiment: "fig3-1", Scale: 1, Seed: 42, Shards: 4}},
		{"fig3-1:scale=0.2", Job{Experiment: "fig3-1", Scale: 0.2, Seed: 42, Shards: 4}},
		{"fig3-1:scale=0.2:seed=7:shards=9", Job{Experiment: "fig3-1", Scale: 0.2, Seed: 7, Shards: 9}},
		{"  fig2-2:seed=-3  ", Job{Experiment: "fig2-2", Scale: 1, Seed: -3, Shards: 4}},
		{"fig3-1:shards=4096", Job{Experiment: "fig3-1", Scale: 1, Seed: 42, Shards: MaxShards}},
	}
	for _, c := range good {
		got, err := ParseJob(c.spec, def)
		if err != nil {
			t.Errorf("ParseJob(%q): %v", c.spec, err)
			continue
		}
		if got != c.want {
			t.Errorf("ParseJob(%q) = %+v, want %+v", c.spec, got, c.want)
		}
	}
	bad := []struct{ spec, want string }{
		{"", "names no experiment"},
		{"no-such-exp", "unknown experiment"},
		{"fig3-1:scale", "malformed option"},
		{"fig3-1:scale=0", "invalid scale"},
		{"fig3-1:scale=-1", "invalid scale"},
		{"fig2-2:scale=NaN", "invalid scale"},
		{"fig2-2:scale=Inf", "invalid scale"},
		{"fig2-2:scale=-Inf", "invalid scale"},
		{"fig2-2:scale=1e400", "invalid scale"},
		{"fig3-1:seed=x", "invalid seed"},
		{"fig3-1:shards=0", "invalid shard count"},
		{"fig3-1:shards=4097", "above the cap of 4096"},
		{"fig3-1:flux=9", "unknown option"},
		{"fig3-1:shards=2:bogus=1", "unknown option"},
	}
	for _, c := range bad {
		if _, err := ParseJob(c.spec, def); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("ParseJob(%q) error %v, want mention of %q", c.spec, err, c.want)
		}
	}
	if _, err := ParseJob("fig3-1", Job{Scale: 1, Seed: 42}); err == nil || !strings.Contains(err.Error(), "no shard count") {
		t.Errorf("spec without any shard count accepted: %v", err)
	}
	// A -scale default that is not positive and finite is refused like a
	// bad scale= option; an explicit option overrides it.
	for _, scale := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, -1} {
		if _, err := ParseJob("fig3-1", Job{Scale: scale, Seed: 42, Shards: 4}); err == nil || !strings.Contains(err.Error(), "invalid scale") {
			t.Errorf("default scale %g accepted: %v", scale, err)
		}
		if _, err := ParseJob("fig3-1:scale=0.5", Job{Scale: scale, Seed: 42, Shards: 4}); err != nil {
			t.Errorf("scale=0.5 over default %g: %v", scale, err)
		}
	}
}

// TestReadJobs pins the job-file form: comments, blanks, defaults, and
// line numbers in errors.
func TestReadJobs(t *testing.T) {
	def := Job{Scale: 1, Seed: 42, Shards: 4}
	in := `# campaign for the full figure set
fig2-2
fig3-1:scale=0.2   # faster

fig2-2:seed=7:shards=2
`
	jobs, err := ReadJobs(strings.NewReader(in), def)
	if err != nil {
		t.Fatalf("ReadJobs: %v", err)
	}
	want := []Job{
		{Experiment: "fig2-2", Scale: 1, Seed: 42, Shards: 4},
		{Experiment: "fig3-1", Scale: 0.2, Seed: 42, Shards: 4},
		{Experiment: "fig2-2", Scale: 1, Seed: 7, Shards: 2},
	}
	if len(jobs) != len(want) {
		t.Fatalf("got %d jobs, want %d", len(jobs), len(want))
	}
	for i := range want {
		if jobs[i] != want[i] {
			t.Errorf("job %d = %+v, want %+v", i, jobs[i], want[i])
		}
	}
	if _, err := ReadJobs(strings.NewReader("fig2-2\nnot-an-experiment\n"), def); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("bad line not located: %v", err)
	}
}
