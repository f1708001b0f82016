package experiments

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"repro/internal/parallel"
)

var errSinkClosed = errors.New("sink closed")

// shardFixture collects the partials of a fast experiment split K ways.
func shardFixture(t *testing.T, k int) []*Partial {
	t.Helper()
	cfg := Config{Scale: 0.1, Seed: 7}
	parts := make([]*Partial, 0, k)
	for _, shard := range parallel.NewShardPlan(k).Shards() {
		p, err := RunShard("sec5-3", cfg, shard)
		if err != nil {
			t.Fatalf("RunShard %v: %v", shard, err)
		}
		parts = append(parts, p)
	}
	return parts
}

func TestRunShardRejectsBadInput(t *testing.T) {
	if _, err := RunShard("no-such-experiment", Config{}, parallel.Shard{Index: 0, Count: 1}); err == nil {
		t.Error("unknown experiment accepted")
	}
	if _, err := RunShard("sec5-3", Config{}, parallel.Shard{Index: 3, Count: 2}); err == nil {
		t.Error("invalid shard accepted")
	}
}

func TestMergeShardsValidation(t *testing.T) {
	parts := shardFixture(t, 3)

	if _, err := MergeShards(nil, 0); err == nil {
		t.Error("empty partial set accepted")
	}
	if _, err := MergeShards(parts[:2], 0); err == nil {
		t.Error("incomplete shard set accepted")
	}
	if _, err := MergeShards([]*Partial{parts[0], parts[1], parts[1]}, 0); err == nil {
		t.Error("duplicate shard accepted")
	}

	seedMismatch := shardFixture(t, 3)
	seedMismatch[1].Seed = 99
	if _, err := MergeShards(seedMismatch, 0); err == nil || !strings.Contains(err.Error(), "seed") {
		t.Errorf("seed mismatch accepted (err=%v)", err)
	}

	versionMismatch := shardFixture(t, 3)
	versionMismatch[2].Version = PartialVersion + 1
	if _, err := MergeShards(versionMismatch, 0); err == nil {
		t.Error("version mismatch accepted")
	}

	corrupt := shardFixture(t, 1)
	for name := range corrupt[0].Loops[0].Trials[0].Accs {
		corrupt[0].Loops[0].Trials[0].Accs[name] = []byte{0xff, 0xff}
	}
	if _, err := MergeShards(corrupt, 0); err == nil {
		t.Error("corrupted collector payload accepted")
	}

	renamed := shardFixture(t, 1)
	renamed[0].Experiment = "no-such-experiment"
	if _, err := MergeShards(renamed, 0); err == nil {
		t.Error("unknown experiment accepted at merge")
	}

	// Partials whose loop structure matches no current build of the
	// experiment (e.g. recorded by an older binary) must fail with an
	// error, not crash the coordinator.
	stale := shardFixture(t, 1)
	stale[0].Loops[0].Label = "sec5-3/renamed-by-old-build"
	if _, err := MergeShards(stale, 0); err == nil || !strings.Contains(err.Error(), "stale partials") {
		t.Errorf("stale loop structure accepted (err=%v)", err)
	}
}

// TestShardWorkerSkipsFinish asserts the worker contract: a collect-mode
// run returns no report (the partial is the product) and records one
// loop per cfg.trials call with the plan's slice of each.
func TestShardWorkerSkipsFinish(t *testing.T) {
	cfg := Config{Scale: 0.1, Seed: 7}
	p, err := RunShard("fig3-1", cfg, parallel.Shard{Index: 1, Count: 2})
	if err != nil {
		t.Fatalf("RunShard: %v", err)
	}
	if len(p.Loops) != 1 {
		t.Fatalf("recorded %d loops, want 1", len(p.Loops))
	}
	loop := p.Loops[0]
	if loop.Label != "fig3-1" || loop.N != 2 || loop.Lo != 1 || len(loop.Trials) != 1 {
		t.Errorf("loop = %q n=%d lo=%d trials=%d, want fig3-1 n=2 lo=1 trials=1",
			loop.Label, loop.N, loop.Lo, len(loop.Trials))
	}
}

// TestRunShardStreamDeliversLoopsIncrementally asserts the streaming
// contract: the sink receives the shard's loop records in execution
// order, and a Partial assembled from the streamed records (the
// coordinator's job) is byte-identical to RunShard's.
func TestRunShardStreamDeliversLoopsIncrementally(t *testing.T) {
	cfg := Config{Scale: 0.1, Seed: 7}
	shard := parallel.Shard{Index: 0, Count: 2}
	var streamed []*LoopPartial
	err := RunShardStream("sec5-3", cfg, shard, func(lp *LoopPartial) error {
		streamed = append(streamed, lp)
		return nil
	})
	if err != nil {
		t.Fatalf("RunShardStream: %v", err)
	}
	if len(streamed) == 0 {
		t.Fatal("sink never called")
	}
	assembled := &Partial{
		Version:    PartialVersion,
		Experiment: "sec5-3",
		Shard:      shard.Index,
		Shards:     shard.Count,
		Seed:       cfg.Seed,
		Scale:      cfg.Scale,
		Loops:      streamed,
	}
	direct, err := RunShard("sec5-3", cfg, shard)
	if err != nil {
		t.Fatal(err)
	}
	a, err := json.Marshal(assembled)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Fatal("streamed partial differs from RunShard partial")
	}
}

// TestRunShardStreamSinkErrorAborts asserts that a broken sink stops the
// run at the loop boundary and surfaces the sink's error instead of
// computing trials nobody can receive; a missing sink is refused.
func TestRunShardStreamSinkErrorAborts(t *testing.T) {
	cfg := Config{Scale: 0.1, Seed: 7}
	shard := parallel.Shard{Index: 0, Count: 1}
	calls := 0
	err := RunShardStream("sec5-3", cfg, shard, func(*LoopPartial) error {
		calls++
		return errSinkClosed
	})
	if err == nil {
		t.Fatal("RunShardStream with a failing sink succeeded")
	}
	if calls != 1 {
		t.Fatalf("sink called %d times after failing, want 1", calls)
	}
	if !strings.Contains(err.Error(), errSinkClosed.Error()) {
		t.Fatalf("error %q does not carry the sink error", err)
	}
	if err := RunShardStream("sec5-3", cfg, shard, nil); err == nil {
		t.Fatal("nil sink accepted")
	}
}
