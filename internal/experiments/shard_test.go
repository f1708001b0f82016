package experiments

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/parallel"
)

var errSinkClosed = errors.New("sink closed")

// runShard collects the loop records RunShardStream emits for one
// shard, in execution order: what a coordinator holds for the shard
// once it is done.
func runShard(t *testing.T, id string, cfg Config, shard parallel.Shard) []*LoopPartial {
	t.Helper()
	var loops []*LoopPartial
	err := RunShardStream(id, cfg, shard, func(lp *LoopPartial) error {
		loops = append(loops, lp)
		return nil
	})
	if err != nil {
		t.Fatalf("RunShardStream %s %v: %v", id, shard, err)
	}
	return loops
}

// shardFixture collects the records of a fast experiment split K ways,
// indexed by shard.
func shardFixture(t *testing.T, k int) [][]*LoopPartial {
	t.Helper()
	shards := make([][]*LoopPartial, 0, k)
	for i := 0; i < k; i++ {
		shards = append(shards, runShard(t, "sec5-3", fixtureCfg, parallel.Shard{Index: i, Count: k}))
	}
	return shards
}

var fixtureCfg = Config{Scale: 0.1, Seed: 7}

func TestRunShardRejectsBadInput(t *testing.T) {
	sink := func(*LoopPartial) error { return nil }
	if err := RunShardStream("no-such-experiment", Config{}, parallel.Shard{Index: 0, Count: 1}, sink); err == nil {
		t.Error("unknown experiment accepted")
	}
	if err := RunShardStream("sec5-3", Config{}, parallel.Shard{Index: 3, Count: 2}, sink); err == nil {
		t.Error("invalid shard accepted")
	}
}

// TestMergeShardsValidation: every loop-structure check refuses its
// mismatch with an error, never a wrong report or a crash.
func TestMergeShardsValidation(t *testing.T) {
	shards := shardFixture(t, 3)
	merge := func(shards [][]*LoopPartial) error {
		_, err := MergeShards("sec5-3", fixtureCfg, shards)
		return err
	}

	if err := merge(nil); err == nil {
		t.Error("empty shard set accepted")
	}
	if err := merge(shards[:2]); err == nil {
		t.Error("incomplete shard set accepted")
	}
	if err := merge([][]*LoopPartial{shards[0], shards[1], shards[1]}); err == nil {
		t.Error("duplicate shard accepted")
	}
	if err := merge([][]*LoopPartial{shards[0], shards[2], shards[1]}); err == nil {
		t.Error("shards out of index order accepted")
	}
	if err := merge([][]*LoopPartial{shards[0], shards[1], shards[2][:len(shards[2])-1]}); err == nil || !strings.Contains(err.Error(), "trial loops") {
		t.Errorf("shard missing a loop accepted (err=%v)", err)
	}

	relabelled := shardFixture(t, 3)
	relabelled[1][0] = &LoopPartial{Label: "other", N: relabelled[1][0].N, Lo: relabelled[1][0].Lo, Trials: relabelled[1][0].Trials}
	if err := merge(relabelled); err == nil {
		t.Error("shards disagreeing on a loop's label accepted")
	}

	corrupt := shardFixture(t, 1)
	for name := range corrupt[0][0].Trials[0].Accs {
		corrupt[0][0].Trials[0].Accs[name] = []byte{0xff, 0xff}
	}
	if err := merge(corrupt); err == nil {
		t.Error("corrupted collector payload accepted")
	}

	if _, err := MergeShards("no-such-experiment", fixtureCfg, shardFixture(t, 1)); err == nil {
		t.Error("unknown experiment accepted at merge")
	}

	// Records whose loop structure matches no current build of the
	// experiment (e.g. recorded by an older binary) must fail with an
	// error, not crash the coordinator.
	stale := shardFixture(t, 1)
	stale[0][0].Label = "sec5-3/renamed-by-old-build"
	if err := merge(stale); err == nil || !strings.Contains(err.Error(), "stale partials") {
		t.Errorf("stale loop structure accepted (err=%v)", err)
	}
}

// TestShardWorkerSkipsFinish asserts the worker contract: a collect-mode
// run returns no report (the loop records are the product) and records
// one loop per cfg.trials call with the shard's slice of each.
func TestShardWorkerSkipsFinish(t *testing.T) {
	loops := runShard(t, "fig3-1", Config{Scale: 0.1, Seed: 7}, parallel.Shard{Index: 1, Count: 2})
	if len(loops) != 1 {
		t.Fatalf("recorded %d loops, want 1", len(loops))
	}
	loop := loops[0]
	if loop.Label != "fig3-1" || loop.N != 2 || loop.Lo != 1 || len(loop.Trials) != 1 {
		t.Errorf("loop = %q n=%d lo=%d trials=%d, want fig3-1 n=2 lo=1 trials=1",
			loop.Label, loop.N, loop.Lo, len(loop.Trials))
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
