package experiments

import (
	"encoding/json"
	"runtime"
	"sync"
	"testing"

	"repro/internal/parallel"
)

// TestReportsIdenticalAcrossWorkerCounts asserts the engine's hard
// invariant: for a fixed root seed, every experiment's rendered report —
// rows, series, notes and checks — is byte-identical whether its trials
// run serially or fan out across any number of workers. Per-trial seeds
// derive from the trial index and merges happen in trial order, so the
// scheduler must not be able to influence the output.
func TestReportsIdenticalAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	// Determinism needs scheduling diversity, not statistical power:
	// the smallest scale keeps the worker pool busy while the suite
	// stays fast.
	const scale = 0.1
	workerCounts := []int{4, 8, runtime.NumCPU()}
	if underRace {
		// One concurrent configuration suffices for the detector.
		workerCounts = []int{8}
	}
	// Dedup (NumCPU may equal an entry, or 1 on small machines): each
	// distinct worker count runs once.
	seen := map[int]bool{1: true}
	var counts []int
	for _, w := range workerCounts {
		if !seen[w] {
			seen[w] = true
			counts = append(counts, w)
		}
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			base := referenceReport(exp, scale, 42)
			for _, w := range counts {
				got := exp.Run(Config{Scale: scale, Seed: 42, Workers: w}).String()
				if got != base {
					t.Errorf("report differs between Workers=1 and Workers=%d:\n--- workers=1 ---\n%s\n--- workers=%d ---\n%s",
						w, base, w, got)
				}
			}
		})
	}
}

// TestReportsIdenticalAcrossShards is the golden shard-parity test: for
// every registered experiment, splitting the trial space into K shard
// worker runs, serializing each shard's loop records through the wire
// codec, and merging the deserialized records must reproduce the
// single-process report byte for byte — for every K, including shard
// counts that leave some shards empty.
func TestReportsIdenticalAcrossShards(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	const scale = 0.1
	shardCounts := []int{1, 2, 3, runtime.NumCPU()}
	if underRace {
		// One multi-shard configuration suffices for the detector.
		shardCounts = []int{3}
	}
	seen := map[int]bool{}
	var counts []int
	for _, k := range shardCounts {
		if !seen[k] {
			seen[k] = true
			counts = append(counts, k)
		}
	}
	for _, exp := range All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			cfg := Config{Scale: scale, Seed: 42}
			base := exp.Run(cfg).String()
			for _, k := range counts {
				shards := make([][]*LoopPartial, 0, k)
				for i := 0; i < k; i++ {
					shard := parallel.Shard{Index: i, Count: k}
					// Round-trip through JSON, as the loop records
					// travel on the wire: the parity guarantee must
					// survive serialize → deserialize.
					var loops []*LoopPartial
					for _, lp := range runShard(t, exp.ID, cfg, shard) {
						data, err := json.Marshal(lp)
						if err != nil {
							t.Fatalf("encode shard %v: %v", shard, err)
						}
						lp2 := new(LoopPartial)
						if err := json.Unmarshal(data, lp2); err != nil {
							t.Fatalf("decode shard %v: %v", shard, err)
						}
						loops = append(loops, lp2)
					}
					shards = append(shards, loops)
				}
				rep, err := MergeShards(exp.ID, cfg, shards)
				if err != nil {
					t.Fatalf("MergeShards K=%d: %v", k, err)
				}
				if got := rep.String(); got != base {
					t.Errorf("report differs between in-process and %d-shard merge:\n--- in-process ---\n%s\n--- %d shards ---\n%s",
						k, base, k, got)
				}
			}
		})
	}
}

// TestReportsDifferBySeed guards against an over-derived seed stream
// accidentally ignoring the root: different seeds must produce different
// reports for the stochastic experiments.
func TestReportsDifferBySeed(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	exp, ok := ByID("table5-1")
	if !ok {
		t.Fatal("table5-1 not registered")
	}
	a := exp.Run(Config{Scale: 0.1, Seed: 42}).String()
	b := exp.Run(Config{Scale: 0.1, Seed: 43}).String()
	if a == b {
		t.Fatal("reports for different seeds are identical")
	}
}

// refKey names one reference report.
type refKey struct {
	id    string
	scale float64
	seed  int64
}

// references maps each refKey asked for so far to a sync.OnceValue
// that computes its report.
var references sync.Map

// referenceReport returns exp's single-process report at Workers: 1 for
// (scale, seed), the reference the other execution modes in this
// package are compared with. It is computed once per (id, scale, seed)
// for the whole package rather than once per test; a run under test is
// never memoized.
func referenceReport(exp Runner, scale float64, seed int64) string {
	report, _ := references.LoadOrStore(refKey{exp.ID, scale, seed}, sync.OnceValue(func() string {
		return exp.Run(Config{Scale: scale, Seed: seed, Workers: 1}).String()
	}))
	return report.(func() string)()
}
