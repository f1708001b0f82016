package cluster

import (
	"runtime"
	"sync"
	"testing"

	"repro/internal/experiments"
)

// TestReportsIdenticalAcrossTransportsAndWorkers is the cluster
// runtime's golden test, extending the engine's determinism contract to
// its final form: for every registered experiment, running through the
// work-stealing coordinator must reproduce the single-process report
// byte for byte across both transports {in-process, TCP} ×
// worker count {2, NumCPU} — with the shard queue deliberately longer
// than the worker pool so assignment order, steal decisions, and
// speculative duplicates all vary run to run. Nothing but wall-clock
// may depend on any of it. Other fleet sizes vary only the schedule,
// which TestScheduleSimulation explores for 1–4 workers.
func TestReportsIdenticalAcrossTransportsAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	transports := []string{"inproc", "tcp"}
	workerCounts := []int{2, runtime.NumCPU()}
	if underRace {
		// One concurrent configuration per transport suffices for the
		// detector.
		workerCounts = []int{2}
	}
	seen := map[int]bool{}
	var counts []int
	for _, w := range workerCounts {
		if !seen[w] {
			seen[w] = true
			counts = append(counts, w)
		}
	}
	for _, exp := range experiments.All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			base := referenceReport(t, exp.ID, 0.1, 42)
			for _, workers := range counts {
				// More shards than workers: the queue is always deep
				// enough that work-stealing and dynamic assignment have
				// room to happen.
				shards := 2*workers + 1
				for _, transport := range transports {
					rep, _ := clusterRun(t, transport, exp.ID, workers, shards, false)
					if got := rep.String(); got != base {
						t.Errorf("report differs from single-process run via %s with %d workers, %d shards:\n--- single ---\n%s\n--- cluster ---\n%s",
							transport, workers, shards, base, got)
					}
				}
			}
		})
	}
}

// TestReportsIdenticalWithWorkerKilledMidShard completes the golden
// matrix's failure leg: one worker dies mid-shard (assignment received,
// never answered) on every transport, its shard is stolen back and
// re-dispatched, and the report still must not drift by a byte.
func TestReportsIdenticalWithWorkerKilledMidShard(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	transports := []string{"inproc", "tcp"}
	if underRace {
		transports = []string{"inproc"}
	}
	for _, exp := range experiments.All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			base := referenceReport(t, exp.ID, 0.1, 42)
			for _, transport := range transports {
				rep, stats := clusterRun(t, transport, exp.ID, 2, 5, true)
				if got := rep.String(); got != base {
					t.Errorf("report differs after mid-shard kill via %s:\n--- single ---\n%s\n--- cluster ---\n%s",
						transport, base, got)
				}
				// The orphaned shard is recovered one of two ways: requeued
				// after the death is observed, or already stolen by a
				// worker that drained the queue first.
				if stats.Requeued+stats.Stolen < 1 {
					t.Errorf("%s: killed worker's shard was neither requeued nor stolen (stats %+v)", transport, stats)
				}
			}
		})
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

// referenceReport returns experiment id's single-process report at
// Workers: 1 for (scale, seed), the reference every fleet run in this
// package is compared with. It is computed once per (id, scale, seed)
// for the whole package rather than once per test; a run under test is
// never memoized.
func referenceReport(t testing.TB, id string, scale float64, seed int64) string {
	t.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		t.Fatalf("unknown experiment %q", id)
	}
	report, _ := references.LoadOrStore(refKey{id, scale, seed}, sync.OnceValue(func() string {
		return exp.Run(experiments.Config{Scale: scale, Seed: seed, Workers: 1}).String()
	}))
	return report.(func() string)()
}
