package cluster

import "testing"

// subTrialExperiments are the heavy runners: fig3's comparisons run one
// trial per (environment, trace) cell (twelve each at scale 0.1), and
// fig4's timeline figures one trial per curve (four each), so all of
// them spread across a fleet. The generic golden tests already sweep
// them as part of the registry; the tests here pin real multi-shard
// dispatch on a four-worker fleet, and byte-identity surviving a worker
// killed while holding one shard of them.
var subTrialExperiments = []string{"fig3-5", "fig3-6", "fig3-7", "fig4-4", "fig4-5", "fig4-6"}

// TestSubTrialExperimentsSpreadAcrossFleet: each heavy experiment, run
// over a four-worker in-process fleet with four shards, must dispatch
// more than one shard and still reproduce the single-process report
// byte for byte.
func TestSubTrialExperimentsSpreadAcrossFleet(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	for _, id := range subTrialExperiments {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			base := referenceReport(t, id, 0.1, 42)
			rep, stats := clusterRun(t, "inproc", id, 4, 4, false)
			if got := rep.String(); got != base {
				t.Errorf("report differs from single-process run on a 4-worker fleet:\n--- single ---\n%s\n--- cluster ---\n%s", base, got)
			}
			if stats.Assigned < 2 {
				t.Errorf("%s dispatched %d shard assignments on a 4-worker fleet; its trials are not spreading", id, stats.Assigned)
			}
		})
	}
}

// TestSubTrialReportsIdenticalWithWorkerKilledMidSubTrial: a worker
// dies holding one shard of a heavy experiment (assignment received,
// never answered) on every transport; the shard is re-dispatched and
// the report must not drift by a byte — the regenerate-and-replay
// recovery path costs wall clock only.
func TestSubTrialReportsIdenticalWithWorkerKilledMidSubTrial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	transports := []string{"inproc", "tcp"}
	if underRace {
		transports = []string{"inproc"}
	}
	// One protocol-grid experiment and one per-curve tracker loop cover
	// both shapes; the registry-wide kill test sweeps the rest.
	for _, id := range []string{"fig3-7", "fig4-6"} {
		id := id
		t.Run(id, func(t *testing.T) {
			t.Parallel()
			base := referenceReport(t, id, 0.1, 42)
			for _, transport := range transports {
				rep, stats := clusterRun(t, transport, id, 4, 4, true)
				if got := rep.String(); got != base {
					t.Errorf("report differs after mid-shard kill via %s:\n--- single ---\n%s\n--- cluster ---\n%s",
						transport, base, got)
				}
				if stats.Requeued+stats.Stolen < 1 {
					t.Errorf("%s: killed worker's shard was neither requeued nor stolen (stats %+v)", transport, stats)
				}
			}
		})
	}
}
