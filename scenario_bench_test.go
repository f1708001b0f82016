// Scenario-engine benchmarks: the registered city-scale run at paper
// scale (1024 APs, 100,000 clients), the idle-link sweep that pins the
// cost-follows-events claim, and the timer-wheel scheduling hot path.
// `make bench` records them to BENCH_scenario.json; `make bench-check`
// gates regressions.
package sensorhints_test

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/scenario"
	"repro/internal/sim"
)

// BenchmarkScenarioCity runs the full registered city-grid experiment at
// scale 1 — one 32×32-AP city with 100,000 roaming clients for 40
// simulated seconds, sharded over client chunks — and reports simulated
// events per wall-clock second and heap allocations per event.
func BenchmarkScenarioCity(b *testing.B) {
	exp, ok := experiments.ByID("city-grid")
	if !ok {
		b.Fatal("city-grid not registered")
	}
	b.ReportAllocs()
	var rep *experiments.Report
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start := time.Now()
	for i := 0; i < b.N; i++ {
		rep = exp.Run(experiments.Config{Scale: 1, Seed: 42})
	}
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	if fails := rep.Failed(); len(fails) > 0 {
		b.Fatalf("shape checks failed: %v", fails)
	}
	var events float64
	for _, row := range rep.Rows {
		if row.Label == "packet events" {
			events = row.Values[0]
		}
	}
	if events == 0 {
		b.Fatal("no packet events reported")
	}
	b.ReportMetric(events*float64(b.N)/elapsed.Seconds(), "events_per_s")
	b.ReportMetric(events, "events")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/(events*float64(b.N)), "allocs_per_event")
}

// BenchmarkScenarioIdle is the idle-link sweep: the same population and
// traffic dropped into ever larger cities (16× the APs and area from
// first to last). Event-driven cost must track traffic, not city size —
// ns/op stays near-flat and the events metric is identical across
// sub-benchmarks.
func BenchmarkScenarioIdle(b *testing.B) {
	for _, side := range []int{8, 16, 32} {
		b.Run(fmt.Sprintf("aps=%d", side*side), func(b *testing.B) {
			sc := scenario.Scenario{
				Name: "idle-sweep",
				Grid: scenario.APGrid{Side: side, Spacing: 170},
				Herds: []scenario.Herd{{
					Name: "walkers", Clients: 2000,
					Mobility: scenario.MobilityProfile{SpeedMps: 1.4, SpeedJitter: 0.3, MeanSegment: 80},
					Traffic:  scenario.TrafficMix{{Name: "web", Bytes: 1000, Interval: 250 * time.Millisecond}},
				}},
				Duration: 10 * time.Second,
				Seed:     42,
			}
			var res scenario.Result
			for i := 0; i < b.N; i++ {
				res = scenario.Run(sc)
			}
			b.ReportMetric(float64(res.Events), "events")
			b.ReportMetric(float64(res.APs), "aps")
		})
	}
}

// BenchmarkTimerWheel measures the event engine's scheduling hot path —
// a reschedule-heavy MAC-timer workload — on both backends. The wheel's
// ns/op must not regress against its recorded trajectory; the heap
// sub-benchmark is the comparison baseline.
func BenchmarkTimerWheel(b *testing.B) {
	const nodes = 1024
	run := func(b *testing.B, eng *sim.Engine) {
		b.Helper()
		evs := make([]*sim.Event, nodes)
		for i := 0; i < nodes; i++ {
			evs[i] = eng.At(time.Duration(i)*time.Microsecond, func() {})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			j := i % nodes
			evs[j] = eng.Reschedule(evs[j], eng.Now()+time.Duration(nodes+i%97)*time.Microsecond)
			if i%4 == 0 {
				eng.Step()
			}
		}
	}
	b.Run("wheel", func(b *testing.B) { run(b, sim.NewWheel(10*time.Microsecond, 4096)) })
	b.Run("heap", func(b *testing.B) { run(b, sim.New()) })
}
