// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation. Each benchmark runs the corresponding experiment at a
// scale controlled by -benchtime iterations (every iteration is a full
// reduced-scale reproduction) and reports the experiment's headline
// numbers via b.ReportMetric, so `go test -bench=.` regenerates the
// paper's results table by table.
//
// Ablation benchmarks for the design choices called out in DESIGN.md
// follow the figure benchmarks, and micro-benchmarks for the hot paths
// close the file.
package sensorhints_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/hints"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/probing"
	"repro/internal/rate"
	"repro/internal/ratesim"
	"repro/internal/sensors"
	"repro/internal/vehicular"
)

// benchScale keeps full `go test -bench=.` runs tractable while
// preserving every experiment's shape.
const benchScale = 0.25

// runExperiment is the common driver: run the experiment, fail the bench
// on any shape-check violation, and surface each check as a metric
// (1 = pass).
func runExperiment(b *testing.B, id string) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	// The seed is fixed so auto-scaled iterations re-run the identical
	// configuration: the benchmark measures cost, the checks assert the
	// deterministic shape.
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = exp.Run(experiments.Config{Scale: benchScale, Seed: 42})
	}
	for _, c := range rep.Checks {
		v := 0.0
		if c.OK {
			v = 1
		}
		b.ReportMetric(v, c.Name+"(ok)")
	}
	if fails := rep.Failed(); len(fails) > 0 {
		b.Fatalf("shape checks failed: %v", fails)
	}
	// Headline rows become metrics.
	for _, row := range rep.Rows {
		if len(row.Values) > 0 {
			b.ReportMetric(row.Values[0], sanitize(row.Label))
		}
	}
}

func sanitize(s string) string {
	out := make([]rune, 0, len(s))
	for _, r := range s {
		switch {
		case r == ' ' || r == '/':
			out = append(out, '_')
		case r == '%':
			out = append(out, 'p')
		default:
			out = append(out, r)
		}
	}
	return string(out)
}

// --- one benchmark per table and figure ---

func BenchmarkFig2_2_Jerk(b *testing.B)               { runExperiment(b, "fig2-2") }
func BenchmarkFig3_1_ConditionalLoss(b *testing.B)    { runExperiment(b, "fig3-1") }
func BenchmarkFig3_5_HintAwareMixed(b *testing.B)     { runExperiment(b, "fig3-5") }
func BenchmarkFig3_6_Mobile(b *testing.B)             { runExperiment(b, "fig3-6") }
func BenchmarkFig3_7_Static(b *testing.B)             { runExperiment(b, "fig3-7") }
func BenchmarkFig3_8_Vehicular(b *testing.B)          { runExperiment(b, "fig3-8") }
func BenchmarkFig4_1_DeliveryVsMovement(b *testing.B) { runExperiment(b, "fig4-1") }
func BenchmarkFig4_2_StaticProbeError(b *testing.B)   { runExperiment(b, "fig4-2") }
func BenchmarkFig4_3_MobileProbeError(b *testing.B)   { runExperiment(b, "fig4-3") }
func BenchmarkFig4_4_5_TrackingStatic(b *testing.B)   { runExperiment(b, "fig4-4") }
func BenchmarkFig4_4_5_TrackingMobile(b *testing.B)   { runExperiment(b, "fig4-5") }
func BenchmarkFig4_6_AdaptiveProbing(b *testing.B)    { runExperiment(b, "fig4-6") }
func BenchmarkSec4_2_ETXPenalty(b *testing.B)         { runExperiment(b, "sec4-2") }
func BenchmarkTable5_1_LinkDuration(b *testing.B)     { runExperiment(b, "table5-1") }
func BenchmarkSec5_1_RouteStability(b *testing.B)     { runExperiment(b, "sec5-1") }
func BenchmarkFig5_1_APPruning(b *testing.B)          { runExperiment(b, "fig5-1") }
func BenchmarkSec5_2_APPolicies(b *testing.B)         { runExperiment(b, "sec5-2") }
func BenchmarkSec5_3_GuardInterval(b *testing.B)      { runExperiment(b, "sec5-3") }
func BenchmarkSec5_4_PowerSaving(b *testing.B)        { runExperiment(b, "sec5-4") }
func BenchmarkSec5_6_MicrophoneHint(b *testing.B)     { runExperiment(b, "sec5-6") }

// --- parallel trial-engine benchmarks ---
//
// Each benchmark runs one fan-out-heavy experiment at several worker
// counts; comparing ns/op across the workers=N sub-benchmarks gives the
// engine's wall-clock speedup (near-linear until the trial count or the
// CPU count binds). The shape checks still run in every configuration,
// and since reports are bit-identical for any worker count, every
// sub-benchmark asserts the same results.

// benchWorkers runs an experiment at a fixed worker count, failing on
// any shape-check violation.
func benchWorkers(b *testing.B, id string, workers int) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	var rep *experiments.Report
	for i := 0; i < b.N; i++ {
		rep = exp.Run(experiments.Config{Scale: benchScale, Seed: 42, Workers: workers})
	}
	if fails := rep.Failed(); len(fails) > 0 {
		b.Fatalf("shape checks failed: %v", fails)
	}
}

// parallelWorkerCounts is the sweep shared by the speedup benchmarks.
var parallelWorkerCounts = []int{1, 2, 4, 8}

func BenchmarkParallelTable5_1_Vehicular(b *testing.B) {
	for _, w := range parallelWorkerCounts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchWorkers(b, "table5-1", w) })
	}
}

func BenchmarkParallelFig4_3_Probing(b *testing.B) {
	for _, w := range parallelWorkerCounts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchWorkers(b, "fig4-3", w) })
	}
}

func BenchmarkParallelFig3_8_Rate(b *testing.B) {
	for _, w := range parallelWorkerCounts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchWorkers(b, "fig3-8", w) })
	}
}

// --- fleet benchmarks: heavy experiments across a cluster ---
//
// The BenchmarkFleet* family measures figure-level wall clock for the
// heavy experiments: workers=1 is the plain serial run, workers=N
// dispatches N shards of the experiment's trial loops to an N-worker
// in-process fleet. benchjson derives the fleet speedups from
// the workers=N sub-benchmarks exactly as for the BenchmarkParallel*
// family; BENCH_figures.json records them.

// benchFleet runs one experiment either serially (workers=1) or over an
// in-process fleet with one shard per worker, checking that the report
// stays stable across iterations.
func benchFleet(b *testing.B, id string, workers int) {
	b.Helper()
	exp, ok := experiments.ByID(id)
	if !ok {
		b.Fatalf("unknown experiment %s", id)
	}
	base := ""
	for i := 0; i < b.N; i++ {
		var got string
		if workers == 1 {
			got = exp.Run(experiments.Config{Scale: benchScale, Seed: 42, Workers: 1}).String()
		} else {
			tr := cluster.NewInProcess(workers, func(wi int, c cluster.Conn) {
				cluster.Serve(c, cluster.ServeOptions{Name: fmt.Sprintf("w%d", wi), Workers: 1})
			})
			res, _, err := cluster.Run(tr, []cluster.Job{{Experiment: id, Seed: 42, Scale: benchScale, Shards: workers}},
				cluster.Options{ShardWorkers: 1, Retries: 3})
			if err != nil {
				b.Fatalf("cluster run: %v", err)
			}
			got = res[0].Report.String()
		}
		if base == "" {
			base = got
		} else if got != base {
			b.Fatal("fleet report drifted between iterations")
		}
	}
}

// fleetWorkerCounts: 1 is the serial baseline the speedups divide by.
var fleetWorkerCounts = []int{1, 2, 4}

func BenchmarkFleetFig3_7_Static(b *testing.B) {
	for _, w := range fleetWorkerCounts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchFleet(b, "fig3-7", w) })
	}
}

func BenchmarkFleetFig3_5_HintAwareMixed(b *testing.B) {
	for _, w := range fleetWorkerCounts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchFleet(b, "fig3-5", w) })
	}
}

func BenchmarkFleetFig4_6_AdaptiveProbing(b *testing.B) {
	for _, w := range fleetWorkerCounts {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) { benchFleet(b, "fig4-6", w) })
	}
}

// BenchmarkSeedStream measures per-trial seed derivation — it must stay
// negligible next to any real trial.
func BenchmarkSeedStream(b *testing.B) {
	ss := parallel.NewSeedStream(42)
	var sink int64
	for i := 0; i < b.N; i++ {
		sink += ss.Seed(i)
	}
	_ = sink
}

// BenchmarkPoolOverhead measures the fan-out cost of an empty trial: the
// engine's fixed tax on embarrassingly parallel work.
func BenchmarkPoolOverhead(b *testing.B) {
	for _, w := range []int{1, 4} {
		w := w
		b.Run(fmt.Sprintf("workers=%d", w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				parallel.ForEach(w, 64, func(int) {})
			}
		})
	}
}

// --- ablation benchmarks for the DESIGN.md design choices ---

// BenchmarkAblationJerkThreshold sweeps the §2.2.1 jerk threshold and
// reports detection latency and false-positive rate, showing why the
// paper's value of 3 sits in the sweet spot.
func BenchmarkAblationJerkThreshold(b *testing.B) {
	for _, th := range []float64{1, 2, 3, 5, 8} {
		th := th
		b.Run(fmt.Sprintf("threshold=%g", th), func(b *testing.B) {
			var latency time.Duration
			var falsePos float64
			for i := 0; i < b.N; i++ {
				const restA, moveLen, restB = 10 * time.Second, 10 * time.Second, 10 * time.Second
				total := restA + moveLen + restB
				sched := sensors.Schedule{{Start: restA, End: restA + moveLen, Mode: sensors.Walk}}
				acc := sensors.NewAccelerometer(sensors.DefaultAccelConfig(), int64(i+1))
				samples := acc.Generate(sched, total)
				det := hints.NewMovementDetector(hints.MovementConfig{JerkThreshold: th})
				latency = -1
				fpReports := 0
				for _, s := range samples {
					m := det.Update(s)
					if m && latency < 0 && s.T >= restA {
						latency = s.T - restA
					}
					if m && !sched.MovingAt(s.T) && (s.T < restA || s.T > restA+moveLen+200*time.Millisecond) {
						fpReports++
					}
				}
				falsePos = float64(fpReports) / float64(len(samples))
			}
			if latency >= 0 {
				b.ReportMetric(float64(latency.Milliseconds()), "latency_ms")
			} else {
				b.ReportMetric(-1, "latency_ms")
			}
			b.ReportMetric(100*falsePos, "false_positive_pct")
		})
	}
}

// BenchmarkAblationDeltaFail sweeps RapidSample's δ_fail around the
// channel coherence time: throughput should peak when δ_fail matches
// the ~10 ms coherence of the walking channel.
func BenchmarkAblationDeltaFail(b *testing.B) {
	for _, df := range []time.Duration{2 * time.Millisecond, 5 * time.Millisecond,
		10 * time.Millisecond, 40 * time.Millisecond, 160 * time.Millisecond} {
		df := df
		b.Run(fmt.Sprintf("deltaFail=%v", df), func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				total := 10 * time.Second
				sched := sensors.Schedule{{Start: 0, End: total, Mode: sensors.Walk}}
				sum := 0.0
				const reps = 4
				for rep := 0; rep < reps; rep++ {
					tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: total, Seed: int64(rep*31 + 1)})
					rs := &rate.RapidSample{DeltaFail: df}
					res := ratesim.Run(ratesim.Config{Trace: tr, Adapter: rs, Workload: ratesim.UDP, Seed: int64(rep + 9)})
					sum += res.ThroughputMbps
				}
				tput = sum / reps
			}
			b.ReportMetric(tput, "Mbps")
		})
	}
}

// BenchmarkAblationOpportunisticJump compares RapidSample's multi-rate
// jump against step-by-one sampling on a mobile channel.
func BenchmarkAblationOpportunisticJump(b *testing.B) {
	for _, stepOnly := range []bool{false, true} {
		stepOnly := stepOnly
		name := "jump"
		if stepOnly {
			name = "step-by-one"
		}
		b.Run(name, func(b *testing.B) {
			var tput float64
			for i := 0; i < b.N; i++ {
				total := 10 * time.Second
				sched := sensors.Schedule{{Start: 0, End: total, Mode: sensors.Walk}}
				sum := 0.0
				const reps = 4
				for rep := 0; rep < reps; rep++ {
					tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: total, Seed: int64(rep*37 + 5)})
					rs := &rate.RapidSample{StepOnly: stepOnly}
					res := ratesim.Run(ratesim.Config{Trace: tr, Adapter: rs, Workload: ratesim.UDP, Seed: int64(rep + 3)})
					sum += res.ThroughputMbps
				}
				tput = sum / reps
			}
			b.ReportMetric(tput, "Mbps")
		})
	}
}

// BenchmarkAblationProbeLinger evaluates the §4.2 one-second linger
// after movement stops: without it, the estimation window mixes
// pre-stop channel state and the error after stopping grows.
func BenchmarkAblationProbeLinger(b *testing.B) {
	env := channel.Office.WithBaseSNR(9)
	env.WalkShadowSigma = 11
	env.WalkShadowTau = 5 * time.Second
	env.CoherenceTime = 5 * time.Second
	for _, linger := range []time.Duration{time.Millisecond, time.Second, 3 * time.Second} {
		linger := linger
		b.Run(fmt.Sprintf("linger=%v", linger), func(b *testing.B) {
			var postStopErr float64
			for i := 0; i < b.N; i++ {
				total := 40 * time.Second
				sched := sensors.AlternatingSchedule(total, 10*time.Second, sensors.Walk, true)
				tr := channel.Generate(channel.Config{Env: env, Sched: sched, Total: total, Seed: int64(i*17 + 3)})
				hs := &probing.HintScheduler{
					Linger:   linger,
					MovingFn: probing.MovementHintFn(tr, 100*time.Millisecond),
				}
				res := probing.RunScheduler(tr, hs, 10, int64(i+5))
				// Error within 2 s after each movement→static transition.
				var sum float64
				var n int
				for _, smp := range res.Samples {
					if !tr.MovingAt(smp.At) && tr.MovingAt(smp.At-2*time.Second) {
						sum += smp.Error()
						n++
					}
				}
				if n > 0 {
					postStopErr = sum / float64(n)
				}
			}
			b.ReportMetric(postStopErr, "post_stop_err")
		})
	}
}

// BenchmarkAblationCTEAggregation compares min-over-hops (the paper's
// choice) against mean-over-hops for the route CTE metric.
func BenchmarkAblationCTEAggregation(b *testing.B) {
	mob := vehicular.DefaultMobilityConfig(11)
	mob.Vehicles = 120
	// meanSelector ranks candidates by CTE alone; route survival depends
	// on the weakest link, which the min aggregation predicts.
	for _, agg := range []string{"min", "mean"} {
		agg := agg
		b.Run(agg, func(b *testing.B) {
			var med float64
			for i := 0; i < b.N; i++ {
				diffs := [][]float64{
					{4, 8, 6},    // uniformly aligned route
					{2, 2, 85},   // one crossing hop
					{30, 30, 30}, // uniformly mediocre
				}
				// Score each candidate route and measure how well the
				// score predicts the weakest hop (survival time proxy).
				best, bestScore := -1, -1.0
				for ri, ds := range diffs {
					var score float64
					if agg == "min" {
						score = vehicular.RouteCTE(ds)
					} else {
						sum := 0.0
						for _, d := range ds {
							sum += vehicular.CTE(d)
						}
						score = sum / float64(len(ds))
					}
					if score > bestScore {
						best, bestScore = ri, score
					}
				}
				// The weakest-hop CTE of the chosen route is the proxy
				// for its lifetime.
				med = vehicular.RouteCTE(diffs[best])
			}
			b.ReportMetric(med, "weakest_hop_CTE")
		})
	}
}

// --- table-driven fast path vs analytic reference ---
//
// The three benchmarks below carry the before/after evidence for the
// hot-path optimisation: each pairs the retained reference
// implementation (analytic error curves, math/rand) against the
// table-driven path the simulators actually run, so one `go test
// -bench 'DeliveryProb|Generate|RatesimRun'` shows where the speedup
// comes from.

// BenchmarkDeliveryProb compares one SNR→delivery-probability
// evaluation: analytic (Erfc + two Pow) vs the interpolated LUT read.
func BenchmarkDeliveryProb(b *testing.B) {
	b.Run("analytic", func(b *testing.B) {
		var sink float64
		for i := 0; i < b.N; i++ {
			snr := 5 + float64(i%256)*0.1
			sink += phy.DeliveryProb(phy.Rate(i%phy.NumRates), snr, 1000)
		}
		_ = sink
	})
	b.Run("lut", func(b *testing.B) {
		et := phy.ErrorTableFor(1000)
		var sink float64
		for i := 0; i < b.N; i++ {
			snr := 5 + float64(i%256)*0.1
			sink += et.DeliveryProb(phy.Rate(i%phy.NumRates), snr)
		}
		_ = sink
	})
}

// BenchmarkGenerate compares full 20 s trace generation: the pre-LUT
// reference vs the table-driven generator, plus the buffer-reusing
// GenerateInto the trial pools use (which must report 0 allocs/op).
func BenchmarkGenerate(b *testing.B) {
	sched := sensors.AlternatingSchedule(20*time.Second, 10*time.Second, sensors.Walk, false)
	cfg := channel.Config{Env: channel.Office, Sched: sched, Total: 20 * time.Second, Seed: 7}
	b.Run("reference", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			channel.GenerateReference(cfg)
		}
	})
	b.Run("lut", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			channel.Generate(cfg)
		}
	})
	b.Run("lut-into", func(b *testing.B) {
		tr := channel.Generate(cfg)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			channel.GenerateInto(cfg, tr)
		}
	})
}

// BenchmarkRatesimRun measures one MAC-simulation replay of a 10 s
// mixed trace under both workloads — the per-trial unit of every
// Chapter 3 experiment. Allocations are reported; the inner loop is
// pinned at ~0 by TestRunAllocationFree.
func BenchmarkRatesimRun(b *testing.B) {
	sched := sensors.AlternatingSchedule(10*time.Second, 5*time.Second, sensors.Walk, false)
	tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: 10 * time.Second, Seed: 3})
	for _, wl := range []ratesim.Workload{ratesim.UDP, ratesim.TCP} {
		wl := wl
		b.Run(wl.String(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ratesim.Run(ratesim.Config{Trace: tr, Adapter: rate.NewRapidSample(), Workload: wl, Seed: int64(i)})
			}
		})
	}
}

// --- micro-benchmarks for the hot paths ---

func BenchmarkMovementDetectorUpdate(b *testing.B) {
	acc := sensors.NewAccelerometer(sensors.DefaultAccelConfig(), 1)
	sched := sensors.Schedule{{Start: 0, End: 10 * time.Second, Mode: sensors.Walk}}
	samples := acc.Generate(sched, 10*time.Second)
	det := hints.NewMovementDetector(hints.MovementConfig{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		det.Update(samples[i%len(samples)])
	}
}

func BenchmarkTraceGeneration(b *testing.B) {
	sched := sensors.AlternatingSchedule(20*time.Second, 10*time.Second, sensors.Walk, false)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: 20 * time.Second, Seed: int64(i)})
	}
}

func BenchmarkRapidSamplePickObserve(b *testing.B) {
	rs := rate.NewRapidSample()
	at := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := rs.PickRate(at)
		rs.Observe(rate.Feedback{At: at, Rate: r, Acked: i%7 != 0, SNR: rate.NoSNR()})
		at += 400 * time.Microsecond
	}
}

func BenchmarkSampleRatePickObserve(b *testing.B) {
	sr := rate.NewSampleRate(1)
	at := time.Duration(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := sr.PickRate(at)
		sr.Observe(rate.Feedback{At: at, Rate: r, Acked: i%7 != 0, SNR: rate.NoSNR()})
		at += 400 * time.Microsecond
	}
}

func BenchmarkMACSimulation(b *testing.B) {
	sched := sensors.AlternatingSchedule(10*time.Second, 5*time.Second, sensors.Walk, false)
	tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: 10 * time.Second, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ratesim.Run(ratesim.Config{Trace: tr, Adapter: rate.NewHintAware(int64(i)), Workload: ratesim.TCP, Seed: int64(i)})
	}
}

func BenchmarkVehicularStep(b *testing.B) {
	sim := vehicular.NewSimulation(vehicular.DefaultMobilityConfig(1))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim.Step()
	}
}

// BenchmarkCollectLinks collects one Table 5.1 network's links: 100
// vehicles over 300 s, about 1.5 M pair checks.
func BenchmarkCollectLinks(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		vehicular.CollectLinks(vehicular.NewSimulation(vehicular.DefaultMobilityConfig(9)), 300*time.Second)
	}
}
