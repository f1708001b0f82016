package experiments

import (
	"fmt"
	"sync"
	"time"

	"repro/internal/channel"
	"repro/internal/mesh"
	"repro/internal/phy"
	"repro/internal/probing"
	"repro/internal/sensors"
	"repro/internal/stats"
	"repro/internal/trace"
)

func init() {
	register("fig4-1", "delivery rate over time with movement hint", Fig4_1, tags("ch4", "probing", "paper"))
	register("fig4-2", "estimate error vs probing rate, static", Fig4_2, tags("ch4", "probing", "paper"))
	register("fig4-3", "estimate error vs probing rate, mobile", Fig4_3, tags("ch4", "probing", "paper"))
	register("fig4-4", "delivery probability by probing rate, stationary timeline", Fig4_4,
		frames(phy.DefaultFrameBytes), tags("ch4", "probing", "paper"))
	register("fig4-5", "delivery probability by probing rate, mobile timeline", Fig4_5,
		frames(phy.DefaultFrameBytes), tags("ch4", "probing", "paper"))
	register("fig4-6", "adaptive vs fixed probing on a combined trace", Fig4_6,
		frames(phy.DefaultFrameBytes), tags("ch4", "probing", "paper"))
	register("sec4-2", "ETX penalty of erroneous link estimates", Sec4_2, tags("ch4", "probing", "paper"))
}

// sharedTrace generates one trace per run, on first use. The timeline
// figures replay every curve over the same trace, and the trace is a
// pure function of its config, so the trials of a run (or of a shard)
// share a single generation.
func sharedTrace(c channel.Config) func() *trace.FateTrace {
	return sync.OnceValue(func() *trace.FateTrace { return channel.Generate(c) })
}

// probingEnv is the marginal mesh-scale link the Chapter 4 measurements
// study: a link weak enough that even 6 Mbps delivery fluctuates. The
// paper's probing experiments use the same stationary and human/mobile
// setups as Chapter 3 but at mesh link distances.
func probingEnv() channel.Environment {
	e := channel.Office.WithBaseSNR(9)
	e.Name = "mesh-link"
	e.ShadowSigma = 1.5
	e.StaticFadeRate = 0.1
	e.StaticFadeDepth = 4
	// A walker on a long mesh link shadows the path on a seconds
	// timescale; this is what makes the mobile delivery probability jump
	// 20%+ from second to second (Figure 4-1) while the static link
	// stays flat.
	e.WalkShadowSigma = 11
	e.WalkShadowTau = 5 * time.Second
	// At the robust 6 Mbps probe rate the walking-scale shadowing is the
	// variation that matters; fast fading decorrelates too quickly to be
	// visible through 10-probe windows and is exercised by the Chapter 3
	// experiments instead.
	e.CoherenceTime = 5 * time.Second
	return e
}

// probingRates is the sweep of Figures 4-2/4-3 in probes per second.
var probingRates = []float64{0.1, 0.2, 0.5, 1, 2, 5, 10}

// Collector-key builders shared by the trial phases that emit and the
// finish phases that read, so the two sides cannot drift apart.
func errRateKey(label string, rate float64) string { return fmt.Sprintf("fig4-err/%s/%g", label, rate) }
func trackKey(rate float64) string                 { return fmt.Sprintf("track/%g", rate) }
func trackErrKey(rate float64) string              { return fmt.Sprintf("trackerr/%g", rate) }

// Fig4_1 reproduces Figure 4-1: packet delivery rate for 6 Mbps packets
// over time on a trace that alternates static and mobile phases, with
// the movement hint overlaid. The shape claim: motion makes the
// per-second delivery ratio jump by more than 20% from second to second.
// The figure plots one trace; the checks aggregate the jump statistics
// over several independent traces so the claim does not ride on one
// realization of the slow shadowing process.
func Fig4_1(cfg Config) *Report {
	total := time.Duration(cfg.scaleInt(140, 60)) * time.Second
	sched := sensors.AlternatingSchedule(total, 20*time.Second, sensors.Walk, false)
	n := cfg.scaleInt(8, 4)
	traceSeeds := cfg.stream("fig4-1/traces")
	probeSeeds := cfg.stream("fig4-1/probes")

	// Each trial emits its jump statistics; trial 0 additionally emits
	// the figure's per-second delivery curve.
	var pool channel.TracePool
	cfg.trials("fig4-1", n, func(rep int, em *Emitter) {
		tr := pool.Generate(channel.Config{Env: probingEnv(), Sched: sched, Total: total, Seed: traceSeeds.Seed(rep)})
		defer pool.Put(tr)
		// 200 probes/s reference stream bucketed per second, as the paper
		// buckets ~200 packets per bit rate per second.
		stream := probing.CollectStream(tr, probing.ReferenceRate, probeSeeds.Seed(rep))
		raw := &stats.Series{Name: "delivery ratio"}
		for _, p := range stream.Probes {
			v := 0.0
			if p.OK {
				v = 1
			}
			raw.Add(p.At.Seconds(), v)
		}
		perSec := raw.Bucketed(1)
		if rep == 0 {
			for _, p := range perSec.Points {
				em.Point("persec", p.X, p.Y)
			}
		}
		// Jumps per phase: |Δ delivery| between adjacent seconds.
		var sumStatic, sumMobile float64
		var nStatic, nMobile, bigStatic, bigMobile int
		for i := 1; i < perSec.Len(); i++ {
			t := time.Duration(perSec.Points[i].X * float64(time.Second))
			d := perSec.Points[i].Y - perSec.Points[i-1].Y
			if d < 0 {
				d = -d
			}
			if sched.MovingAt(t) && sched.MovingAt(t-time.Second) {
				sumMobile += d
				nMobile++
				if d > 0.2 {
					bigMobile++
				}
			} else if !sched.MovingAt(t) && !sched.MovingAt(t-time.Second) {
				sumStatic += d
				nStatic++
				if d > 0.2 {
					bigStatic++
				}
			}
		}
		em.Add("sumStatic", sumStatic)
		em.Add("sumMobile", sumMobile)
		em.Add("nStatic", float64(nStatic))
		em.Add("nMobile", float64(nMobile))
		em.Add("bigStatic", float64(bigStatic))
		em.Add("bigMobile", float64(bigMobile))
	})
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig4-1",
		Title: "Delivery rate (6 Mbps) over time and movement",
		Paper: "delivery ratio fluctuates >20%/s only while the movement hint is raised",
	}
	hint := &stats.Series{Name: "movement hint"}
	for t := time.Duration(0); t < total; t += time.Second {
		v := 0.0
		if sched.MovingAt(t) {
			v = 1
		}
		hint.Add(t.Seconds(), v)
	}
	r.Series = append(r.Series, cfg.seriesCol("persec", "delivery ratio (1 s buckets)"), hint)

	// Sum the per-trial statistics in trial order (the accumulators
	// preserve it), reproducing the serial aggregation exactly.
	sum := func(name string) float64 {
		total := 0.0
		for _, v := range cfg.acc(name).Values() {
			total += v
		}
		return total
	}
	meanStatic := sum("sumStatic") / sum("nStatic")
	meanMobile := sum("sumMobile") / sum("nMobile")
	bigStatic, bigMobile := sum("bigStatic"), sum("bigMobile")
	r.Columns = []string{"value"}
	r.Rows = []Row{
		{Label: "mean |Δ|/s static", Values: []float64{meanStatic}},
		{Label: "mean |Δ|/s mobile", Values: []float64{meanMobile}},
		{Label: ">20% jumps static", Values: []float64{bigStatic}},
		{Label: ">20% jumps mobile", Values: []float64{bigMobile}},
	}
	r.AddCheck("mobile-fluctuates-more", meanMobile > 2*meanStatic,
		"second-to-second jumps: mobile %.3f vs static %.3f (%d traces)", meanMobile, meanStatic, n)
	r.AddCheck("mobile-20pct-jumps", bigMobile > 3*bigStatic,
		">20%% jumps: mobile %.0f vs static %.0f (%d traces)", bigMobile, bigStatic, n)
	return r
}

// errVsRateTrials runs the trial phase of the Figures 4-2/4-3 analysis
// for one mobility mode: each trace is one trial deriving its trace and
// probe seeds by global trial index and emitting the per-rate estimate
// errors into "fig4-err/<label>/<rate>" accumulators.
func errVsRateTrials(cfg Config, mode sensors.MobilityMode, label string) {
	n := cfg.scaleInt(20, 5) // the paper collects 20 traces per case
	total := time.Duration(cfg.scaleInt(180, 120)) * time.Second
	traces := cfg.stream("fig4-err/" + label + "/traces")
	probes := cfg.stream("fig4-err/" + label + "/probes")
	// Per-trial traces recycle through a pool (they are long: 2–3 min of
	// slots each) so the fan-out is not throttled by allocation.
	var pool channel.TracePool
	cfg.trials("fig4-err/"+label, n, func(rep int, em *Emitter) {
		sched := sensors.Schedule{{Start: 0, End: total, Mode: mode}}
		tr := pool.Generate(channel.Config{Env: probingEnv(), Sched: sched, Total: total,
			Seed: traces.Seed(rep)})
		defer pool.Put(tr)
		for rate, e := range probing.ErrorVsRate(tr, probingRates, 10, probes.Seed(rep)) {
			em.Add(errRateKey(label, rate), e)
		}
	})
}

// errVsRateMeans reads the merged per-rate error accumulators back.
func errVsRateMeans(cfg Config, label string) map[float64]float64 {
	out := make(map[float64]float64, len(probingRates))
	for _, rate := range probingRates {
		out[rate] = cfg.acc(errRateKey(label, rate)).Mean()
	}
	return out
}

func errReport(r *Report, errs map[float64]float64) *stats.Series {
	s := &stats.Series{Name: "mean |error|"}
	r.Columns = []string{"mean error"}
	for _, rate := range probingRates {
		s.Add(rate, errs[rate])
		r.Rows = append(r.Rows, Row{Label: fmt.Sprintf("%.1f probes/s", rate), Values: []float64{errs[rate]}})
	}
	r.Series = append(r.Series, s)
	return s
}

// Fig4_2 reproduces Figure 4-2: estimate error versus probing rate for
// the static case. Paper: even 0.1 probes/s keeps the error near 11%.
func Fig4_2(cfg Config) *Report {
	errVsRateTrials(cfg, sensors.Static, "static")
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig4-2",
		Title: "Estimate error vs probing rate (static)",
		Paper: "error ≈ 11% at 0.1 probes/s; ≤ ~5% by 0.5 probes/s",
	}
	errs := errVsRateMeans(cfg, "static")
	errReport(r, errs)
	r.AddCheck("low-error-at-low-rate", errs[0.1] < 0.15,
		"error at 0.1 probes/s = %.3f (paper ≈ 0.11)", errs[0.1])
	r.AddCheck("error-5pct-by-0.5", errs[0.5] < 0.08,
		"error at 0.5 probes/s = %.3f (paper ≈ 0.05)", errs[0.5])
	return r
}

// Fig4_3 reproduces Figure 4-3: the same sweep for the mobile case.
// Paper: >35% error at 0.5 probes/s, ~10% needs 5 probes/s, 5% needs 10.
func Fig4_3(cfg Config) *Report {
	errVsRateTrials(cfg, sensors.Walk, "mobile")
	// The factor-of-20 headline needs the static sweep too.
	errVsRateTrials(cfg, sensors.Static, "static")
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig4-3",
		Title: "Estimate error vs probing rate (mobile)",
		Paper: ">35% error at 0.5 probes/s; ~10% at 5 probes/s; 5% needs 10 probes/s (20× the static rate)",
	}
	errs := errVsRateMeans(cfg, "mobile")
	errReport(r, errs)
	r.AddCheck("high-error-at-low-rate", errs[0.5] > 0.2,
		"error at 0.5 probes/s = %.3f (paper > 0.35)", errs[0.5])
	r.AddCheck("error-drops-at-high-rate", errs[10] < errs[0.5]/2,
		"error at 10 probes/s = %.3f vs %.3f at 0.5", errs[10], errs[0.5])

	// The factor-of-20 headline: compare the probing rate each case
	// needs to reach a 10% error.
	static := errVsRateMeans(cfg, "static")
	needRate := func(errs map[float64]float64, target float64) float64 {
		for _, rate := range probingRates {
			if errs[rate] <= target {
				return rate
			}
		}
		return probingRates[len(probingRates)-1]
	}
	sRate, mRate := needRate(static, 0.10), needRate(errs, 0.10)
	factor := mRate / sRate
	r.Notes = append(r.Notes, fmt.Sprintf("probing rate for ≤10%% error: static %.1f/s, mobile %.1f/s (factor %.0fx)", sRate, mRate, factor))
	r.AddCheck("factor-20-gap", factor >= 10,
		"mobile needs %.0fx the static probing rate for 10%% error (paper ~20-25x)", factor)
	return r
}

// trackRates are the probing rates of the Figure 4-4/4-5 timelines.
var trackRates = []float64{1, 5, 10}

// trackingTrials runs the Figure 4-4/4-5 timeline over one shared 25 s
// trace: trial 0 emits the actual-probability curve, and trial k runs
// the fixed scheduler at trackRates[k-1] over the whole trace.
func trackingTrials(cfg Config, mode sensors.MobilityMode, seedOff int64, label string) {
	const total = 25 * time.Second
	sched := sensors.Schedule{{Start: 0, End: total, Mode: mode}}
	shared := sharedTrace(channel.Config{Env: probingEnv(), Sched: sched, Total: total, Seed: cfg.Seed + seedOff})
	cfg.trials(label, 1+len(trackRates), func(i int, em *Emitter) {
		tr := shared()
		if i == 0 {
			for t := time.Duration(0); t < total; t += 250 * time.Millisecond {
				em.Point("actual", t.Seconds(), tr.WindowProb(t, probing.ActualWindow, probing.ProbeRate))
			}
			return
		}
		rate := trackRates[i-1]
		res := probing.RunScheduler(tr, &probing.FixedScheduler{PerSecond: rate}, 10, cfg.Seed+seedOff+int64(rate))
		// Skip the window-fill transient (10 probes).
		fill := time.Duration(float64(10*time.Second) / rate)
		for _, smp := range res.Samples {
			em.Point(trackKey(rate), smp.At.Seconds(), smp.Observed)
			if smp.At > fill {
				em.Add(trackErrKey(rate), smp.Error())
			}
		}
	})
}

// trackingReport renders the timeline series and the mean-error rows,
// returning the per-rate errors for the figure-specific checks.
func trackingReport(cfg Config, r *Report) map[float64]float64 {
	r.Series = append(r.Series, cfg.seriesCol("actual", "actual"))
	meanErr := map[float64]float64{}
	for _, rate := range trackRates {
		name := fmt.Sprintf("%.0f probe/s", rate)
		r.Series = append(r.Series, cfg.seriesCol(trackKey(rate), name))
		meanErr[rate] = cfg.acc(trackErrKey(rate)).Mean()
	}
	r.Columns = []string{"mean error"}
	for _, rate := range trackRates {
		r.Rows = append(r.Rows, Row{Label: fmt.Sprintf("%.0f probe/s", rate), Values: []float64{meanErr[rate]}})
	}
	return meanErr
}

// Fig4_4 reproduces Figure 4-4: in the stationary trace every probing
// rate tracks the actual delivery probability closely.
func Fig4_4(cfg Config) *Report {
	trackingTrials(cfg, sensors.Static, 301, "fig4-4")
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig4-4",
		Title: "Delivery probability by probing rate (stationary 25 s trace)",
		Paper: "all three probing rates track the actual probability closely",
	}
	meanErr := trackingReport(cfg, r)
	r.AddCheck("static-1ps-tracks", meanErr[1] < 0.12,
		"mean error at 1 probe/s = %.3f (close tracking)", meanErr[1])
	r.AddCheck("static-10ps-tracks", meanErr[10] < 0.12,
		"mean error at 10 probes/s = %.3f", meanErr[10])
	return r
}

// Fig4_5 reproduces Figure 4-5: in the mobile trace only the high
// probing rates track; 1 probe/s errs substantially in both directions.
func Fig4_5(cfg Config) *Report {
	trackingTrials(cfg, sensors.Walk, 401, "fig4-5")
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig4-5",
		Title: "Delivery probability by probing rate (mobile 25 s trace)",
		Paper: "only 5–10 probes/s track; 1 probe/s errs substantially both ways",
	}
	meanErr := trackingReport(cfg, r)
	r.AddCheck("mobile-1ps-lags", meanErr[1] > 0.18,
		"mean error at 1 probe/s = %.3f (substantial)", meanErr[1])
	r.AddCheck("mobile-10ps-better", meanErr[10] < 0.65*meanErr[1],
		"mean error: 10 probes/s %.3f ≪ 1 probe/s %.3f", meanErr[10], meanErr[1])
	return r
}

// Fig4_6 reproduces Figure 4-6: on a combined static+mobile trace, the
// hint-adaptive scheduler (1 ↔ 10 probes/s with a 1 s linger) tracks the
// actual delivery probability while the fixed 1 probe/s strategy lags by
// seconds — at a fraction of the fast scheduler's bandwidth.
func Fig4_6(cfg Config) *Report {
	total := time.Duration(cfg.scaleInt(60, 40)) * time.Second
	sched := sensors.AlternatingSchedule(total, 10*time.Second, sensors.Walk, false)

	// Trial 0 emits the actual-probability curve over the shared trace;
	// trials 1–3 run one scheduler strategy each over the whole trace
	// and emit its samples, per-sample mobile-phase errors, and probe
	// count.
	type strategy struct {
		series string // sample series collector ("" = none)
		err    string
		probes string
		run    func(tr *trace.FateTrace) probing.RunResult
	}
	strategies := []strategy{
		{"adaptive", "adErr", "adProbes", func(tr *trace.FateTrace) probing.RunResult {
			hintFn := probing.MovementHintFn(tr, 100*time.Millisecond)
			return probing.RunScheduler(tr, &probing.HintScheduler{MovingFn: hintFn}, 10, cfg.Seed+502)
		}},
		{"fixed", "fxErr", "fxProbes", func(tr *trace.FateTrace) probing.RunResult {
			return probing.RunScheduler(tr, &probing.FixedScheduler{PerSecond: 1}, 10, cfg.Seed+503)
		}},
		{"", "fastErr", "fastProbes", func(tr *trace.FateTrace) probing.RunResult {
			return probing.RunScheduler(tr, &probing.FixedScheduler{PerSecond: 10}, 10, cfg.Seed+504)
		}},
	}
	shared := sharedTrace(channel.Config{Env: probingEnv(), Sched: sched, Total: total, Seed: cfg.Seed + 501})
	cfg.trials("fig4-6", 1+len(strategies), func(i int, em *Emitter) {
		tr := shared()
		if i == 0 {
			for t := time.Duration(0); t < total; t += 500 * time.Millisecond {
				em.Point("actual", t.Seconds(), tr.WindowProb(t, probing.ActualWindow, probing.ProbeRate))
			}
			return
		}
		st := strategies[i-1]
		res := st.run(tr)
		for _, smp := range res.Samples {
			if st.series != "" {
				em.Point(st.series, smp.At.Seconds(), smp.Observed)
			}
			// Errors are compared on the mobile phases, where the
			// strategies differ.
			if tr.MovingAt(smp.At) {
				em.Add(st.err, smp.Error())
			}
		}
		// Every probe yields one sample.
		em.Add(st.probes, float64(len(res.Samples)))
	})
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig4-6",
		Title: "Adaptive vs fixed probing on a combined trace",
		Paper: "adaptive stays accurate through movement; fixed 1 probe/s lags multiple seconds",
	}
	hint := &stats.Series{Name: "hint"}
	for t := time.Duration(0); t < total; t += 500 * time.Millisecond {
		v := 0.0
		if sched.MovingAt(t) {
			v = 1
		}
		hint.Add(t.Seconds(), v)
	}
	r.Series = append(r.Series,
		cfg.seriesCol("actual", "actual"),
		cfg.seriesCol("adaptive", "adaptive"),
		cfg.seriesCol("fixed", "1 probe/s"),
		hint)

	sum := func(name string) float64 {
		total := 0.0
		for _, v := range cfg.acc(name).Values() {
			total += v
		}
		return total
	}
	adErr, fxErr, fastErr := cfg.acc("adErr").Mean(), cfg.acc("fxErr").Mean(), cfg.acc("fastErr").Mean()
	adProbes, fxProbes, fastProbes := sum("adProbes"), sum("fxProbes"), sum("fastProbes")
	r.Columns = []string{"mobile err", "probes"}
	r.Rows = []Row{
		{Label: "adaptive", Values: []float64{adErr, adProbes}},
		{Label: "fixed 1/s", Values: []float64{fxErr, fxProbes}},
		{Label: "fixed 10/s", Values: []float64{fastErr, fastProbes}},
	}
	r.AddCheck("adaptive-more-accurate", adErr < 0.7*fxErr,
		"mobile-phase error: adaptive %.3f vs fixed-1/s %.3f", adErr, fxErr)
	r.AddCheck("adaptive-close-to-fast", adErr < 1.5*fastErr+0.02,
		"adaptive %.3f ≈ always-fast %.3f", adErr, fastErr)
	r.AddCheck("adaptive-saves-bandwidth", adProbes < 0.75*fastProbes,
		"probes: adaptive %.0f vs always-fast %.0f", adProbes, fastProbes)
	return r
}

// Sec4_2 reproduces the §4.2 worked analysis: with two links of delivery
// probability 0.8 and 0.6 and an estimate error of 0.25, ETX can pick
// the wrong link, costing 5/12 ≈ 42% extra transmissions on that hop.
func Sec4_2(cfg Config) *Report {
	// The analysis is deterministic; it still routes through the trial
	// engine as a single trial so the sharded and in-process runs share
	// one code path.
	cfg.trials("sec4-2", 1, func(_ int, em *Emitter) {
		penalty, overhead, err := mesh.Penalty(0.8, 0.6, 0.25)
		em.Add("penalty", penalty)
		em.Add("overhead", overhead)
		flip := 0.0
		if err == nil {
			flip = 1
		}
		em.Add("flip", flip)
		_, _, err2 := mesh.Penalty(0.8, 0.6, 0.05)
		same := 0.0
		if err2 == mesh.ErrSamePick {
			same = 1
		}
		em.Add("same", same)
	})
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "sec4-2",
		Title: "ETX penalty from erroneous delivery estimates",
		Paper: "p1=0.8, p2=0.6, δ=0.25 → overhead 5/12 ≈ 42%",
	}
	penalty, overhead := cfg.val("penalty"), cfg.val("overhead")
	r.Columns = []string{"value"}
	r.Rows = []Row{
		{Label: "penalty (extra tx)", Values: []float64{penalty}},
		{Label: "overhead", Values: []float64{overhead}},
	}
	r.AddCheck("pick-can-flip", cfg.val("flip") == 1, "δ=0.25 flips the ETX choice: %v", cfg.val("flip") == 1)
	// The paper quotes 5/12 ≈ 42%%; that value is the penalty
	// 1/p2 − 1/p1 (the overhead ratio p1/p2 − 1 evaluates to 1/3).
	r.AddCheck("penalty-5-12", penalty > 0.416 && penalty < 0.417,
		"penalty %.4f extra transmissions (paper 5/12 ≈ 0.4167)", penalty)

	// A δ too small to flip the decision must return ErrSamePick.
	r.AddCheck("small-error-no-flip", cfg.val("same") == 1,
		"δ=0.05 cannot flip the choice")
	return r
}
