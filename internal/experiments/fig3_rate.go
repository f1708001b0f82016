package experiments

import (
	"fmt"
	"time"

	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/rate"
	"repro/internal/ratesim"
	"repro/internal/sensors"
	"repro/internal/trace"
)

func init() {
	register("fig3-5", "hint-aware rate adaptation on mixed static/mobile traces (TCP)", Fig3_5,
		frames(phy.DefaultFrameBytes), tags("ch3", "rate", "paper"))
	register("fig3-6", "rate adaptation on mobile-only traces (TCP)", Fig3_6,
		frames(phy.DefaultFrameBytes), tags("ch3", "rate", "paper"))
	register("fig3-7", "rate adaptation on static-only traces (TCP)", Fig3_7,
		frames(phy.DefaultFrameBytes), tags("ch3", "rate", "paper"))
	register("fig3-8", "rate adaptation in the vehicular setting (UDP)", Fig3_8,
		frames(phy.DefaultFrameBytes), tags("ch3", "rate", "paper"))
}

// protoSet names the protocols compared in Chapter 3.
var protoSet = []string{"HintAware", "RapidSample", "SampleRate", "RRAA", "RBAR", "CHARM"}

// sampleRateWindows is the parameter sweep for the paper's post-facto
// best-parameter selection: "we post-process the trace to determine the
// best SampleRate parameter to use in each case; this biases our
// experiments in favor of SampleRate".
var sampleRateWindows = []time.Duration{time.Second, 2 * time.Second, 5 * time.Second, 10 * time.Second}

// newAdapter constructs a fresh adapter by protocol name. SampleRate's
// window is a parameter; other protocols take none.
func newAdapter(name string, window time.Duration, seed int64) rate.Adapter {
	switch name {
	case "HintAware":
		return rate.NewHintAware(seed)
	case "RapidSample":
		return rate.NewRapidSample()
	case "SampleRate":
		sr := rate.NewSampleRate(seed)
		sr.Window = window
		return sr
	case "RRAA":
		return rate.NewRRAA()
	case "RBAR":
		return rate.NewRBAR()
	case "CHARM":
		return rate.NewCHARM()
	}
	panic("unknown protocol " + name)
}

// runProto runs one protocol over one trace; for SampleRate it sweeps
// the window parameter and keeps the best result per the paper's biased
// methodology.
func runProto(name string, tr *trace.FateTrace, workload ratesim.Workload, seed int64) float64 {
	if name == "SampleRate" {
		best := 0.0
		for _, w := range sampleRateWindows {
			res := ratesim.Run(ratesim.Config{Trace: tr, Adapter: newAdapter(name, w, seed), Workload: workload, Seed: seed})
			if res.ThroughputMbps > best {
				best = res.ThroughputMbps
			}
		}
		return best
	}
	res := ratesim.Run(ratesim.Config{Trace: tr, Adapter: newAdapter(name, 0, seed), Workload: workload, Seed: seed})
	return res.ThroughputMbps
}

// rateComparisonTrials runs the trial phase of a Chapter 3 comparison:
// one trial per (environment, trace) pair runs the whole protocol set
// and emits each protocol's throughput into the "<env>/<protocol>"
// accumulator. Trials derive their trace and adapter seeds from the
// experiment's seed stream by global trial index and their emissions
// absorb in trial order, so the resulting table is bit-identical for
// any worker count — and for any shard count.
func rateComparisonTrials(cfg Config, label string, envs []channel.Environment, schedFor func(total time.Duration, rep int) sensors.Schedule,
	total time.Duration, nTraces int, workload ratesim.Workload) {

	traces := cfg.stream(label + "/traces")
	adapters := cfg.stream(label + "/adapters")
	// Traces are per-trial throwaways; a pool recycles slot buffers
	// across trials so the fan-out is not throttled by allocation.
	var pool channel.TracePool
	cfg.trials(label, len(envs)*nTraces, func(idx int, em *Emitter) {
		ei, rep := idx/nTraces, idx%nTraces
		tr := pool.Generate(channel.Config{
			Env:   envs[ei],
			Sched: schedFor(total, rep),
			Total: total,
			Seed:  traces.Seed(idx),
		})
		defer pool.Put(tr)
		for _, p := range protoSet {
			em.Add(envs[ei].Name+"/"+p, runProto(p, tr, workload, adapters.Seed(idx)))
		}
	})
}

// rateCell is one protocol's mean throughput in one environment, with
// its 95% confidence half-width.
type rateCell struct {
	mean, ci float64
}

// rateCells reads the merged per-protocol accumulators back into the
// mean/CI table the report renders.
func rateCells(cfg Config, envs []channel.Environment) map[string]map[string]rateCell {
	out := make(map[string]map[string]rateCell)
	for _, env := range envs {
		m := make(map[string]rateCell, len(protoSet))
		for _, p := range protoSet {
			acc := cfg.acc(env.Name + "/" + p)
			m[p] = rateCell{mean: acc.Mean(), ci: acc.CI95()}
		}
		out[env.Name] = m
	}
	return out
}

// buildRateReport renders the comparison as a paper-style table
// normalised to the reference protocol, with one row per protocol and
// one column pair per environment.
func buildRateReport(r *Report, cells map[string]map[string]rateCell, envs []channel.Environment, ref string) {
	for _, env := range envs {
		r.Columns = append(r.Columns, env.Name, env.Name+"±")
	}
	for _, p := range protoSet {
		row := Row{Label: p}
		for _, env := range envs {
			c := cells[env.Name][p]
			refMean := cells[env.Name][ref].mean
			norm, ciNorm := 0.0, 0.0
			if refMean > 0 {
				norm = c.mean / refMean
				ciNorm = c.ci / refMean
			}
			row.Values = append(row.Values, norm, ciNorm)
		}
		r.Rows = append(r.Rows, row)
	}
	for _, env := range envs {
		r.Notes = append(r.Notes, fmt.Sprintf("%s: %s absolute throughput %.2f Mbps",
			env.Name, ref, cells[env.Name][ref].mean))
	}
}

// Fig3_5 reproduces Figure 3-5: mixed-mobility 20 s traces (half static,
// half mobile) in the office, hallway and outdoor environments under
// TCP, comparing the hint-aware protocol against SampleRate (best
// post-facto window), RRAA and the SNR-based protocols.
func Fig3_5(cfg Config) *Report {
	envs := channel.Environments()
	n := cfg.scaleInt(15, 4) // the paper collects 10–20 traces per env
	sched := func(total time.Duration, rep int) sensors.Schedule {
		// Half static, half mobile; alternate which comes first, as in
		// the paper ("static for the first 10 seconds and mobile for the
		// next 10 seconds or the vice versa").
		return sensors.AlternatingSchedule(total, total/2, sensors.Walk, rep%2 == 1)
	}
	rateComparisonTrials(cfg, "fig3-5", envs, sched, 20*time.Second, n, ratesim.TCP)
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig3-5",
		Title: "Mixed-mobility throughput, normalised to hint-aware",
		Paper: "hint-aware best everywhere: +23–52% vs SampleRate, +17–39% vs RRAA, up to +47% vs RBAR",
	}
	cells := rateCells(cfg, envs)
	buildRateReport(r, cells, envs, "HintAware")

	for _, env := range envs {
		c := cells[env.Name]
		ha := c["HintAware"].mean
		r.AddCheck("hintaware-beats-samplerate-"+env.Name, ha > c["SampleRate"].mean,
			"hint-aware %.2f vs SampleRate %.2f (+%.0f%%)", ha, c["SampleRate"].mean, 100*(ha/c["SampleRate"].mean-1))
		r.AddCheck("hintaware-beats-rraa-"+env.Name, ha > c["RRAA"].mean,
			"hint-aware %.2f vs RRAA %.2f (+%.0f%%)", ha, c["RRAA"].mean, 100*(ha/c["RRAA"].mean-1))
		r.AddCheck("hintaware-beats-rbar-"+env.Name, ha > c["RBAR"].mean,
			"hint-aware %.2f vs RBAR %.2f (+%.0f%%)", ha, c["RBAR"].mean, 100*(ha/c["RBAR"].mean-1))
	}
	return r
}

// Fig3_6 reproduces Figure 3-6: mobile-only traces. RapidSample should
// beat every other protocol, by up to ~75% over SampleRate.
func Fig3_6(cfg Config) *Report {
	envs := channel.Environments()
	n := cfg.scaleInt(10, 4)
	sched := func(total time.Duration, rep int) sensors.Schedule {
		return sensors.Schedule{{Start: 0, End: total, Mode: sensors.Walk}}
	}
	rateComparisonTrials(cfg, "fig3-6", envs, sched, 20*time.Second, n, ratesim.TCP)
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig3-6",
		Title: "Mobile-only throughput, normalised to RapidSample",
		Paper: "RapidSample best in every environment; up to +75% vs SampleRate, up to +25% vs others",
	}
	cells := rateCells(cfg, envs)
	buildRateReport(r, cells, envs, "RapidSample")

	for _, env := range envs {
		c := cells[env.Name]
		rs := c["RapidSample"].mean
		for _, p := range []string{"SampleRate", "RRAA", "RBAR", "CHARM"} {
			r.AddCheck("rapidsample-beats-"+p+"-"+env.Name, rs > c[p].mean,
				"RapidSample %.2f vs %s %.2f", rs, p, c[p].mean)
		}
	}
	return r
}

// Fig3_7 reproduces Figure 3-7: static-only traces. RapidSample should
// be the worst frame-based protocol and SampleRate the best overall.
func Fig3_7(cfg Config) *Report {
	envs := channel.Environments()
	n := cfg.scaleInt(10, 4)
	sched := func(total time.Duration, rep int) sensors.Schedule {
		return sensors.Schedule{{Start: 0, End: total, Mode: sensors.Static}}
	}
	rateComparisonTrials(cfg, "fig3-7", envs, sched, 20*time.Second, n, ratesim.TCP)
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig3-7",
		Title: "Static-only throughput, normalised to RapidSample",
		Paper: "RapidSample worst (−12–28% vs SampleRate, up to −18% vs RRAA); SampleRate highest",
	}
	cells := rateCells(cfg, envs)
	buildRateReport(r, cells, envs, "RapidSample")

	for _, env := range envs {
		c := cells[env.Name]
		rs := c["RapidSample"].mean
		r.AddCheck("samplerate-beats-rapidsample-"+env.Name, c["SampleRate"].mean > rs,
			"SampleRate %.2f vs RapidSample %.2f (+%.0f%%)", c["SampleRate"].mean, rs, 100*(c["SampleRate"].mean/rs-1))
		r.AddCheck("rraa-beats-rapidsample-"+env.Name, c["RRAA"].mean > rs,
			"RRAA %.2f vs RapidSample %.2f", c["RRAA"].mean, rs)
	}
	return r
}

// Fig3_8 reproduces Figure 3-8: the vehicular setting under UDP (the
// paper switches to UDP because TCP times out under the mobile loss
// rates). RapidSample should lead, with roughly +28% over SampleRate and
// ~2× over the SNR-based protocols.
func Fig3_8(cfg Config) *Report {
	envs := []channel.Environment{channel.Vehicular}
	n := cfg.scaleInt(10, 4)
	sched := func(total time.Duration, rep int) sensors.Schedule {
		return sensors.Schedule{{Start: 0, End: total, Mode: sensors.Vehicle}}
	}
	rateComparisonTrials(cfg, "fig3-8", envs, sched, 10*time.Second, n, ratesim.UDP)
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "fig3-8",
		Title: "Vehicular throughput (UDP), normalised to RapidSample",
		Paper: "RapidSample ≈ +28% vs SampleRate, +36% vs RRAA, ~2× vs SNR-based",
	}
	cells := rateCells(cfg, envs)
	buildRateReport(r, cells, envs, "RapidSample")

	c := cells["vehicular"]
	rs := c["RapidSample"].mean
	for _, p := range []string{"SampleRate", "RRAA", "RBAR", "CHARM"} {
		r.AddCheck("rapidsample-beats-"+p, rs > c[p].mean,
			"RapidSample %.2f vs %s %.2f", rs, p, c[p].mean)
	}
	// Note: our harness grants RBAR the paper's §3.4 idealisation of
	// up-to-date receiver SNR even through loss bursts, which compresses
	// the vehicular gap relative to the paper's ~2x (their trained
	// SNR→rate mappings degraded badly at vehicular speeds).
	r.AddCheck("snr-gap-large", rs > 1.1*c["RBAR"].mean,
		"RapidSample %.2f vs RBAR %.2f (paper ~2x; idealised SNR feed compresses the gap)", rs, c["RBAR"].mean)
	return r
}
