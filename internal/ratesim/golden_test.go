package ratesim

import (
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/rate"
	"repro/internal/sensors"
)

var update = flag.Bool("update", false, "rewrite testdata/results.golden from the current code")

// resultsGolden is Run's recorded Result for every goldenCases run.
var resultsGolden = filepath.Join("testdata", "results.golden")

// goldenAdapters builds a fresh adapter per Chapter 3 protocol, each at
// its default configuration, then SampleRate at two of the windows the
// Chapter 3 sweep runs (the default 10 s window outlasts both traces, so
// only these expire events) and the hint-aware shape hintserve gives
// each client: a 50 ms, 1500 B SampleRate beside RapidSample.
var goldenAdapters = []struct {
	name string
	mk   func(seed int64) rate.Adapter
}{
	{"HintAware", func(seed int64) rate.Adapter { return rate.NewHintAware(seed) }},
	{"RapidSample", func(int64) rate.Adapter { return rate.NewRapidSample() }},
	{"SampleRate", func(seed int64) rate.Adapter { return rate.NewSampleRate(seed) }},
	{"RRAA", func(int64) rate.Adapter { return rate.NewRRAA() }},
	{"RBAR", func(int64) rate.Adapter { return rate.NewRBAR() }},
	{"CHARM", func(int64) rate.Adapter { return rate.NewCHARM() }},
	{"SampleRate(1s)", func(seed int64) rate.Adapter { return sampleRateWith(seed, time.Second, 0) }},
	{"SampleRate(2s)", func(seed int64) rate.Adapter { return sampleRateWith(seed, 2*time.Second, 0) }},
	{"HintAware(hintserve)", func(seed int64) rate.Adapter {
		return rate.NewHintAwareWith(sampleRateWith(seed, 50*time.Millisecond, 1500), rate.NewRapidSample())
	}},
}

// sampleRateWith returns a SampleRate with the given window and frame
// size (0 keeps the default size).
func sampleRateWith(seed int64, window time.Duration, bytes int) *rate.SampleRate {
	sr := rate.NewSampleRate(seed)
	sr.Window = window
	sr.PacketBytes = bytes
	return sr
}

// TestResultsGolden pins the MAC loop below the reports, which print
// rounded throughputs: every Result field of each Chapter 3 adapter
// under UDP and TCP on two fixed traces, a mixed static/walking office
// trace and a vehicular one, with the throughput as its float64 bits.
// A change to Run or to an adapter's internals must leave this
// byte-identical; regenerating it with -update is a declared behaviour
// change, never part of a refactor.
func TestResultsGolden(t *testing.T) {
	traces := []struct {
		name string
		cfg  channel.Config
	}{
		{"office-mixed", channel.Config{
			Env:   channel.Office,
			Sched: sensors.AlternatingSchedule(8*time.Second, 4*time.Second, sensors.Walk, false),
			Total: 8 * time.Second,
			Seed:  41,
		}},
		{"vehicular", channel.Config{
			Env:   channel.Vehicular,
			Sched: sensors.Schedule{{Start: 0, End: 6 * time.Second, Mode: sensors.Vehicle}},
			Total: 6 * time.Second,
			Seed:  43,
		}},
	}
	var sb strings.Builder
	for _, trc := range traces {
		tr := channel.Generate(trc.cfg)
		for _, ad := range goldenAdapters {
			for _, wl := range []Workload{UDP, TCP} {
				r := Run(Config{Trace: tr, Adapter: ad.mk(17), Workload: wl, Seed: 5})
				fmt.Fprintf(&sb, "%s %s %s sent=%d delivered=%d lost=%d timeouts=%d rates=%v throughput=%#016x (%v Mbps)\n",
					trc.name, ad.name, wl, r.Sent, r.Delivered, r.LostPackets, r.Timeouts,
					r.RateHistogram, math.Float64bits(r.ThroughputMbps), r.ThroughputMbps)
			}
		}
	}
	got := sb.String()

	if *update {
		if err := os.MkdirAll(filepath.Dir(resultsGolden), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(resultsGolden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(resultsGolden)
	if err != nil {
		t.Fatalf("no recorded results (go test -run ResultsGolden -update): %v", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("results differ from %s at line %d:\n got  %s\n want %s", resultsGolden, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("results differ from %s: %d lines, want %d", resultsGolden, len(gl), len(wl))
	}
}
