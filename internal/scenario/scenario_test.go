package scenario

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/parallel"
)

// testScenarios is the paper-scale differential suite: small enough to
// run the slot-driven oracle, varied enough to cover static herds,
// walking and vehicular mobility, multi-class mixes, route jitter, and
// coverage gaps.
func testScenarios() []Scenario {
	return []Scenario{
		{
			Name: "static-office",
			Grid: APGrid{Side: 3, Spacing: 160},
			Herds: []Herd{{
				Name: "desks", Clients: 40,
				Traffic: TrafficMix{{Name: "web", Bytes: 1000, Interval: 200 * time.Millisecond}},
			}},
			Duration: 10 * time.Second,
			Seed:     7,
		},
		{
			Name: "walkers",
			Grid: APGrid{Side: 4, Spacing: 180},
			Herds: []Herd{
				{
					Name: "pedestrians", Clients: 30,
					Mobility: MobilityProfile{SpeedMps: 1.4, SpeedJitter: 0.3, MeanSegment: 60},
					Traffic: TrafficMix{
						{Name: "voip", Bytes: 200, Interval: 60 * time.Millisecond},
						{Name: "web", Bytes: 1400, Interval: 400 * time.Millisecond},
					},
				},
				{
					Name: "kiosks", Clients: 10,
					Traffic: TrafficMix{{Name: "telemetry", Bytes: 600, Interval: 500 * time.Millisecond}},
				},
			},
			Duration: 12 * time.Second,
			Seed:     11,
		},
		{
			Name: "taxis-manhattan",
			Grid: APGrid{Side: 5, Spacing: 240}, // sparse: real coverage gaps
			Herds: []Herd{{
				Name: "taxis", Clients: 25,
				Mobility: MobilityProfile{SpeedMps: 9, SpeedJitter: 1.5, MeanSegment: 300, RoadHeadings: 4, RouteJitterDeg: 10},
				Traffic:  TrafficMix{{Name: "probe", Bytes: 1000, Interval: 100 * time.Millisecond}},
			}},
			Duration: 15 * time.Second,
			Seed:     23,
		},
	}
}

// TestEventedMatchesSlotted is the tentpole differential: on
// contention-free scenarios the event-driven engine and the slot-driven
// oracle must produce byte-identical Metrics.
func TestEventedMatchesSlotted(t *testing.T) {
	for _, sc := range testScenarios() {
		t.Run(sc.Name, func(t *testing.T) {
			ev := Run(sc)
			sl := RunSlotted(sc)
			if ev.Metrics != sl.Metrics {
				t.Fatalf("engines diverge:\nevented: %+v\nslotted: %+v", ev.Metrics, sl.Metrics)
			}
			if ev.Events != sl.Events {
				t.Fatalf("evented processed %d arrivals, slotted %d", ev.Events, sl.Events)
			}
			if ev.Metrics.Arrivals == 0 || ev.Metrics.Delivered == 0 {
				t.Fatalf("degenerate scenario: %+v", ev.Metrics)
			}
		})
	}
}

// TestEventedDeterministic pins seeding: same seed → identical result,
// different seed → different result.
func TestEventedDeterministic(t *testing.T) {
	sc := testScenarios()[1]
	a, b := Run(sc), Run(sc)
	if a.Metrics != b.Metrics {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a.Metrics, b.Metrics)
	}
	sc.Seed++
	c := Run(sc)
	if a.Metrics == c.Metrics {
		t.Fatalf("seed change did not move the metrics: %+v", a.Metrics)
	}
}

// TestContentionStatistical compares the engines on a contended
// scenario: medium-acquisition order differs between them, so the
// comparison is statistical — totals within a few percent, deferral
// observed by both.
func TestContentionStatistical(t *testing.T) {
	sc := testScenarios()[1]
	sc.Name = "walkers-contended"
	sc.Contention = true
	ev := Run(sc)
	sl := RunSlotted(sc)
	if ev.Metrics.DeferredNs == 0 || sl.Metrics.DeferredNs == 0 {
		t.Fatalf("expected medium deferral on both engines: evented %d ns, slotted %d ns",
			ev.Metrics.DeferredNs, sl.Metrics.DeferredNs)
	}
	if ev.Metrics.Arrivals != sl.Metrics.Arrivals {
		t.Fatalf("arrival schedules must still agree: %d vs %d", ev.Metrics.Arrivals, sl.Metrics.Arrivals)
	}
	rel := func(a, b int64) float64 {
		return math.Abs(float64(a)-float64(b)) / math.Max(float64(b), 1)
	}
	if d := rel(ev.Metrics.Delivered, sl.Metrics.Delivered); d > 0.05 {
		t.Fatalf("delivered diverged %.1f%%: evented %d, slotted %d", 100*d, ev.Metrics.Delivered, sl.Metrics.Delivered)
	}
	if d := rel(ev.Metrics.AirtimeNs, sl.Metrics.AirtimeNs); d > 0.05 {
		t.Fatalf("airtime diverged %.1f%%: evented %d, slotted %d", 100*d, ev.Metrics.AirtimeNs, sl.Metrics.AirtimeNs)
	}
}

// TestChunkUnionMatchesRun is the sharding differential: running any
// disjoint chunk cover of the client population and merging in chunk
// order must reproduce the full run byte-for-byte. This is the property
// that lets one city-scale run split into one fleet trial per chunk.
func TestChunkUnionMatchesRun(t *testing.T) {
	for _, sc := range testScenarios() {
		want := Run(sc)
		n := sc.ClientCount()
		for _, chunks := range []int{1, 3, 7} {
			var got Metrics
			var events int64
			for c := 0; c < chunks; c++ {
				lo, hi := c*n/chunks, (c+1)*n/chunks
				res := RunChunk(sc, lo, hi)
				got.Merge(res.Metrics)
				events += res.Events
			}
			if got != want.Metrics || events != want.Events {
				t.Fatalf("%s in %d chunks diverged from full run:\nchunked: %+v (%d events)\nfull:    %+v (%d events)",
					sc.Name, chunks, got, events, want.Metrics, want.Events)
			}
		}
	}
}

// TestChunkRefusesContention pins the guard: chunking a contended
// scenario would silently decouple clients, so it must panic.
func TestChunkRefusesContention(t *testing.T) {
	sc := testScenarios()[0]
	sc.Contention = true
	defer func() {
		if recover() == nil {
			t.Fatal("RunChunk on a contended scenario did not panic")
		}
	}()
	RunChunk(sc, 0, 10)
}

// TestHandoffsOnMobileScenarios checks the mobility → handoff pipeline:
// moving herds hand off, static herds never do.
func TestHandoffsOnMobileScenarios(t *testing.T) {
	scs := testScenarios()
	if hs := Run(scs[0]).Metrics.Handoffs; hs != 0 {
		t.Fatalf("static scenario produced %d handoffs", hs)
	}
	if hs := Run(scs[2]).Metrics.Handoffs; hs == 0 {
		t.Fatal("vehicular scenario produced no handoffs")
	}
}

// TestGridMatchesLinear drives the lattice lookup against the full
// linear scan at random query points, including points in coverage
// gaps, and at the points where the lookup's fast path gives way to its
// 3×3 scan: exact multiples of Spacing/2 (square corners, edge midpoints
// and AP centres), the same points nudged by ±1e-12, ±1e-9 and ±1e-6 m,
// and the torus seam at 0 and at the area's edge.
func TestGridMatchesLinear(t *testing.T) {
	for _, g := range []struct {
		grid  APGrid
		radio Radio
	}{
		{APGrid{Side: 8, Spacing: 180}, DefaultRadio()},
		{APGrid{Side: 3, Spacing: 300}, DefaultRadio()}, // sparse, gaps
		{APGrid{Side: 1, Spacing: 100}, DefaultRadio()}, // one AP
		{APGrid{Side: 20, Spacing: 60}, Radio{RangeM: 90, RefSNR: 68, PathLossExp: 3, SNRNoise: 1.5, RetryLimit: 3}},
		{APGrid{Side: 2, Spacing: 180}, DefaultRadio()}, // the 3×3 block wraps onto itself
		{APGrid{Side: 5, Spacing: 240}, DefaultRadio()},
		{APGrid{Side: 6, Spacing: 200}, Radio{RangeM: 80}}, // range < Spacing/2: gaps inside every square
	} {
		ix := newAPIndex(g.grid, g.radio)
		area := float64(g.grid.Side) * g.grid.Spacing
		check := func(x, y float64) {
			t.Helper()
			gb, gd := ix.best(x, y)
			lb, ld := ix.bestLinear(x, y)
			if gb != lb || gd != ld {
				t.Fatalf("grid %dx%d spacing %g range %g at (%v, %v): lattice picked AP %d (d²=%g), linear AP %d (d²=%g)",
					g.grid.Side, g.grid.Side, g.grid.Spacing, g.radio.RangeM, x, y, gb, gd, lb, ld)
			}
		}
		rng := parallel.NewRNG(99)
		for i := 0; i < 5000; i++ {
			check(rng.Float64()*area, rng.Float64()*area)
		}
		var ties []float64
		for k := 0; k <= 2*g.grid.Side; k++ {
			for _, off := range []float64{0, 1e-12, -1e-12, 1e-9, -1e-9, 1e-6, -1e-6} {
				if v := float64(k)*g.grid.Spacing/2 + off; v >= 0 && v <= area {
					ties = append(ties, v)
				}
			}
		}
		for _, x := range ties {
			for _, y := range ties {
				check(x, y)
			}
		}
	}
}

// TestRunAllocsIndependentOfDuration pins the event engine at no
// allocation per event: quadrupling a scenario's Duration quadruples
// its events but may add only a few allocations (slot arrays growing),
// with and without contention.
func TestRunAllocsIndependentOfDuration(t *testing.T) {
	for _, sc := range testScenarios() {
		for _, contended := range []bool{false, true} {
			sc.Contention = contended
			long := sc
			long.Duration *= 4
			var short, longer Result
			a := testing.AllocsPerRun(1, func() { short = Run(sc) })
			b := testing.AllocsPerRun(1, func() { longer = Run(long) })
			msg := fmt.Sprintf("%s contended=%v: %.0f allocations for %d events, %.0f for %d",
				sc.Name, contended, a, short.Events, b, longer.Events)
			if b-a > 8 {
				t.Error(msg)
			}
			t.Log(msg)
		}
	}
}

// TestValidateRefusals covers every refusal of the spec the public
// RunScenario receives: each case breaks one rule of a runnable spec,
// and the error must name the problem.
func TestValidateRefusals(t *testing.T) {
	good := testScenarios()[1]
	if err := good.Validate(); err != nil {
		t.Fatalf("runnable spec refused: %v", err)
	}
	cases := []struct {
		name   string
		mutate func(sc *Scenario)
		want   string
	}{
		{"no grid side", func(sc *Scenario) { sc.Grid.Side = 0 }, "AP grid needs Side ≥ 1 and positive Spacing"},
		{"no grid spacing", func(sc *Scenario) { sc.Grid.Spacing = 0 }, "AP grid needs Side ≥ 1 and positive Spacing"},
		{"no herds", func(sc *Scenario) { sc.Herds = nil }, "no herds"},
		{"herd without clients", func(sc *Scenario) { sc.Herds[1].Clients = 0 }, `herd "kiosks" has no clients`},
		{"herd without traffic", func(sc *Scenario) { sc.Herds[1].Traffic = nil }, `herd "kiosks" has no traffic classes`},
		{"class without bytes", func(sc *Scenario) { sc.Herds[0].Traffic[1].Bytes = 0 }, `class "web" needs positive Bytes and Interval`},
		{"class with negative interval", func(sc *Scenario) { sc.Herds[0].Traffic[0].Interval = -time.Second }, `class "voip" needs positive Bytes and Interval`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			sc := testScenarios()[1]
			c.mutate(&sc)
			err := sc.Validate()
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("Validate() = %v, want an error containing %q", err, c.want)
			}
		})
	}
}

// TestIdleLinksAreFree pins the event-engine scaling claim: growing the
// city (more APs, more area) at fixed population and traffic leaves the
// processed event count unchanged — idle links generate no events.
func TestIdleLinksAreFree(t *testing.T) {
	base := Scenario{
		Name: "sweep",
		Grid: APGrid{Side: 4, Spacing: 180},
		Herds: []Herd{{
			Name: "walkers", Clients: 50,
			Mobility: MobilityProfile{SpeedMps: 1.4, MeanSegment: 80},
			Traffic:  TrafficMix{{Name: "web", Bytes: 1000, Interval: 250 * time.Millisecond}},
		}},
		Duration: 5 * time.Second,
		Seed:     3,
	}
	small := Run(base)
	big := base
	big.Grid.Side = 16 // 16× the APs, same population
	large := Run(big)
	if small.Events != large.Events {
		t.Fatalf("event count should track traffic, not APs: %d events with %d APs, %d with %d",
			small.Events, small.APs, large.Events, large.APs)
	}
}

// TestWrapStaysInRange crosses the seam below 0 by less than half an
// ulp of the side, where math.Mod's remainder plus the side rounds to
// the side itself, and by a little more, where it does not.
func TestWrapStaysInRange(t *testing.T) {
	for _, max := range []float64{1000, 199.99, 50, 3} {
		for _, x := range []float64{-1e-17, -5e-14, -6e-14, -math.SmallestNonzeroFloat64} {
			if got := wrap(x, max); !(0 <= got && got < max) {
				t.Errorf("wrap(%v, %v) = %v, outside [0, %v)", x, max, got, max)
			}
		}
	}
}
