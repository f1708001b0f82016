package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/phy"
	"repro/internal/scenario"
	"repro/internal/vehicular"
)

// This file registers the city-scale scenario engine as ordinary
// experiments, so the event-driven runs shard across the fleet exactly
// like the paper reproductions: city-grid and city-handoff are each ONE
// city whose client population splits into one trial per chunk (the
// chunk-union property proven by TestChunkUnionMatchesRun makes the
// merged report byte-identical to an unsharded run), city-contend
// couples clients through the medium and therefore runs whole trials,
// and scn-oracle is the differential suite pinning the event engine to
// its slot-driven oracle (RunSlotted) and its mobility model to
// internal/vehicular.

func init() {
	register("city-grid", "city-scale roaming on the event engine, sharded by client chunk", CityGrid,
		frames(200, 600, 1000, 1400), tags("scenario", "city"))
	register("city-handoff", "handoff storm: fast vehicles through small cells", CityHandoff,
		frames(600), tags("scenario", "city"))
	register("city-contend", "dense-AP contention: clients coupled through the medium", CityContend,
		frames(1400), tags("scenario", "city"))
	register("scn-oracle", "event engine vs slot-driven oracle differentials", ScnOracle,
		frames(200, 600, 1000, 1400), tags("scenario", "oracle"))
}

// citySize maps the scale knob to city dimensions: at scale 1 the grid
// is 32×32 = 1024 APs with 100,000 clients for 40 simulated seconds; at
// the golden-test scales (0.1–0.3) it shrinks to a few hundred clients
// over a few dozen APs and runs in tens of milliseconds.
func citySize(cfg Config) (side, clients int, dur time.Duration) {
	s := cfg.scale()
	side = int(32*s + 0.5)
	if side < 4 {
		side = 4
	}
	clients = int(100000*s*s + 0.5)
	if clients < 400 {
		clients = 400
	}
	dur = time.Duration(40 * s * float64(time.Second))
	if dur < 5*time.Second {
		dur = 5 * time.Second
	}
	return side, clients, dur
}

// cityChunks is the trial fan-out of one city run: the client
// population splits into this many contiguous chunks, each an
// independently runnable (and shardable) trial.
func cityChunks(cfg Config) int { return cfg.scaleInt(16, 2) }

// emitScenario flattens one chunk's integer Metrics onto the trial
// emitter. Every field is an exact small integer in float64, so the
// finish-phase sums reconstruct the int64 totals bit-exactly.
func emitScenario(em *Emitter, res scenario.Result) {
	m := res.Metrics
	em.Add("m/arrivals", float64(m.Arrivals))
	em.Add("m/attempts", float64(m.Attempts))
	em.Add("m/delivered", float64(m.Delivered))
	em.Add("m/lost", float64(m.Lost))
	em.Add("m/oor", float64(m.OutOfRange))
	em.Add("m/handoffs", float64(m.Handoffs))
	em.Add("m/airtime", float64(m.AirtimeNs))
	em.Add("m/deferred", float64(m.DeferredNs))
	em.Add("m/events", float64(res.Events))
	for k := 0; k < phy.NumRates; k++ {
		em.Add(fmt.Sprintf("m/rate%d", k), float64(m.RateCounts[k]))
	}
}

// scenarioTotals rebuilds the merged Metrics from the collectors.
func scenarioTotals(cfg Config) (scenario.Metrics, int64) {
	sum := func(name string) int64 {
		var s int64
		for _, v := range cfg.acc(name).Values() {
			s += int64(v)
		}
		return s
	}
	var m scenario.Metrics
	m.Arrivals = sum("m/arrivals")
	m.Attempts = sum("m/attempts")
	m.Delivered = sum("m/delivered")
	m.Lost = sum("m/lost")
	m.OutOfRange = sum("m/oor")
	m.Handoffs = sum("m/handoffs")
	m.AirtimeNs = sum("m/airtime")
	m.DeferredNs = sum("m/deferred")
	for k := 0; k < phy.NumRates; k++ {
		m.RateCounts[k] = sum(fmt.Sprintf("m/rate%d", k))
	}
	return m, sum("m/events")
}

// scenarioRows renders the shared report shape for the city runs.
func scenarioRows(r *Report, sc scenario.Scenario, m scenario.Metrics, events int64) {
	attempts := float64(m.Attempts) / math.Max(float64(m.Arrivals-m.OutOfRange), 1)
	var high int64
	for k := phy.Rate24; k < phy.NumRates; k++ {
		high += m.RateCounts[k]
	}
	r.Columns = []string{"value"}
	r.Rows = []Row{
		{Label: "APs", Values: []float64{float64(sc.APCount())}},
		{Label: "clients", Values: []float64{float64(sc.ClientCount())}},
		{Label: "sim seconds", Values: []float64{sc.Duration.Seconds()}},
		{Label: "packet events", Values: []float64{float64(events)}},
		{Label: "delivery rate", Values: []float64{m.DeliveryRate()}},
		{Label: "handoffs", Values: []float64{float64(m.Handoffs)}},
		{Label: "out-of-range", Values: []float64{float64(m.OutOfRange)}},
		{Label: "attempts/packet", Values: []float64{attempts}},
		{Label: "share ≥24 Mbps", Values: []float64{float64(high) / math.Max(float64(m.Attempts), 1)}},
		{Label: "airtime (s)", Values: []float64{float64(m.AirtimeNs) / 1e9}},
		{Label: "deferred (s)", Values: []float64{float64(m.DeferredNs) / 1e9}},
	}
}

// CityScenario is the headline city: a full-coverage 170 m AP grid
// (nearest AP ≤ 121 m < the 130 m radio range everywhere) carrying a
// ConCap-style mix of walking voip/web, vehicular telemetry, and static
// kiosk sensors. Exported so the facade and examples can run the same
// city the city-grid experiment reports on.
func CityScenario(cfg Config) scenario.Scenario {
	side, clients, dur := citySize(cfg)
	peds, veh := clients*60/100, clients*25/100
	return scenario.Scenario{
		Name: "city-grid",
		Grid: scenario.APGrid{Side: side, Spacing: 170},
		Herds: []scenario.Herd{
			{
				Name: "pedestrians", Clients: peds,
				Mobility: scenario.MobilityProfile{SpeedMps: 1.4, SpeedJitter: 0.3, MeanSegment: 80},
				Traffic: scenario.TrafficMix{
					{Name: "voip", Bytes: 200, Interval: 250 * time.Millisecond},
					{Name: "web", Bytes: 1400, Interval: time.Second},
				},
			},
			{
				Name: "vehicles", Clients: veh,
				Mobility: scenario.MobilityProfile{SpeedMps: 9, SpeedJitter: 1.5, MeanSegment: 400, RoadHeadings: 4, RouteJitterDeg: 8},
				Traffic:  scenario.TrafficMix{{Name: "telemetry", Bytes: 1000, Interval: 500 * time.Millisecond}},
			},
			{
				Name: "kiosks", Clients: clients - peds - veh,
				Traffic: scenario.TrafficMix{{Name: "sensor", Bytes: 600, Interval: time.Second}},
			},
		},
		Duration: dur,
		Seed:     cfg.stream("city-grid/seed").Seed(0),
	}
}

// CityGrid runs the headline city once, sharded over client chunks.
func CityGrid(cfg Config) *Report {
	sc := CityScenario(cfg)
	chunks := cityChunks(cfg)
	n := sc.ClientCount()
	cfg.trials("city-grid", chunks, func(i int, em *Emitter) {
		emitScenario(em, scenario.RunChunk(sc, i*n/chunks, (i+1)*n/chunks))
	})
	if cfg.collecting() {
		return nil
	}

	m, events := scenarioTotals(cfg)
	r := &Report{
		ID:    "city-grid",
		Title: fmt.Sprintf("city-scale roaming: %d APs, %d clients, %v", sc.APCount(), sc.ClientCount(), sc.Duration),
		Paper: "event-driven engine carries ConCap-style city traffic; cost follows packet events, not APs×clients×slots",
	}
	scenarioRows(r, sc, m, events)
	r.Notes = append(r.Notes, fmt.Sprintf("one city trial sharded into %d client chunks; merged report is byte-identical to an unsharded run", chunks))
	r.AddCheck("full-coverage", m.OutOfRange == 0,
		"170 m grid spacing keeps every point within radio range; %d packets out of range", m.OutOfRange)
	r.AddCheck("delivery", m.DeliveryRate() > 0.9,
		"delivery rate %.3f over %d arrivals", m.DeliveryRate(), m.Arrivals)
	r.AddCheck("roaming", m.Handoffs > 0,
		"mobile herds handed off %d times", m.Handoffs)
	r.AddCheck("event-per-arrival", events == m.Arrivals,
		"%d engine events for %d packet arrivals", events, m.Arrivals)
	return r
}

// cityHandoffScenario shrinks the cells to 120 m and puts fast vehicles
// on them, so nearly every client crosses association boundaries
// continuously — the handoff-storm shape dense urban deployments hit.
func cityHandoffScenario(cfg Config) scenario.Scenario {
	side, clients, dur := citySize(cfg)
	clients /= 2
	if clients < 300 {
		clients = 300
	}
	return scenario.Scenario{
		Name: "city-handoff",
		Grid: scenario.APGrid{Side: side, Spacing: 120},
		Herds: []scenario.Herd{{
			Name: "vehicles", Clients: clients,
			Mobility: scenario.MobilityProfile{SpeedMps: 20, SpeedJitter: 3, MeanSegment: 500, RoadHeadings: 4, RouteJitterDeg: 5},
			Traffic:  scenario.TrafficMix{{Name: "probe", Bytes: 600, Interval: 300 * time.Millisecond}},
		}},
		Duration: dur,
		Seed:     cfg.stream("city-handoff/seed").Seed(0),
	}
}

// CityHandoff runs the handoff storm, sharded over client chunks.
func CityHandoff(cfg Config) *Report {
	sc := cityHandoffScenario(cfg)
	chunks := cityChunks(cfg)
	n := sc.ClientCount()
	cfg.trials("city-handoff", chunks, func(i int, em *Emitter) {
		emitScenario(em, scenario.RunChunk(sc, i*n/chunks, (i+1)*n/chunks))
	})
	if cfg.collecting() {
		return nil
	}

	m, events := scenarioTotals(cfg)
	perClientSec := float64(m.Handoffs) / (float64(sc.ClientCount()) * sc.Duration.Seconds())
	r := &Report{
		ID:    "city-handoff",
		Title: fmt.Sprintf("handoff storm: %d small cells, %d vehicles at 20 m/s", sc.APCount(), sc.ClientCount()),
		Paper: "20 m/s vehicles on 120 m cells re-associate roughly every cell crossing (~0.17/s per client)",
	}
	scenarioRows(r, sc, m, events)
	r.Rows = append(r.Rows, Row{Label: "handoffs/client/s", Values: []float64{perClientSec}})
	r.AddCheck("storm-rate", perClientSec > 0.08,
		"handoff rate %.3f per client-second (expect ≈0.17 from 20 m/s over 120 m cells)", perClientSec)
	r.AddCheck("delivery-under-storm", m.DeliveryRate() > 0.9,
		"delivery rate %.3f while storming", m.DeliveryRate())
	r.AddCheck("event-per-arrival", events == m.Arrivals,
		"%d engine events for %d packet arrivals", events, m.Arrivals)
	return r
}

// cityContendScenario packs a dense hotspot: many heavy clients per AP
// with the shared-medium model on, so transmissions defer behind each
// other. Contention couples clients, so this one cannot chunk — each
// trial is a whole (smaller) city with its own seed.
func cityContendScenario(cfg Config, seed int64) scenario.Scenario {
	side, clients, dur := citySize(cfg)
	side /= 4
	if side < 3 {
		side = 3
	}
	clients /= 10
	if clients < 200 {
		clients = 200
	}
	return scenario.Scenario{
		Name: "city-contend",
		Grid: scenario.APGrid{Side: side, Spacing: 110},
		Herds: []scenario.Herd{{
			Name: "crowd", Clients: clients,
			Mobility: scenario.MobilityProfile{SpeedMps: 1.4, SpeedJitter: 0.3, MeanSegment: 60},
			Traffic:  scenario.TrafficMix{{Name: "web", Bytes: 1400, Interval: 150 * time.Millisecond}},
		}},
		Duration:   dur,
		Contention: true,
		Seed:       seed,
	}
}

// CityContend runs the contended hotspot as whole-city trials.
func CityContend(cfg Config) *Report {
	trials := cfg.scaleInt(3, 2)
	ss := cfg.stream("city-contend")
	sc0 := cityContendScenario(cfg, ss.Seed(0))
	cfg.trials("city-contend", trials, func(i int, em *Emitter) {
		emitScenario(em, scenario.Run(cityContendScenario(cfg, ss.Seed(i))))
	})
	if cfg.collecting() {
		return nil
	}

	m, events := scenarioTotals(cfg)
	r := &Report{
		ID:    "city-contend",
		Title: fmt.Sprintf("dense-AP contention: %d APs, %d clients/trial × %d trials", sc0.APCount(), sc0.ClientCount(), trials),
		Paper: "per-AP medium occupancy defers co-located transmissions; totals stay within a few percent of the slot-driven oracle",
	}
	scenarioRows(r, sc0, m, events)
	defPerAttempt := float64(m.DeferredNs) / math.Max(float64(m.Attempts), 1) / 1e6
	r.Rows = append(r.Rows, Row{Label: "deferral ms/attempt", Values: []float64{defPerAttempt}})
	r.AddCheck("medium-deferral", m.DeferredNs > 0,
		"crowded cells deferred %.2f s of transmissions", float64(m.DeferredNs)/1e9)
	r.AddCheck("delivery-under-load", m.DeliveryRate() > 0.5,
		"delivery rate %.3f under contention", m.DeliveryRate())
	r.AddCheck("event-per-arrival", events == m.Arrivals,
		"%d engine events for %d packet arrivals", events, m.Arrivals)
	return r
}

// oracleCase is one differential in the scn-oracle suite: run returns a
// divergence measure (0 means identical), tol is the acceptance bound
// (0 for byte-exact cases).
type oracleCase struct {
	name string
	tol  float64
	run  func(seed int64) float64
}

// oracleScenarios is the paper-scale differential set — small enough
// for the slot-driven oracle's time×clients×APs cost, varied enough to
// cover static herds, walking, vehicular route jitter, multi-class
// mixes, and coverage gaps.
func oracleScenarios(seed int64) []scenario.Scenario {
	return []scenario.Scenario{
		{
			Name: "office",
			Grid: scenario.APGrid{Side: 3, Spacing: 160},
			Herds: []scenario.Herd{{
				Name: "desks", Clients: 40,
				Traffic: scenario.TrafficMix{{Name: "web", Bytes: 1000, Interval: 200 * time.Millisecond}},
			}},
			Duration: 10 * time.Second,
			Seed:     seed,
		},
		{
			Name: "campus",
			Grid: scenario.APGrid{Side: 4, Spacing: 180},
			Herds: []scenario.Herd{
				{
					Name: "pedestrians", Clients: 30,
					Mobility: scenario.MobilityProfile{SpeedMps: 1.4, SpeedJitter: 0.3, MeanSegment: 60},
					Traffic: scenario.TrafficMix{
						{Name: "voip", Bytes: 200, Interval: 60 * time.Millisecond},
						{Name: "web", Bytes: 1400, Interval: 400 * time.Millisecond},
					},
				},
				{
					Name: "kiosks", Clients: 10,
					Traffic: scenario.TrafficMix{{Name: "telemetry", Bytes: 600, Interval: 500 * time.Millisecond}},
				},
			},
			Duration: 12 * time.Second,
			Seed:     seed + 1,
		},
		{
			Name: "taxis",
			Grid: scenario.APGrid{Side: 5, Spacing: 240}, // sparse: real coverage gaps
			Herds: []scenario.Herd{{
				Name: "taxis", Clients: 25,
				Mobility: scenario.MobilityProfile{SpeedMps: 9, SpeedJitter: 1.5, MeanSegment: 300, RoadHeadings: 4, RouteJitterDeg: 10},
				Traffic:  scenario.TrafficMix{{Name: "probe", Bytes: 1000, Interval: 100 * time.Millisecond}},
			}},
			Duration: 15 * time.Second,
			Seed:     seed + 2,
		},
	}
}

// oracleCases enumerates the differential suite. The case list is a
// pure function of nothing — every trial derives its inputs from its
// own seed — so the suite shards like any other trial range.
func oracleCases() []oracleCase {
	var cases []oracleCase

	// Evented vs slot-driven engine: byte-identical Metrics and event
	// counts on contention-free scenarios.
	for idx := 0; idx < 3; idx++ {
		cases = append(cases, oracleCase{
			name: "evented-vs-slotted/" + oracleScenarios(0)[idx].Name,
			run: func(seed int64) float64 {
				sc := oracleScenarios(seed)[idx]
				ev, sl := scenario.Run(sc), scenario.RunSlotted(sc)
				if ev.Metrics != sl.Metrics || ev.Events != sl.Events {
					return 1
				}
				return 0
			},
		})
	}

	// Chunk union: any disjoint chunk cover merged in order reproduces
	// the full run — the property city-grid's fleet sharding rests on.
	cases = append(cases, oracleCase{
		name: "chunk-union/campus",
		run: func(seed int64) float64 {
			sc := oracleScenarios(seed)[1]
			want := scenario.Run(sc)
			var got scenario.Metrics
			var events int64
			n := sc.ClientCount()
			const chunks = 5
			for c := 0; c < chunks; c++ {
				res := scenario.RunChunk(sc, c*n/chunks, (c+1)*n/chunks)
				got.Merge(res.Metrics)
				events += res.Events
			}
			if got != want.Metrics || events != want.Events {
				return 1
			}
			return 0
		},
	})

	// Contention couples clients, so medium-acquisition order differs
	// between the engines; the totals must still agree statistically.
	cases = append(cases, oracleCase{
		name: "contended-delta",
		tol:  0.05,
		run: func(seed int64) float64 {
			sc := oracleScenarios(seed)[1]
			sc.Contention = true
			ev, sl := scenario.Run(sc), scenario.RunSlotted(sc)
			if ev.Metrics.Arrivals != sl.Metrics.Arrivals || ev.Metrics.DeferredNs == 0 {
				return 1
			}
			rel := func(a, b int64) float64 {
				return math.Abs(float64(a)-float64(b)) / math.Max(float64(b), 1)
			}
			return math.Max(rel(ev.Metrics.Delivered, sl.Metrics.Delivered),
				rel(ev.Metrics.AirtimeNs, sl.Metrics.AirtimeNs))
		},
	})

	// Mobility vs internal/vehicular: with matched speed and segment
	// parameters the scenario road model and the vehicular stepper must
	// produce statistically indistinguishable net displacement.
	cases = append(cases, oracleCase{
		name: "mobility-vs-vehicular",
		tol:  0.15,
		run: func(seed int64) float64 {
			const walkers = 300
			dur := 30 * time.Second
			vc := vehicular.MobilityConfig{
				Area: vehicular.Area{Width: 1000, Height: 1000}, Vehicles: walkers,
				MeanSpeed: 9, SpeedJitter: 1.5, MeanSegment: 300,
				Step: time.Second, Seed: seed,
			}
			sim := vehicular.NewSimulation(vc)
			start := append([]vehicular.Vehicle(nil), sim.Vehicles()...)
			for sim.Now() < dur {
				sim.Step()
			}
			var vmean float64
			for i, v := range sim.Vehicles() {
				vmean += sim.Distance(start[i], v)
			}
			vmean /= walkers
			smean := scenario.NetDisplacement(
				scenario.MobilityProfile{SpeedMps: 9, SpeedJitter: 1.5, MeanSegment: 300},
				scenario.Area{Width: 1000, Height: 1000}, seed+1, walkers, dur)
			return math.Abs(smean-vmean) / vmean
		},
	})
	return cases
}

// ScnOracle runs the differential suite, one case per trial.
func ScnOracle(cfg Config) *Report {
	cases := oracleCases()
	ss := cfg.stream("scn-oracle")
	cfg.trials("scn-oracle", len(cases), func(i int, em *Emitter) {
		em.Add("diff/"+cases[i].name, cases[i].run(ss.Seed(i)))
	})
	if cfg.collecting() {
		return nil
	}

	r := &Report{
		ID:    "scn-oracle",
		Title: "event engine vs slot-driven oracle differentials",
		Paper: "slot-driven runners are the oracle: byte-identical where replay is exact, within tolerance where engines interleave",
	}
	r.Columns = []string{"divergence"}
	for _, c := range cases {
		v := cfg.val("diff/" + c.name)
		r.Rows = append(r.Rows, Row{Label: c.name, Values: []float64{v}})
		if c.tol == 0 {
			r.AddCheck(c.name, v == 0, "divergence %v (must be exactly 0)", v)
		} else {
			r.AddCheck(c.name, v <= c.tol, "divergence %.4f (tolerance %.2f)", v, c.tol)
		}
	}
	return r
}
