package sensorhints

import (
	"time"

	"repro/internal/channel"
	"repro/internal/experiments"
	"repro/internal/phy"
	"repro/internal/probing"
	"repro/internal/rate"
	"repro/internal/ratesim"
	"repro/internal/scenario"
	"repro/internal/sim"
	"repro/internal/trace"
	"repro/internal/vehicular"
)

// PHY layer.
type (
	// Rate is one of the eight 802.11a OFDM bit rates.
	Rate = phy.Rate
)

// The 802.11a OFDM rates.
const (
	Rate6  = phy.Rate6
	Rate9  = phy.Rate9
	Rate12 = phy.Rate12
	Rate18 = phy.Rate18
	Rate24 = phy.Rate24
	Rate36 = phy.Rate36
	Rate48 = phy.Rate48
	Rate54 = phy.Rate54
)

// Channel simulation and traces.
type (
	// Environment parameterises a simulated wireless channel.
	Environment = channel.Environment
	// ChannelConfig controls one trace generation run.
	ChannelConfig = channel.Config
	// FateTrace is a per-slot, per-rate packet-fate trace.
	FateTrace = trace.FateTrace
)

// The paper's evaluation environments.
var (
	Office        = channel.Office
	Hallway       = channel.Hallway
	Outdoor       = channel.Outdoor
	VehicularRoad = channel.Vehicular
)

// GenerateTrace produces a channel fate trace.
func GenerateTrace(cfg ChannelConfig) *FateTrace { return channel.Generate(cfg) }

// Rate adaptation (Chapter 3).
type (
	// RateAdapter is a bit-rate adaptation protocol.
	RateAdapter = rate.Adapter
	// HintAwareRate switches RapidSample/SampleRate on movement hints.
	HintAwareRate = rate.HintAware
	// RapidSample is the paper's mobile-optimised protocol (Fig 3-2).
	RapidSample = rate.RapidSample
	// SampleRate is Bicket's static-optimised baseline.
	SampleRate = rate.SampleRate
	// SimConfig parameterises a trace-driven MAC run.
	SimConfig = ratesim.Config
	// SimResult summarises a MAC run.
	SimResult = ratesim.Result
)

// Workloads for the MAC harness.
const (
	UDP = ratesim.UDP
	TCP = ratesim.TCP
)

// NewRapidSample returns the paper's RapidSample protocol.
func NewRapidSample() *RapidSample { return rate.NewRapidSample() }

// NewSampleRate returns a SampleRate instance.
func NewSampleRate(seed int64) *SampleRate { return rate.NewSampleRate(seed) }

// NewRRAA returns an RRAA instance.
func NewRRAA() RateAdapter { return rate.NewRRAA() }

// NewRBAR returns an RBAR instance.
func NewRBAR() RateAdapter { return rate.NewRBAR() }

// NewCHARM returns a CHARM instance.
func NewCHARM() RateAdapter { return rate.NewCHARM() }

// NewHintAwareRate returns the hint-aware switcher of §3.2.
func NewHintAwareRate(seed int64) *HintAwareRate { return rate.NewHintAware(seed) }

// RunRateSim replays a trace against an adapter.
func RunRateSim(cfg SimConfig) SimResult { return ratesim.Run(cfg) }

// Topology maintenance (Chapter 4).
type (
	// DeliveryEstimator is the sliding-window delivery-probability
	// estimator.
	DeliveryEstimator = probing.Estimator
	// ProbeScheduler decides when to probe.
	ProbeScheduler = probing.Scheduler
	// FixedProbing probes at a constant rate.
	FixedProbing = probing.FixedScheduler
	// HintProbing is the §4.2 hint-adaptive scheduler.
	HintProbing = probing.HintScheduler
)

// RunProbing drives a probe scheduler over a trace.
func RunProbing(tr *FateTrace, sched ProbeScheduler, windowProbes int, seed int64) probing.RunResult {
	return probing.RunScheduler(tr, sched, windowProbes, seed)
}

// Vehicular networking (§5.1).
type (
	// VehicleSim is the road-constrained mobility simulation.
	VehicleSim = vehicular.Simulation
	// VehicleMobilityConfig tunes it.
	VehicleMobilityConfig = vehicular.MobilityConfig
)

// CTE is the connection time estimate metric: the inverse heading
// difference of a link.
func CTE(headingDiffDeg float64) float64 { return vehicular.CTE(headingDiffDeg) }

// NewVehicleSim returns a fleet simulation.
func NewVehicleSim(cfg VehicleMobilityConfig) *VehicleSim { return vehicular.NewSimulation(cfg) }

// DefaultVehicleMobility returns the Table 5.1 configuration.
func DefaultVehicleMobility(seed int64) VehicleMobilityConfig {
	return vehicular.DefaultMobilityConfig(seed)
}

// The event-driven simulation core: a discrete-event engine with two
// interchangeable backends — a binary heap and an indexed timer wheel —
// that fire identical event sequences.
type (
	// EventEngine orders and fires scheduled events.
	EventEngine = sim.Engine
	// EventHandle identifies a scheduled event for Cancel/Reschedule.
	// Use the handle Reschedule returns from then on: a fired event is
	// re-armed in place and comes back as the same handle.
	EventHandle = sim.Event
)

// NewEventEngine returns a heap-backed event engine.
func NewEventEngine() *EventEngine { return sim.New() }

// NewTimerWheel returns a timer-wheel event engine: O(1) scheduling
// inside the slotDur×nslots horizon, heap overflow beyond it, firing
// order identical to NewEventEngine.
func NewTimerWheel(slotDur time.Duration, nslots int) *EventEngine {
	return sim.NewWheel(slotDur, nslots)
}

// The city-scale Scenario API: declare AP grids, client herds, mobility
// profiles and traffic mixes; run them on the event engine or the
// slot-driven oracle.
type (
	// Scenario is a declarative city: grid, radio, herds, duration.
	Scenario = scenario.Scenario
	// ScenarioArea is the toroidal simulation area in metres.
	ScenarioArea = scenario.Area
	// APGrid places a Side×Side grid of access points.
	APGrid = scenario.APGrid
	// ScenarioRadio is the log-distance radio model.
	ScenarioRadio = scenario.Radio
	// MobilityProfile describes how a herd moves.
	MobilityProfile = scenario.MobilityProfile
	// TrafficClass is one periodic packet flow.
	TrafficClass = scenario.TrafficClass
	// TrafficMix is a herd's set of traffic classes.
	TrafficMix = scenario.TrafficMix
	// Herd is a group of clients sharing mobility and traffic.
	Herd = scenario.Herd
	// ScenarioMetrics is the integer outcome counters of a run.
	ScenarioMetrics = scenario.Metrics
	// ScenarioResult is metrics plus engine bookkeeping.
	ScenarioResult = scenario.Result
)

// DefaultScenarioRadio returns the calibrated radio model.
func DefaultScenarioRadio() ScenarioRadio { return scenario.DefaultRadio() }

// RunScenario executes a scenario on the event-driven engine (timer
// wheel + spatial AP index); cost follows packet events.
func RunScenario(sc Scenario) ScenarioResult { return scenario.Run(sc) }

// RunScenarioSlotted executes a scenario on the slot-driven oracle;
// contention-free results are byte-identical to RunScenario.
func RunScenarioSlotted(sc Scenario) ScenarioResult { return scenario.RunSlotted(sc) }

// RunScenarioChunk runs clients [lo, hi) of a contention-free scenario;
// merging a disjoint cover reproduces RunScenario exactly.
func RunScenarioChunk(sc Scenario, lo, hi int) ScenarioResult {
	return scenario.RunChunk(sc, lo, hi)
}

// DefaultCityScenario returns the city-grid experiment's city at the
// given scale: 1.0 is 1024 APs and 100,000 clients for 40 s.
func DefaultCityScenario(scale float64) Scenario {
	return experiments.CityScenario(experiments.Config{Scale: scale, Seed: 42})
}

// Experiments: the per-table/figure reproduction harness.
type (
	// Experiment is one registered table/figure runner.
	Experiment = experiments.Runner
	// ExperimentConfig scales experiment runs.
	ExperimentConfig = experiments.Config
	// ExperimentReport is a reproduction report with shape checks.
	ExperimentReport = experiments.Report
	// ExperimentRegistry is a catalogue of experiments with id and tag
	// lookup; the package-level registry is what Experiments() serves.
	ExperimentRegistry = experiments.Registry
)

// Experiments returns every registered experiment.
func Experiments() []Experiment { return experiments.All() }

// ExperimentByID returns one experiment by id (e.g. "fig3-5").
func ExperimentByID(id string) (Experiment, bool) { return experiments.ByID(id) }

// ExperimentsByTag returns every experiment carrying the tag (e.g.
// "scenario", "paper").
func ExperimentsByTag(tag string) []Experiment { return experiments.Default.ByTag(tag) }

// ExperimentTags returns the sorted union of registry tags.
func ExperimentTags() []string { return experiments.Default.Tags() }

// quickstart convenience: DetectMovement runs the §2.2.1 detector over a
// whole accelerometer trace and returns the per-report hint values.
func DetectMovement(samples []AccelSample) []bool {
	d := NewMovementDetector(MovementConfig{})
	out := make([]bool, len(samples))
	for i, s := range samples {
		out[i] = d.Update(s)
	}
	return out
}

// DetectionLatency measures how long after ground-truth motion onset the
// detector raises the hint, for a trace whose motion starts at onset.
// It returns −1 if the hint never rises.
func DetectionLatency(samples []AccelSample, onset time.Duration) time.Duration {
	d := NewMovementDetector(MovementConfig{})
	for _, s := range samples {
		if d.Update(s) && s.T >= onset {
			return s.T - onset
		}
	}
	return -1
}
