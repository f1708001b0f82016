// Package scenario is the declarative city-scale scenario engine: a
// small DSL (AP grid, client herds, mobility profiles, ConCap-style
// traffic mixes) compiled onto the discrete-event core of internal/sim.
//
// The same compiled scenario runs on two engines:
//
//   - Run is the event-driven engine. Each client re-arms its one event
//     for its next packet arrival on a timer wheel (sim.NewWheel) and
//     resolves its serving AP on the AP lattice in O(1), so cost scales
//     with packet events, not with simulated time × nodes × APs — idle
//     links generate no work at all, and an event allocates nothing.
//   - RunSlotted is the slot-driven oracle in the style of the paper's
//     runners (internal/ratesim, internal/ap, internal/vehicular): an
//     outer loop over fixed time slots, an inner loop over every
//     client, and a linear scan over every AP per packet.
//
// Every client draws all its randomness from its own splitmix64 stream
// seeded by global client index, and every metric inside Metrics is an
// integer counter, so for contention-free scenarios the two engines
// produce byte-identical Metrics even though they process clients in
// different orders (TestEventedMatchesSlotted). Contention couples
// clients through the shared per-AP medium, whose acquisition order is
// engine-dependent, so contended runs are compared statistically
// instead.
package scenario

import (
	"fmt"
	"time"

	"repro/internal/phy"
)

// Area is the toroidal simulation region in metres. Like
// internal/vehicular, the region wraps so client density stays constant
// without boundary effects.
type Area struct {
	Width, Height float64
}

// APGrid places Side×Side access points on a uniform grid with the
// given spacing; AP i sits at ((i%Side+0.5)·Spacing, (i/Side+0.5)·Spacing).
// The scenario's area is the grid's footprint (Side·Spacing square).
type APGrid struct {
	// Side is the number of APs along each axis.
	Side int
	// Spacing is the distance between adjacent APs in metres.
	Spacing float64
}

// Radio models every link in the scenario with log-distance path loss:
// SNR(d) = RefSNR − 10·PathLossExp·log10(max(d, 1 m)). Rates, delivery
// probabilities, and airtimes then come from the phy error tables, the
// same model the paper-scale runners use.
type Radio struct {
	// RangeM is the association range: an AP farther than this is not a
	// candidate and generates no events.
	RangeM float64
	// RefSNR is the SNR (dB) at 1 m.
	RefSNR float64
	// PathLossExp is the path-loss exponent (≈3 urban).
	PathLossExp float64
	// SNRNoise is the 1-σ measurement noise (dB) on the SNR the rate
	// selection sees; the channel fate uses the true SNR.
	SNRNoise float64
	// RetryLimit is the MAC retransmission limit per packet.
	RetryLimit int
}

// DefaultRadio returns an urban microcell radio: ~130 m useful range
// with the 6 Mbps edge marginal, matching the phy error tables.
func DefaultRadio() Radio {
	return Radio{RangeM: 130, RefSNR: 68, PathLossExp: 3, SNRNoise: 1.5, RetryLimit: 3}
}

// MobilityProfile gives a herd its movement model: the road-constrained
// random-segment walk of internal/vehicular (straight legs of
// exponential length, a fresh heading and speed per leg) with speed and
// route jitter knobs. SpeedMps = 0 is a static herd that draws nothing.
type MobilityProfile struct {
	// SpeedMps and SpeedJitter draw each leg's speed as
	// max(2, SpeedMps + N(0,1)·SpeedJitter) m/s.
	SpeedMps, SpeedJitter float64
	// MeanSegment is the mean leg length in metres before a turn.
	MeanSegment float64
	// RoadHeadings, when non-zero, quantises headings to this many road
	// azimuths (4 = Manhattan grid); 0 leaves them continuous.
	RoadHeadings int
	// RouteJitterDeg perturbs each quantised heading by ±RouteJitterDeg/2,
	// modelling lane changes and curved blocks. Ignored when
	// RoadHeadings is 0 (continuous headings are already jittered).
	RouteJitterDeg float64
}

// Static reports whether the profile never moves.
func (p MobilityProfile) Static() bool { return p.SpeedMps <= 0 }

// TrafficClass is one ConCap-style application class: every client of
// the herd sends one Bytes-sized packet per Interval, with a random
// phase so herds do not transmit in lockstep.
type TrafficClass struct {
	Name  string
	Bytes int
	// Interval is the per-client inter-arrival time.
	Interval time.Duration
}

// TrafficMix is the set of classes every client of a herd runs
// concurrently.
type TrafficMix []TrafficClass

// Herd is a population of identically configured clients.
type Herd struct {
	Name    string
	Clients int
	// Mobility moves the herd; the zero value is static.
	Mobility MobilityProfile
	Traffic  TrafficMix
}

// Scenario is the full declarative spec. The zero values of most fields
// fall back to sensible defaults (see compile); Grid and at least one
// herd with traffic are required.
type Scenario struct {
	Name  string
	Grid  APGrid
	Radio Radio
	Herds []Herd
	// Duration is the simulated time (default 30 s).
	Duration time.Duration
	// SlotDur is the slot width of the slot-driven oracle engine
	// (default 100 ms). The event-driven engine ignores it.
	SlotDur time.Duration
	// Contention serialises transmissions per AP: a packet arriving
	// while its AP's medium is busy defers until the medium frees. This
	// couples clients, so contended runs are engine-order dependent and
	// compared statistically rather than byte-for-byte.
	Contention bool
	Seed       int64
}

// Area returns the toroidal region the grid spans.
func (sc Scenario) Area() Area {
	side := float64(sc.Grid.Side) * sc.Grid.Spacing
	return Area{Width: side, Height: side}
}

// APCount returns the number of access points.
func (sc Scenario) APCount() int { return sc.Grid.Side * sc.Grid.Side }

// ClientCount returns the total population across herds.
func (sc Scenario) ClientCount() int {
	n := 0
	for _, h := range sc.Herds {
		n += h.Clients
	}
	return n
}

// Validate reports the first structural problem with the spec, nil if
// it is runnable.
func (sc Scenario) Validate() error {
	if sc.Grid.Side < 1 || sc.Grid.Spacing <= 0 {
		return fmt.Errorf("scenario %q: AP grid needs Side ≥ 1 and positive Spacing (got %d, %g)", sc.Name, sc.Grid.Side, sc.Grid.Spacing)
	}
	if len(sc.Herds) == 0 {
		return fmt.Errorf("scenario %q: no herds", sc.Name)
	}
	for _, h := range sc.Herds {
		if h.Clients < 1 {
			return fmt.Errorf("scenario %q: herd %q has no clients", sc.Name, h.Name)
		}
		if len(h.Traffic) == 0 {
			return fmt.Errorf("scenario %q: herd %q has no traffic classes", sc.Name, h.Name)
		}
		for _, tc := range h.Traffic {
			if tc.Bytes <= 0 || tc.Interval <= 0 {
				return fmt.Errorf("scenario %q: herd %q class %q needs positive Bytes and Interval", sc.Name, h.Name, tc.Name)
			}
		}
	}
	return nil
}

// Metrics is the integer outcome of a run. Every field is an
// order-independent sum over per-client counters, which is what lets
// the two engines be compared with ==; event counts and wall-clock
// live in Result, outside the compared struct.
type Metrics struct {
	// Arrivals counts packet arrivals (one per client per class per
	// interval); Attempts counts MAC transmissions including retries.
	Arrivals, Attempts int64
	// Delivered and Lost partition arrivals; OutOfRange is the subset of
	// Lost where no AP was in range (counted in both).
	Delivered, Lost, OutOfRange int64
	// Handoffs counts serving-AP changes between consecutive arrivals of
	// one client (both APs in range).
	Handoffs int64
	// RateCounts histograms attempts by bit rate.
	RateCounts [phy.NumRates]int64
	// AirtimeNs sums the airtime of every attempt; DeferredNs sums the
	// time packets waited for a busy medium (contention only).
	AirtimeNs, DeferredNs int64
}

// add accumulates o into m.
func (m *Metrics) add(o *Metrics) {
	m.Arrivals += o.Arrivals
	m.Attempts += o.Attempts
	m.Delivered += o.Delivered
	m.Lost += o.Lost
	m.OutOfRange += o.OutOfRange
	m.Handoffs += o.Handoffs
	for i := range m.RateCounts {
		m.RateCounts[i] += o.RateCounts[i]
	}
	m.AirtimeNs += o.AirtimeNs
	m.DeferredNs += o.DeferredNs
}

// Merge accumulates o into m. Merging the Results of a disjoint
// RunChunk cover in chunk order reproduces Run's Metrics exactly —
// every field is an integer count, so the merge is associative and
// order only matters for readability.
func (m *Metrics) Merge(o Metrics) { m.add(&o) }

// DeliveryRate returns the fraction of arrivals delivered.
func (m Metrics) DeliveryRate() float64 {
	if m.Arrivals == 0 {
		return 0
	}
	return float64(m.Delivered) / float64(m.Arrivals)
}

// Result is one engine run's output.
type Result struct {
	Metrics Metrics
	// Events counts the packet arrivals the engine processed — the unit
	// the event-driven engine's cost scales in.
	Events int64
	// APs and Clients echo the compiled population.
	APs, Clients int
}
