// Package vehicular implements the §5.1 vehicular mesh evaluation: a
// road-constrained mobility model standing in for the paper's
// map-matched taxi traces, link formation by proximity, the
// heading-difference analysis of Table 5.1, the connection-time-estimate
// (CTE) routing metric, and the route-stability comparison against
// hint-free route selection.
//
// The paper's underlying assumption (§5.1.1) is that movement is
// constrained onto a common set of one-dimensional segments — roads — so
// two vehicles with similar headings are usually on the same road and
// separate slowly, while crossing vehicles separate at the full relative
// speed. The model here is exactly that abstraction: each vehicle drives
// straight along a road of arbitrary urban azimuth, occasionally turning
// onto a new road, on a toroidal 1 km² area so density stays constant
// (the paper likewise combines taxi traces into steady 100-vehicle
// networks). Link duration then follows the road geometry:
// range / (2·v·sin(Δheading/2)), which is the structure Table 5.1
// measures.
package vehicular

import (
	"math"
	"math/rand"
	"time"
)

// Area describes the simulated region: a torus of Width × Height metres.
type Area struct {
	Width, Height float64
}

// DefaultArea returns a 1 km² urban region.
func DefaultArea() Area { return Area{Width: 1000, Height: 1000} }

// Vehicle is one simulated vehicle's kinematic state.
type Vehicle struct {
	ID int
	// X, Y in metres within the area.
	X, Y float64
	// HeadingDeg is the road azimuth the vehicle travels, degrees
	// clockwise from north.
	HeadingDeg float64
	// SpeedMps is the current speed.
	SpeedMps float64
}

// MobilityConfig tunes the mobility model.
type MobilityConfig struct {
	Area Area
	// Vehicles is the fleet size (the paper simulates 100 per network).
	Vehicles int
	// MeanSpeed and SpeedJitter give per-vehicle speeds in m/s
	// (defaults 9 ± 3, city traffic).
	MeanSpeed, SpeedJitter float64
	// MeanSegment is the mean road-segment length before a turn, in
	// metres (default 1500 — taxis follow arterial roads for many blocks
	// between turns).
	MeanSegment float64
	// RoadHeadings, when non-zero, quantises road azimuths to this many
	// distinct directions (e.g. 4 for a pure Manhattan grid); 0 leaves
	// azimuths continuous, as in real urban maps.
	RoadHeadings int
	// Step is the simulation tick (default 1 s, matching the paper's
	// per-second trace positions).
	Step time.Duration
	Seed int64
}

// DefaultMobilityConfig returns the configuration used for the Table 5.1
// reproduction: 100 vehicles on 1 km².
func DefaultMobilityConfig(seed int64) MobilityConfig {
	return MobilityConfig{
		Area:        DefaultArea(),
		Vehicles:    100,
		MeanSpeed:   9,
		SpeedJitter: 1.5,
		MeanSegment: 1500,
		Step:        time.Second,
		Seed:        seed,
	}
}

// Simulation holds a running vehicular mobility simulation.
type Simulation struct {
	cfg  MobilityConfig
	rng  *rand.Rand
	vs   []Vehicle
	segs []segment // each vehicle's current road segment
	tick int
}

// segment is the road a vehicle is on: the metres left on it, and the
// sine and cosine of its heading, computed once when the segment begins.
type segment struct {
	togo, sin, cos float64
}

// NewSimulation places the fleet uniformly with random road headings.
func NewSimulation(cfg MobilityConfig) *Simulation {
	if cfg.Vehicles <= 0 {
		cfg.Vehicles = 100
	}
	if cfg.MeanSpeed <= 0 {
		cfg.MeanSpeed = 9
	}
	if cfg.Step <= 0 {
		cfg.Step = time.Second
	}
	if cfg.MeanSegment <= 0 {
		cfg.MeanSegment = 1500
	}
	if cfg.Area.Width <= 0 || cfg.Area.Height <= 0 {
		cfg.Area = DefaultArea()
	}
	s := &Simulation{
		cfg:  cfg,
		rng:  rand.New(rand.NewSource(cfg.Seed)),
		vs:   make([]Vehicle, 0, cfg.Vehicles),
		segs: make([]segment, 0, cfg.Vehicles),
	}
	for i := 0; i < cfg.Vehicles; i++ {
		v := Vehicle{ID: i}
		v.X = s.rng.Float64() * cfg.Area.Width
		v.Y = s.rng.Float64() * cfg.Area.Height
		v.HeadingDeg = s.newHeading()
		v.SpeedMps = math.Max(2, cfg.MeanSpeed+s.rng.NormFloat64()*cfg.SpeedJitter)
		s.vs = append(s.vs, v)
		s.segs = append(s.segs, s.newSegment(v.HeadingDeg))
	}
	return s
}

// newHeading draws a road azimuth, quantised if RoadHeadings is set.
func (s *Simulation) newHeading() float64 {
	if n := s.cfg.RoadHeadings; n > 0 {
		return float64(s.rng.Intn(n)) * 360 / float64(n)
	}
	return s.rng.Float64() * 360
}

// newSegment begins a road segment along the given heading, drawing its
// exponential length.
func (s *Simulation) newSegment(headingDeg float64) segment {
	rad := headingDeg * math.Pi / 180
	return segment{togo: s.rng.ExpFloat64() * s.cfg.MeanSegment, sin: math.Sin(rad), cos: math.Cos(rad)}
}

// Vehicles returns the current fleet state (shared slice; do not
// modify). Step moves each vehicle along the heading its road segment
// began with, so editing HeadingDeg from outside does not turn it.
func (s *Simulation) Vehicles() []Vehicle { return s.vs }

// Now returns the current simulation time.
func (s *Simulation) Now() time.Duration { return time.Duration(s.tick) * s.cfg.Step }

// Step advances every vehicle one tick: straight along its road, turning
// onto a new road when the segment ends, wrapping toroidally.
func (s *Simulation) Step() {
	dt := s.cfg.Step.Seconds()
	w, h := s.cfg.Area.Width, s.cfg.Area.Height
	for i := range s.vs {
		v, seg := &s.vs[i], &s.segs[i]
		dist := v.SpeedMps * dt
		for dist > 0 {
			move := dist
			if move > seg.togo {
				move = seg.togo
			}
			v.X = wrap(v.X+move*seg.sin, w)
			v.Y = wrap(v.Y+move*seg.cos, h)
			seg.togo -= move
			dist -= move
			if seg.togo <= 0 {
				v.HeadingDeg = s.newHeading()
				*seg = s.newSegment(v.HeadingDeg)
			}
		}
	}
	s.tick++
}

// wrap maps x onto the torus side [0, max). A coordinate already inside
// is returned as it is, which is what math.Mod returns for it. A
// remainder in (−ulp(max)/2, 0) plus max rounds to max itself, so that
// seam maps to 0.
func wrap(x, max float64) float64 {
	if 0 <= x && x < max {
		return x
	}
	x = math.Mod(x, max)
	if x < 0 {
		if x += max; x == max {
			return 0
		}
	}
	return x
}

// fold returns the toroidal distance, along an axis of the given side,
// between coordinates d apart: |d|, or side−|d| once |d| passes half the
// side. min gives, bit for bit, what that comparison would on a finite
// normal side, without a branch: up to side/2, side−|d| rounds to at
// least side/2 ≥ |d|; past it, side−|d| is smaller than |d| and is the
// value the comparison returns.
func fold(d, side float64) float64 {
	d = math.Abs(d)
	return min(d, side-d)
}

// offset returns the toroidal distances between two vehicles along the
// x and y axes.
func (ar Area) offset(a, b *Vehicle) (dx, dy float64) {
	return fold(a.X-b.X, ar.Width), fold(a.Y-b.Y, ar.Height)
}

// Distance returns the toroidal distance between two vehicles.
func (s *Simulation) Distance(a, b Vehicle) float64 { return math.Hypot(s.cfg.Area.offset(&a, &b)) }

// linked reports whether two vehicles dx and dy apart along the axes
// (offset) are within LinkRange, that is whether Distance ≤ LinkRange:
// the one in-range rule of link collection and routing. Go's hypot
// returns max·√(1+(min/max)²) ≥ max(dx, dy), so a pair already out of
// range on one axis skips the call with the same answer.
func linked(dx, dy float64) bool {
	return dx <= LinkRange && dy <= LinkRange && math.Hypot(dx, dy) <= LinkRange
}
