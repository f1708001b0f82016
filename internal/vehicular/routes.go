package vehicular

import (
	"math/rand"
	"time"
)

// Route-stability simulation for §5.1.2: each trial picks a source
// vehicle, builds a route to a destination a few hops away, and measures
// how long the route survives (every hop staying within LinkRange).
// CTE-guided selection prefers neighbours with similar headings;
// hint-free selection picks among in-range neighbours without heading
// knowledge (by shortest geographic progress, the standard
// greedy-geographic baseline).

// RouteSelector chooses the next hop from candidates.
type RouteSelector interface {
	Name() string
	// Pick returns the index of the chosen candidate.
	Pick(self Vehicle, cands []Vehicle, rng *rand.Rand) int
}

// CTESelector prefers the candidate with the highest CTE (most similar
// heading) — the hint-aware strategy.
type CTESelector struct{}

// Name implements RouteSelector.
func (CTESelector) Name() string { return "CTE" }

// Pick implements RouteSelector.
func (CTESelector) Pick(self Vehicle, cands []Vehicle, rng *rand.Rand) int {
	best, bestCTE := 0, -1.0
	for i, c := range cands {
		d := headingSeparation(self.HeadingDeg, c.HeadingDeg)
		if cte := CTE(d); cte > bestCTE {
			best, bestCTE = i, cte
		}
	}
	return best
}

// RandomSelector picks uniformly among in-range neighbours — the
// hint-free baseline (no heading information, all in-range neighbours
// look equally good to a proximity-based protocol).
type RandomSelector struct{}

// Name implements RouteSelector.
func (RandomSelector) Name() string { return "hint-free" }

// Pick implements RouteSelector.
func (RandomSelector) Pick(self Vehicle, cands []Vehicle, rng *rand.Rand) int {
	return rng.Intn(len(cands))
}

func headingSeparation(a, b float64) float64 {
	d := a - b
	for d < 0 {
		d += 360
	}
	for d >= 360 {
		d -= 360
	}
	if d > 180 {
		d = 360 - d
	}
	return d
}

// StabilityConfig parameterises a route-stability experiment.
type StabilityConfig struct {
	Mobility MobilityConfig
	// Hops is the route length in links (default 3).
	Hops int
	// Trials is the number of routes measured (default 200).
	Trials int
	// Horizon bounds each route-lifetime measurement (default 120 s).
	Horizon time.Duration
	Seed    int64
}

// RouteLifetimeTrial runs one self-contained route-stability attempt:
// its own simulation and RNG both derive from the given seed, so trials
// are independent and can run concurrently in any order. It returns the
// route lifetime in seconds; ok is false when no route could be
// constructed from the sampled source (sparse neighbourhood).
func RouteLifetimeTrial(cfg StabilityConfig, sel RouteSelector, seed int64) (life float64, ok bool) {
	if cfg.Hops <= 0 {
		cfg.Hops = 3
	}
	if cfg.Horizon <= 0 {
		cfg.Horizon = 120 * time.Second
	}
	mcfg := cfg.Mobility
	mcfg.Seed = seed
	sim := NewSimulation(mcfg)
	// Warm up so vehicle positions decorrelate from the initial
	// placement.
	for i := 0; i < 10; i++ {
		sim.Step()
	}
	// The route-construction RNG is decoupled from the mobility seed so
	// the same fleet can be re-rolled with different sources if desired.
	rng := rand.New(rand.NewSource(seed ^ 0x5deece66d))
	route, built := buildRoute(sim, sel, cfg.Hops, rng)
	if !built {
		return 0, false
	}
	return measureRoute(sim, route, cfg.Horizon).Seconds(), true
}

// RouteLifetimes measures the lifetime of Trials routes built with the
// selector: a route dies when any hop separates beyond LinkRange. It
// returns one lifetime in seconds per successfully constructed route,
// retrying failed constructions up to 4× Trials attempts. Each attempt
// is an independent RouteLifetimeTrial with an attempt-indexed seed.
func RouteLifetimes(cfg StabilityConfig, sel RouteSelector) []float64 {
	if cfg.Trials <= 0 {
		cfg.Trials = 200
	}
	var lifetimes []float64
	for attempt := 0; len(lifetimes) < cfg.Trials && attempt < cfg.Trials*4; attempt++ {
		if life, ok := RouteLifetimeTrial(cfg, sel, cfg.Seed+int64(attempt)*104729); ok {
			lifetimes = append(lifetimes, life)
		}
	}
	return lifetimes
}

// buildRoute grows a route from a random source, one hop at a time,
// asking the selector to choose among in-range candidates not already on
// the route.
func buildRoute(sim *Simulation, sel RouteSelector, hops int, rng *rand.Rand) ([]int, bool) {
	vs := sim.Vehicles()
	src := rng.Intn(len(vs))
	route := []int{src}
	used := map[int]bool{src: true}
	cur := src
	for len(route) <= hops {
		var cands []Vehicle
		var ids []int
		for i := range vs {
			if used[i] {
				continue
			}
			if linked(sim.cfg.Area.offset(&vs[cur], &vs[i])) {
				cands = append(cands, vs[i])
				ids = append(ids, i)
			}
		}
		if len(cands) == 0 {
			return nil, false
		}
		pick := sel.Pick(vs[cur], cands, rng)
		cur = ids[pick]
		route = append(route, cur)
		used[cur] = true
	}
	return route, true
}

// measureRoute steps the simulation until some hop exceeds LinkRange or
// the horizon passes, returning the elapsed time.
func measureRoute(sim *Simulation, route []int, horizon time.Duration) time.Duration {
	start := sim.Now()
	for sim.Now()-start < horizon {
		vs := sim.Vehicles()
		for i := 0; i+1 < len(route); i++ {
			if !linked(sim.cfg.Area.offset(&vs[route[i]], &vs[route[i+1]])) {
				return sim.Now() - start
			}
		}
		sim.Step()
	}
	return horizon
}
