package vehicular

import (
	"math"
	"slices"
	"sort"
	"testing"
	"time"

	"repro/internal/sensors"
)

// The link collector, the toroidal distance and the wrap below are the
// forms the open-link table, the branch-free fold and wrap's in-range
// fast path replaced. They stay here as the oracles those rewrites are
// held to, bit for bit.

// pairScanLinks collects links the way CollectLinks did before its
// open-link table: open links in a map keyed by pair, every pair's full
// toroidal distance against LinkRange, and a final sort into (Start, A,
// B) order.
func pairScanLinks(sim *Simulation, total time.Duration) []LinkRecord {
	type key struct{ a, b int }
	open := map[key]*LinkRecord{}
	var done []LinkRecord
	n := len(sim.Vehicles())
	for sim.Now() < total {
		now := sim.Now()
		vs := sim.Vehicles()
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				k := key{i, j}
				inRange := pairScanDistance(sim.cfg.Area, vs[i], vs[j]) <= LinkRange
				rec, isOpen := open[k]
				switch {
				case inRange && !isOpen:
					open[k] = &LinkRecord{
						A:                i,
						B:                j,
						StartHeadingDiff: sensors.HeadingSeparation(vs[i].HeadingDeg, vs[j].HeadingDeg),
						Start:            now,
					}
				case !inRange && isOpen:
					rec.End = now
					done = append(done, *rec)
					delete(open, k)
				}
			}
		}
		sim.Step()
	}
	horizon := sim.Now()
	for _, rec := range open {
		rec.End = horizon
		done = append(done, *rec)
	}
	sort.Slice(done, func(i, j int) bool {
		if done[i].Start != done[j].Start {
			return done[i].Start < done[j].Start
		}
		if done[i].A != done[j].A {
			return done[i].A < done[j].A
		}
		return done[i].B < done[j].B
	})
	return done
}

// pairScanDistance is the toroidal distance with each axis folded by
// comparison against half the side.
func pairScanDistance(ar Area, a, b Vehicle) float64 {
	dx := math.Abs(a.X - b.X)
	if dx > ar.Width/2 {
		dx = ar.Width - dx
	}
	dy := math.Abs(a.Y - b.Y)
	if dy > ar.Height/2 {
		dy = ar.Height - dy
	}
	return math.Hypot(dx, dy)
}

// modWrap is wrap without its in-range fast path: the math.Mod form,
// with the seam where a tiny negative remainder plus max rounds to max
// mapped to 0.
func modWrap(x, max float64) float64 {
	x = math.Mod(x, max)
	if x < 0 {
		x += max
	}
	if x == max {
		return 0
	}
	return x
}

// FuzzCollectLinksMatchesPairScan runs CollectLinks and pairScanLinks
// on two copies of one fleet and requires identical links, then checks
// Distance against pairScanDistance for every pair of the final fleet.
// Fleets have 2–120 vehicles on a square torus of side 50–1000 m, with
// continuous or four-direction roads, steps of 0.25–2 s and horizons up
// to 60 s. Below a side of 2·LinkRange every axis distance folds to at
// most LinkRange, so the axis test never skips hypot there.
func FuzzCollectLinksMatchesPairScan(f *testing.F) {
	f.Add(int64(1), uint8(40), 1000.0, false, 1.0, uint8(60))  // Table 5.1's area and step
	f.Add(int64(2), uint8(120), 150.0, false, 0.25, uint8(20)) // side below 2·LinkRange, crowded
	f.Add(int64(3), uint8(60), 199.99, true, 0.5, uint8(40))   // just below 2·LinkRange, grid roads
	f.Add(int64(4), uint8(30), 200.0, true, 2.0, uint8(60))    // exactly 2·LinkRange, long steps
	f.Add(int64(5), uint8(2), 50.0, false, 0.3, uint8(60))     // smallest fleet and area
	f.Add(int64(6), uint8(80), 420.0, false, 0.75, uint8(0))   // zero horizon: no links
	f.Fuzz(func(t *testing.T, seed int64, vehicles uint8, side float64, grid bool, stepS float64, horizonS uint8) {
		if math.IsNaN(side) || math.IsNaN(stepS) {
			return
		}
		cfg := DefaultMobilityConfig(seed)
		cfg.Vehicles = min(max(int(vehicles), 2), 120)
		side = min(max(side, 50), 1000)
		cfg.Area = Area{Width: side, Height: side}
		if grid {
			cfg.RoadHeadings = 4
		}
		cfg.Step = time.Duration(min(max(stepS, 0.25), 2) * float64(time.Second))
		horizon := time.Duration(min(horizonS, 60)) * time.Second

		sim := NewSimulation(cfg)
		got := CollectLinks(sim, horizon)
		want := pairScanLinks(NewSimulation(cfg), horizon)
		if !slices.Equal(got, want) {
			for i := 0; i < len(got) && i < len(want); i++ {
				if got[i] != want[i] {
					t.Fatalf("%+v over %v: link %d is %+v, pair scan has %+v", cfg, horizon, i, got[i], want[i])
				}
			}
			t.Fatalf("%+v over %v: %d links, pair scan has %d", cfg, horizon, len(got), len(want))
		}
		vs := sim.Vehicles()
		for i := range vs {
			for j := range vs {
				if d, w := sim.Distance(vs[i], vs[j]), pairScanDistance(cfg.Area, vs[i], vs[j]); math.Float64bits(d) != math.Float64bits(w) {
					t.Fatalf("%+v: Distance(%d, %d) = %v, pair scan %v", cfg, i, j, d, w)
				}
			}
		}
	})
}

// TestWrapMatchesMod pins wrap's fast path to the math.Mod form at the
// edges of [0, max) and past them, bit for bit (−0 stays −0).
func TestWrapMatchesMod(t *testing.T) {
	for _, max := range []float64{1000, 199.99, 50, 3} {
		ulp := max - math.Nextafter(max, 0)
		for _, x := range []float64{
			0, math.Copysign(0, -1), math.Nextafter(max, 0), max, -ulp,
			-math.SmallestNonzeroFloat64, 2*max - ulp, -max, max / 2, 7 * max, -7.5 * max,
		} {
			if got, want := wrap(x, max), modWrap(x, max); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("wrap(%v, %v) = %v, math.Mod form %v", x, max, got, want)
			}
		}
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

// TestFoldMatchesBranch pins fold's min to the comparison against half
// the side that it replaced, bit for bit, around half the side, the
// side, twice the side and beyond.
func TestFoldMatchesBranch(t *testing.T) {
	branch := func(d, side float64) float64 {
		d = math.Abs(d)
		if d > side/2 {
			d = side - d
		}
		return d
	}
	for _, side := range []float64{1000, 199.99, 50, 3, 0.1} {
		var ds []float64
		for _, c := range []float64{0, side / 2, side, 2 * side, 3 * side, 1e300} {
			ds = append(ds, c, math.Nextafter(c, 0), math.Nextafter(c, math.Inf(1)))
		}
		ds = append(ds, math.Copysign(0, -1), math.SmallestNonzeroFloat64, math.Inf(1))
		for _, d := range ds {
			for _, sd := range []float64{d, -d} {
				if got, want := fold(sd, side), branch(sd, side); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("fold(%v, %v) = %v, comparison form %v", sd, side, got, want)
				}
			}
		}
	}
}
