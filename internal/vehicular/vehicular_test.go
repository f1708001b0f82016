package vehicular

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestSimulationDeterminism(t *testing.T) {
	a := NewSimulation(DefaultMobilityConfig(3))
	b := NewSimulation(DefaultMobilityConfig(3))
	for i := 0; i < 30; i++ {
		a.Step()
		b.Step()
	}
	for i := range a.Vehicles() {
		if a.Vehicles()[i] != b.Vehicles()[i] {
			t.Fatalf("vehicle %d differs across same-seed runs", i)
		}
	}
}

func TestVehiclesStayInArea(t *testing.T) {
	cfg := DefaultMobilityConfig(4)
	sim := NewSimulation(cfg)
	for i := 0; i < 120; i++ {
		sim.Step()
	}
	for _, v := range sim.Vehicles() {
		if v.X < 0 || v.X >= cfg.Area.Width || v.Y < 0 || v.Y >= cfg.Area.Height {
			t.Fatalf("vehicle %d escaped: (%v, %v)", v.ID, v.X, v.Y)
		}
	}
}

func TestVehiclesMove(t *testing.T) {
	sim := NewSimulation(DefaultMobilityConfig(5))
	before := append([]Vehicle(nil), sim.Vehicles()...)
	sim.Step()
	moved := 0
	for i, v := range sim.Vehicles() {
		if v.X != before[i].X || v.Y != before[i].Y {
			moved++
		}
	}
	if moved != len(before) {
		t.Errorf("only %d/%d vehicles moved", moved, len(before))
	}
	if sim.Now() != time.Second {
		t.Errorf("Now = %v", sim.Now())
	}
}

func TestToroidalDistance(t *testing.T) {
	sim := NewSimulation(DefaultMobilityConfig(1))
	a := Vehicle{X: 10, Y: 10}
	b := Vehicle{X: 990, Y: 10}
	// Across the wrap the distance is 20, not 980.
	if d := sim.Distance(a, b); math.Abs(d-20) > 1e-9 {
		t.Errorf("toroidal distance = %v, want 20", d)
	}
	c := Vehicle{X: 10, Y: 990}
	if d := sim.Distance(a, c); math.Abs(d-20) > 1e-9 {
		t.Errorf("toroidal y distance = %v, want 20", d)
	}
}

func TestRoadHeadingsQuantisation(t *testing.T) {
	cfg := DefaultMobilityConfig(6)
	cfg.RoadHeadings = 4
	sim := NewSimulation(cfg)
	for _, v := range sim.Vehicles() {
		h := math.Mod(v.HeadingDeg, 90)
		if h != 0 {
			t.Fatalf("heading %v not on the 4-direction grid", v.HeadingDeg)
		}
	}
}

func TestHeadingBucket(t *testing.T) {
	cases := []struct {
		diff float64
		want int
	}{
		{0, 0}, {9.9, 0}, {10, 1}, {19.9, 1}, {20, 2}, {29.9, 2}, {30, 3}, {180, 3},
	}
	for _, c := range cases {
		if got := HeadingBucket(c.diff); got != c.want {
			t.Errorf("bucket(%v) = %d, want %d", c.diff, got, c.want)
		}
	}
}

func TestCTE(t *testing.T) {
	// Smaller heading differences score higher.
	if CTE(5) <= CTE(50) {
		t.Error("CTE not decreasing in heading difference")
	}
	// Clamped below 1 degree: parallel vehicles get a large finite score.
	if CTE(0) != CTE(0.5) || math.IsInf(CTE(0), 1) {
		t.Error("CTE floor broken")
	}
	// Values beyond 180 reflect (360−d).
	if CTE(350) != CTE(10) {
		t.Errorf("CTE(350) = %v, want CTE(10) = %v", CTE(350), CTE(10))
	}
}

func TestCTEMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		d1 := math.Mod(math.Abs(a), 180)
		d2 := math.Mod(math.Abs(b), 180)
		if d1 > d2 {
			d1, d2 = d2, d1
		}
		return CTE(d1) >= CTE(d2)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRouteCTE(t *testing.T) {
	// The route metric is the minimum over hops.
	if got := RouteCTE([]float64{5, 40, 10}); got != CTE(40) {
		t.Errorf("RouteCTE = %v, want min hop %v", got, CTE(40))
	}
	if RouteCTE(nil) != 0 {
		t.Error("empty route should score 0")
	}
}

func TestCollectLinksBasicInvariants(t *testing.T) {
	cfg := DefaultMobilityConfig(7)
	cfg.Vehicles = 40
	sim := NewSimulation(cfg)
	links := CollectLinks(sim, 60*time.Second)
	if len(links) == 0 {
		t.Fatal("no links observed")
	}
	for _, l := range links {
		if l.Duration() < 0 {
			t.Fatalf("negative duration link %+v", l)
		}
		if l.StartHeadingDiff < 0 || l.StartHeadingDiff > 180 {
			t.Fatalf("heading diff %v out of range", l.StartHeadingDiff)
		}
		if l.A >= l.B {
			t.Fatalf("unordered pair (%d, %d)", l.A, l.B)
		}
		if l.End > 60*time.Second {
			t.Fatalf("link ends beyond the horizon: %v", l.End)
		}
	}
}

func TestSimilarHeadingsLastLonger(t *testing.T) {
	// The Table 5.1 structure at reduced scale.
	var all []LinkRecord
	for n := 0; n < 2; n++ {
		sim := NewSimulation(DefaultMobilityConfig(int64(100 + n)))
		all = append(all, CollectLinks(sim, 120*time.Second)...)
	}
	buckets, allMed := MedianDurations(all)
	if buckets[0] <= buckets[3] {
		t.Errorf("similar-heading median %v not above crossing median %v", buckets[0], buckets[3])
	}
	if buckets[0] <= allMed {
		t.Errorf("similar-heading median %v not above all-links median %v", buckets[0], allMed)
	}
}

func TestMedianDurationsEmpty(t *testing.T) {
	buckets, all := MedianDurations(nil)
	if all != 0 {
		t.Error("empty medians should be 0")
	}
	for _, b := range buckets {
		if b != 0 {
			t.Error("empty bucket median non-zero")
		}
	}
}

func TestRouteLifetimesSelectorGap(t *testing.T) {
	mob := DefaultMobilityConfig(8)
	mob.Vehicles = 120
	cfg := StabilityConfig{Mobility: mob, Hops: 2, Trials: 25, Horizon: 60 * time.Second, Seed: 9}
	cte := RouteLifetimes(cfg, CTESelector{})
	free := RouteLifetimes(cfg, RandomSelector{})
	if len(cte) == 0 || len(free) == 0 {
		t.Fatal("no routes constructed")
	}
	mean := func(xs []float64) float64 {
		s := 0.0
		for _, x := range xs {
			s += x
		}
		return s / float64(len(xs))
	}
	if mean(cte) <= mean(free) {
		t.Errorf("CTE routes (%.1fs) not longer-lived than hint-free (%.1fs)",
			mean(cte), mean(free))
	}
}

func TestSelectorNames(t *testing.T) {
	if (CTESelector{}).Name() != "CTE" || (RandomSelector{}).Name() != "hint-free" {
		t.Error("selector names wrong")
	}
}

// TestCollectLinksAllocs bounds one Table 5.1 network, fleet and links
// together: the simulation's setup, the open-link table and the links
// slice's growth. Nothing may allocate per pair or per link.
func TestCollectLinksAllocs(t *testing.T) {
	allocs := testing.AllocsPerRun(3, func() {
		CollectLinks(NewSimulation(DefaultMobilityConfig(9)), 300*time.Second)
	})
	if allocs > 64 {
		t.Errorf("a 300 s network allocates %.0f times, want ≤ 64", allocs)
	}
}

// TestStepAllocs pins Step, turns onto new roads included, at 0
// allocations.
func TestStepAllocs(t *testing.T) {
	sim := NewSimulation(DefaultMobilityConfig(1))
	if allocs := testing.AllocsPerRun(200, sim.Step); allocs != 0 {
		t.Errorf("Step allocates %v times, want 0", allocs)
	}
}
