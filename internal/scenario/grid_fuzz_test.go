package scenario

import (
	"math"
	"testing"
)

// FuzzGridMatchesLinear checks the lattice lookup against the full
// linear scan on arbitrary grids (1–40 APs a side, any spacing from
// 1 mm to 10 km, any range) at arbitrary points folded onto the torus
// as the engine folds client positions: the same AP and the same d².
func FuzzGridMatchesLinear(f *testing.F) {
	f.Add(uint8(3), 100.0, 130.0, 150.0, 150.0)          // an AP centre
	f.Add(uint8(2), 180.0, 130.0, 180.0, 90.0)           // a square edge
	f.Add(uint8(4), 100.0, 50.0, 200.0, 200.0)           // a corner, out of range
	f.Add(uint8(5), 240.0, 130.0, 0.0, 1199.999999999)   // the torus seam
	f.Add(uint8(20), 60.0, 90.0, 630.000001, -29.999999) // micrometres off an edge
	f.Add(uint8(1), 100.0, 130.0, 1e9, -1e9)
	f.Fuzz(func(t *testing.T, side uint8, spacing, rangeM, x, y float64) {
		spacing = math.Mod(math.Abs(spacing), 1e4)
		if !(spacing >= 1e-3) || math.IsNaN(rangeM) || math.IsInf(x, 0) || math.IsInf(y, 0) || math.IsNaN(x) || math.IsNaN(y) {
			return
		}
		grid := APGrid{Side: 1 + int(side)%40, Spacing: spacing}
		ix := newAPIndex(grid, Radio{RangeM: rangeM})
		area := float64(grid.Side) * spacing
		x, y = wrap(x, area), wrap(y, area)
		gb, gd := ix.best(x, y)
		lb, ld := ix.bestLinear(x, y)
		if gb != lb || gd != ld {
			t.Fatalf("grid %dx%d spacing %v range %v at (%v, %v): lattice picked AP %d (d²=%v), linear AP %d (d²=%v)",
				grid.Side, grid.Side, spacing, rangeM, x, y, gb, gd, lb, ld)
		}
	})
}
