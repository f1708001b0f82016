package scenario

import "math"

// apIndex is the AP lattice of the toroidal grid: AP i sits at the
// centre of square (i%side, i/side) of the side×side squares of width
// spacing, so the AP nearest a point is the one whose square holds it.
// A best-AP query is O(1) no matter how large the city grows, which is
// what makes idle links free in the event engine.
//
// Selection is min (distance², AP id) over in-range APs, a total order
// with no float ties to break, so the lattice lookup and the oracle's
// full linear scan return the identical AP (TestGridMatchesLinear).
type apIndex struct {
	side    int
	spacing float64
	w, h    float64
	xs, ys  []float64
	rangeSq float64
	// inner is spacing·(½ − 1e-6): a point closer than this to its
	// square's AP along both axes is nearer to it than to any other AP
	// by at least 2e-6·spacing² in d², far above float rounding.
	inner float64
}

// newAPIndex lays out the scenario's AP grid.
func newAPIndex(grid APGrid, radio Radio) *apIndex {
	area := float64(grid.Side) * grid.Spacing
	ix := &apIndex{
		side: grid.Side, spacing: grid.Spacing, w: area, h: area,
		rangeSq: radio.RangeM * radio.RangeM,
		inner:   grid.Spacing * (0.5 - 1e-6),
	}
	n := grid.Side * grid.Side
	ix.xs = make([]float64, n)
	ix.ys = make([]float64, n)
	for i := 0; i < n; i++ {
		ix.xs[i] = (float64(i%grid.Side) + 0.5) * grid.Spacing
		ix.ys[i] = (float64(i/grid.Side) + 0.5) * grid.Spacing
	}
	return ix
}

// dist2 returns the toroidal squared distance from (x, y) to AP i.
func (ix *apIndex) dist2(i int32, x, y float64) float64 {
	dx := math.Abs(ix.xs[i] - x)
	if dx > ix.w/2 {
		dx = ix.w - dx
	}
	dy := math.Abs(ix.ys[i] - y)
	if dy > ix.h/2 {
		dy = ix.h - dy
	}
	return dx*dx + dy*dy
}

// consider folds AP i into the running (best id, best dist²) pair.
func (ix *apIndex) consider(i int32, x, y float64, best int32, bd float64) (int32, float64) {
	d2 := ix.dist2(i, x, y)
	if d2 > ix.rangeSq {
		return best, bd
	}
	if best < 0 || d2 < bd || (d2 == bd && i < best) {
		return i, d2
	}
	return best, bd
}

// square returns the lattice column (or row) holding coordinate v.
func (ix *apIndex) square(v float64) int {
	c := int(v / ix.spacing)
	if c >= ix.side {
		c = ix.side - 1
	}
	return c
}

// best returns the in-range AP minimising (dist², id), or (-1, 0) when
// none is in range. Away from the square's edges the square's own AP
// is the unique nearest one, and when it is out of range so is every
// other AP. Within the inner margin of an edge, the 3×3 block of
// squares around it is scanned: every AP outside the block is at least
// 1.5·spacing away, while the square's AP is at most 0.71·spacing
// away. Wrapping may visit an AP twice on 1–2 AP grids; min selection
// makes the duplicate harmless.
func (ix *apIndex) best(x, y float64) (int32, float64) {
	cx, cy := ix.square(x), ix.square(y)
	a := int32(cy*ix.side + cx)
	if dx, dy := math.Abs(ix.xs[a]-x), math.Abs(ix.ys[a]-y); dx < ix.inner && dy < ix.inner {
		if d2 := dx*dx + dy*dy; d2 <= ix.rangeSq {
			return a, d2
		}
		return -1, 0
	}
	best, bd := int32(-1), 0.0
	for dy := -1; dy <= 1; dy++ {
		row := (cy + dy + ix.side) % ix.side * ix.side
		for dx := -1; dx <= 1; dx++ {
			best, bd = ix.consider(int32(row+(cx+dx+ix.side)%ix.side), x, y, best, bd)
		}
	}
	return best, bd
}

// bestLinear is the oracle's selection: the same min over a full scan
// of every AP.
func (ix *apIndex) bestLinear(x, y float64) (int32, float64) {
	best, bd := int32(-1), 0.0
	for i := range ix.xs {
		best, bd = ix.consider(int32(i), x, y, best, bd)
	}
	return best, bd
}
