package vehicular

import (
	"math"
	"sort"
	"time"

	"repro/internal/sensors"
)

// LinkRange is the paper's connectivity surrogate: two vehicles have a
// link at a given time iff they are within 100 m (§5.1.2, which uses
// geographic proximity as a crude surrogate for a connection).
const LinkRange = 100.0

// LinkRecord describes one observed link's lifetime.
type LinkRecord struct {
	A, B int
	// StartHeadingDiff is the unsigned heading difference in degrees
	// [0, 180] when the link began — the predictor Table 5.1 buckets by.
	StartHeadingDiff float64
	Start, End       time.Duration
}

// Duration returns the link lifetime.
func (l LinkRecord) Duration() time.Duration { return l.End - l.Start }

// CollectLinks steps the simulation for the given duration and records
// every link: when a pair first comes within LinkRange a link begins with
// the pair's heading difference at that moment; when they separate the
// link ends. Links still open at the end are closed at the horizon (a
// small downward bias shared by all buckets, as in any finite trace).
// Links are returned in (Start, A, B) order, the order they begin in.
func CollectLinks(sim *Simulation, total time.Duration) []LinkRecord {
	vs := sim.Vehicles()
	n := len(vs)
	area := sim.cfg.Area
	// open[i*n+j], for i < j, is 1 + the index in links of the pair's
	// open link, or 0 while the pair has none.
	open := make([]int32, n*n)
	var links []LinkRecord
	for sim.Now() < total {
		now := sim.Now()
		for i := range vs {
			a, row := &vs[i], open[i*n:(i+1)*n]
			for j := i + 1; j < n; j++ {
				b := &vs[j]
				in := linked(area.offset(a, b))
				switch k := row[j]; {
				case in && k == 0:
					links = append(links, LinkRecord{
						A:                i,
						B:                j,
						StartHeadingDiff: sensors.HeadingSeparation(a.HeadingDeg, b.HeadingDeg),
						Start:            now,
					})
					row[j] = int32(len(links))
				case !in && k != 0:
					links[k-1].End = now
					row[j] = 0
				}
			}
		}
		sim.Step()
	}
	horizon := sim.Now()
	for _, k := range open {
		if k != 0 {
			links[k-1].End = horizon
		}
	}
	return links
}

// HeadingBucket classifies a heading difference into the Table 5.1
// buckets: [0,10), [10,20), [20,30), [30,180].
func HeadingBucket(diff float64) int {
	switch {
	case diff < 10:
		return 0
	case diff < 20:
		return 1
	case diff < 30:
		return 2
	default:
		return 3
	}
}

// BucketNames labels the Table 5.1 buckets.
var BucketNames = [4]string{"[0,9]", "[10,19]", "[20,29]", "[30,180]"}

// MedianDurations computes Table 5.1: the median link duration in
// seconds per heading-difference bucket plus the all-links median.
func MedianDurations(links []LinkRecord) (buckets [4]float64, all float64) {
	var per [4][]float64
	var every []float64
	for _, l := range links {
		d := l.Duration().Seconds()
		per[HeadingBucket(l.StartHeadingDiff)] = append(per[HeadingBucket(l.StartHeadingDiff)], d)
		every = append(every, d)
	}
	for i := range per {
		buckets[i] = median(per[i])
	}
	return buckets, median(every)
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// CTE is the connection time estimate metric of §5.1.1: the inverse of
// the heading difference between the two nodes of a link (degrees in
// [0, 180]); near-zero differences are clamped so parallel vehicles get
// a large, finite score.
func CTE(headingDiffDeg float64) float64 {
	d := math.Abs(headingDiffDeg)
	if d > 180 {
		d = 360 - d
	}
	const floor = 1.0 // below 1° the estimate is effectively "same road"
	if d < floor {
		d = floor
	}
	return 1 / d
}

// RouteCTE aggregates link CTEs into a route metric: the minimum over
// hops, since the weakest link breaks the route first (§5.1.1).
func RouteCTE(headingDiffs []float64) float64 {
	if len(headingDiffs) == 0 {
		return 0
	}
	min := math.Inf(1)
	for _, d := range headingDiffs {
		if c := CTE(d); c < min {
			min = c
		}
	}
	return min
}
