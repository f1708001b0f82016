package cluster

import (
	"slices"
	"time"
)

// stragglerFactor is k in the speculation rule: an idle worker starts a
// second copy of a shard only once the shard's live copy has run more
// than k times the median assign→done time of its job's completed
// shards (the LATE rule of Zaharia et al., OSDI'08, for MapReduce-style
// backup tasks). Timed serially at paper scale on a 2-vCPU box, each
// of the 4 shards of perfbench's nine fleet jobs ran within 0.76–1.51×
// of its job's median, so 2 leaves a healthy fleet alone and still
// catches a holder slowed to half speed or worse (DESIGN.md,
// "Steal/retry policy").
const stragglerFactor = 2

// shardTimes is one job's sample for the rule: the assign→done time of
// every fresh completion that won, in ascending order.
type shardTimes []time.Duration

func (s *shardTimes) add(d time.Duration) {
	i, _ := slices.BinarySearch(*s, d)
	*s = slices.Insert(*s, i, d)
}

// threshold is how long a live copy of the job's shards may run before
// it counts as a straggler: stragglerFactor times the median. ok is
// false while no shard of the job has completed, so a job with no
// completed shard is never speculated on.
func (s shardTimes) threshold() (d time.Duration, ok bool) {
	n := len(s)
	if n == 0 {
		return 0, false
	}
	median := s[n/2]
	if n%2 == 0 {
		median = (s[n/2-1] + s[n/2]) / 2
	}
	return stragglerFactor * median, true
}

// liveCopy is one dispatch the rule may speculate on: the only live copy
// of an incomplete shard, or of an unresolved verification re-run.
type liveCopy struct {
	job, shard int
	verify     bool
	// since is when the copy was assigned.
	since time.Time
}

// pickStraggler applies the rule at now. pick indexes the copy to
// speculate on, or is -1 if no copy has run past its job's threshold;
// among several, the earliest job's longest-running copy wins. next is
// the earliest moment a copy not yet past its threshold crosses it
// (zero if none will), when a parked worker should look again.
func pickStraggler(now time.Time, copies []liveCopy, threshold func(job int) (time.Duration, bool)) (pick int, next time.Time) {
	pick = -1
	for i, c := range copies {
		d, ok := threshold(c.job)
		if !ok {
			continue
		}
		if due := c.since.Add(d); now.Sub(c.since) <= d {
			if next.IsZero() || due.Before(next) {
				next = due
			}
			continue
		}
		if pick < 0 || c.job < copies[pick].job || c.job == copies[pick].job && c.since.Before(copies[pick].since) {
			pick = i
		}
	}
	return pick, next
}
