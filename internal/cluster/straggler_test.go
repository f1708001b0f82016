package cluster

import (
	"testing"
	"time"
)

// TestStragglerRule pins the speculation rule: a copy is stolen from
// only once it has run more than stragglerFactor times its job's
// median completed-shard time, and never while its job has no
// completed shard; among several stragglers the earliest job's
// longest-running copy goes first, whatever the shard indices.
func TestStragglerRule(t *testing.T) {
	ms := time.Millisecond
	t0 := time.Unix(1000, 0)
	at := func(d time.Duration) time.Time { return t0.Add(d) }
	for _, c := range []struct {
		name   string
		done   map[int][]time.Duration // completed shard times per job
		copies []liveCopy
		now    time.Time
		pick   int
		next   time.Time
	}{
		{
			name:   "no completed shard: no steal",
			copies: []liveCopy{{job: 0, shard: 0, since: t0}},
			now:    at(time.Hour),
			pick:   -1,
		},
		{
			name:   "elapsed equal to k × median: no steal",
			done:   map[int][]time.Duration{0: {100 * ms}},
			copies: []liveCopy{{job: 0, shard: 0, since: t0}},
			now:    at(200 * ms),
			pick:   -1,
			next:   at(200 * ms),
		},
		{
			name: "elapsed over k × median: steal that shard, not the lowest index",
			done: map[int][]time.Duration{0: {100 * ms}},
			copies: []liveCopy{
				{job: 0, shard: 0, since: at(150 * ms)},
				{job: 0, shard: 2, since: t0},
			},
			now:  at(201 * ms),
			pick: 1,
			next: at(350 * ms),
		},
		{
			name:   "median of an even sample is the mean of the middle two",
			done:   map[int][]time.Duration{0: {300 * ms, 100 * ms, 900 * ms, 50 * ms}},
			copies: []liveCopy{{job: 0, shard: 1, since: t0}},
			now:    at(400 * ms),
			pick:   -1,
			next:   at(400 * ms),
		},
		{
			name: "a job without a completed shard is skipped beside one with",
			done: map[int][]time.Duration{1: {10 * ms}},
			copies: []liveCopy{
				{job: 0, shard: 0, since: t0},
				{job: 1, shard: 3, since: at(100 * ms)},
			},
			now:  at(time.Second),
			pick: 1,
		},
		{
			name: "earliest job first, then the longest-running copy",
			done: map[int][]time.Duration{0: {10 * ms}, 1: {10 * ms}},
			copies: []liveCopy{
				{job: 1, shard: 0, since: t0},
				{job: 0, shard: 1, since: at(50 * ms)},
				{job: 0, shard: 2, since: at(40 * ms), verify: true},
				{job: 0, shard: 3, since: at(995 * ms)},
			},
			now:  at(time.Second),
			pick: 2,
			next: at(1015 * ms),
		},
	} {
		t.Run(c.name, func(t *testing.T) {
			times := map[int]*shardTimes{}
			for ji, ds := range c.done {
				times[ji] = &shardTimes{}
				for _, d := range ds {
					times[ji].add(d)
				}
			}
			threshold := func(ji int) (time.Duration, bool) {
				if s := times[ji]; s != nil {
					return s.threshold()
				}
				return shardTimes(nil).threshold()
			}
			pick, next := pickStraggler(c.now, c.copies, threshold)
			if pick != c.pick || !next.Equal(c.next) {
				t.Errorf("pickStraggler = %d, %v; want %d, %v", pick, next.Sub(t0), c.pick, c.next.Sub(t0))
			}
		})
	}
}
