package parallel

import "fmt"

// This file extends the engine's determinism contract across process
// boundaries. A Shard names one contiguous slice of every trial range an
// experiment runs; because per-trial seeds derive from the root
// SeedStream by *global* trial index (SeedStream.Seed(i)), the work
// trial i performs is identical whether it runs in-process, on shard
// 0/1, or on shard 3/7 — sharding changes only which process executes
// the trial, never what the trial computes.

// Shard identifies one worker's slice of a trial space: shard Index of
// Count. The zero value is invalid; Shard{Index: 0, Count: 1} is the
// whole range.
type Shard struct {
	// Index is this shard's position, 0 ≤ Index < Count.
	Index int
	// Count is the total number of shards.
	Count int
}

// Valid reports whether the shard is well-formed.
func (s Shard) Valid() bool { return s.Count >= 1 && s.Index >= 0 && s.Index < s.Count }

// String renders the shard as "index/count" (e.g. "2/4").
func (s Shard) String() string { return fmt.Sprintf("%d/%d", s.Index, s.Count) }

// Range returns this shard's contiguous sub-range [lo, hi) of a trial
// range [0, n). The ranges of shards 0..K-1 of K partition [0, n) in
// index order with sizes differing by at most one, so merging shard
// results in shard order visits trials in exactly global trial order —
// the property the cross-process merge contract relies on.
func (s Shard) Range(n int) (lo, hi int) {
	if n <= 0 || !s.Valid() {
		return 0, 0
	}
	// 64-bit intermediates: k*n must not overflow on 32-bit platforms.
	lo = int(int64(s.Index) * int64(n) / int64(s.Count))
	hi = int(int64(s.Index+1) * int64(n) / int64(s.Count))
	return lo, hi
}
