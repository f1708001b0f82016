package parallel

import (
	"testing"
)

// TestShardRangePartitions asserts the properties the cross-process
// merge contract needs: for any (n, K) the K ranges are contiguous in
// index order, cover [0, n) exactly, and are balanced to within one
// trial.
func TestShardRangePartitions(t *testing.T) {
	for _, n := range []int{0, 1, 2, 3, 7, 64, 100, 601, 12345} {
		for _, k := range []int{1, 2, 3, 4, 7, 16, 100} {
			next := 0
			minSize, maxSize := n+1, -1
			for i := 0; i < k; i++ {
				s := Shard{Index: i, Count: k}
				lo, hi := s.Range(n)
				if lo != next {
					t.Fatalf("n=%d K=%d shard %v: range starts at %d, want %d", n, k, s, lo, next)
				}
				if hi < lo {
					t.Fatalf("n=%d K=%d shard %v: inverted range [%d,%d)", n, k, s, lo, hi)
				}
				if size := hi - lo; size < minSize {
					minSize = size
				} else if size > maxSize {
					maxSize = size
				}
				if size := hi - lo; size > maxSize {
					maxSize = size
				}
				next = hi
			}
			if next != n {
				t.Fatalf("n=%d K=%d: shards cover [0,%d), want [0,%d)", n, k, next, n)
			}
			if n > 0 && maxSize-minSize > 1 {
				t.Fatalf("n=%d K=%d: unbalanced shard sizes (min %d, max %d)", n, k, minSize, maxSize)
			}
		}
	}
}

func TestShardValid(t *testing.T) {
	cases := []struct {
		s    Shard
		want bool
	}{
		{Shard{0, 1}, true},
		{Shard{3, 4}, true},
		{Shard{}, false},
		{Shard{-1, 4}, false},
		{Shard{4, 4}, false},
		{Shard{0, 0}, false},
	}
	for _, c := range cases {
		if got := c.s.Valid(); got != c.want {
			t.Errorf("%+v.Valid() = %v, want %v", c.s, got, c.want)
		}
	}
	if lo, hi := (Shard{}).Range(10); lo != 0 || hi != 0 {
		t.Errorf("invalid shard range = [%d,%d), want empty", lo, hi)
	}
}
