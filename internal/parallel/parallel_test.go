package parallel

import (
	"sync/atomic"
	"testing"
)

func TestForEachCoversEveryIndexOnce(t *testing.T) {
	for _, workers := range []int{1, 2, 4, 13, 0} {
		const n = 1000
		counts := make([]int32, n)
		ForEach(workers, n, func(i int) {
			atomic.AddInt32(&counts[i], 1)
		})
		for i, c := range counts {
			if c != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, c)
			}
		}
	}
}

func TestMapPreservesIndexOrder(t *testing.T) {
	for _, workers := range []int{1, 3, 8} {
		got := Map(workers, 257, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", workers, i, v, i*i)
			}
		}
	}
}

func TestForEachEmptyAndNegative(t *testing.T) {
	ran := false
	ForEach(4, 0, func(int) { ran = true })
	ForEach(4, -3, func(int) { ran = true })
	if ran {
		t.Fatal("fn ran for empty index range")
	}
}

func TestForEachPanicPropagates(t *testing.T) {
	for _, workers := range []int{1, 4} {
		func() {
			defer func() {
				v := recover()
				if v == nil {
					t.Fatalf("workers=%d: panic did not propagate", workers)
				}
				p, ok := v.(*Panic)
				if workers == 1 {
					// The serial fast path runs inline; the raw value
					// propagates unwrapped.
					if v != "boom" {
						t.Fatalf("workers=1: got %v, want raw value", v)
					}
					return
				}
				if !ok || p.Value != "boom" {
					t.Fatalf("workers=%d: got %v, want *Panic{boom}", workers, v)
				}
				if len(p.Stack) == 0 {
					t.Error("panic stack not captured")
				}
			}()
			ForEach(workers, 100, func(i int) {
				if i == 7 {
					panic("boom")
				}
			})
		}()
	}
}

func TestForEachPanicStopsRemainingWork(t *testing.T) {
	var ran atomic.Int32
	func() {
		defer func() { recover() }()
		ForEach(2, 10000, func(i int) {
			ran.Add(1)
			panic("early")
		})
	}()
	// Both workers may have had a task in flight, but the abort must
	// prevent anything close to the full range from running.
	if n := ran.Load(); n > 100 {
		t.Fatalf("%d tasks ran after the first panic", n)
	}
}

func TestWorkersNormalisation(t *testing.T) {
	if w := Workers(0, 100); w < 1 {
		t.Fatalf("Workers(0, 100) = %d", w)
	}
	if w := Workers(8, 3); w != 3 {
		t.Fatalf("Workers(8, 3) = %d, want 3", w)
	}
	if w := Workers(-1, 0); w != 1 {
		t.Fatalf("Workers(-1, 0) = %d, want 1", w)
	}
}

func TestSeedStreamDeterministicAndLabelled(t *testing.T) {
	a := NewSeedStream(42)
	b := NewSeedStream(42)
	for i := 0; i < 100; i++ {
		if a.Seed(i) != b.Seed(i) {
			t.Fatalf("same root, different seed at %d", i)
		}
	}
	if NewSeedStream(42).Seed(0) == NewSeedStream(43).Seed(0) {
		t.Fatal("adjacent roots collide at index 0")
	}
	d1 := a.Derive("traces")
	d2 := a.Derive("adapters")
	if d1.Seed(0) == d2.Seed(0) {
		t.Fatal("derived streams with different labels collide")
	}
	if d1.Seed(0) != a.Derive("traces").Seed(0) {
		t.Fatal("Derive is not deterministic")
	}
}

func TestSeedStreamNoCollisions(t *testing.T) {
	// Seeds across indices, adjacent roots and labelled substreams must
	// be pairwise distinct: a collision would hand two trials the same
	// RNG and silently correlate their results.
	const perStream = 50000
	seen := make(map[int64]struct{}, 4*perStream)
	streams := []SeedStream{
		NewSeedStream(42),
		NewSeedStream(43),
		NewSeedStream(42).Derive("traces"),
		NewSeedStream(42).Derive("adapters"),
	}
	for si, s := range streams {
		for i := 0; i < perStream; i++ {
			v := s.Seed(i)
			if _, dup := seen[v]; dup {
				t.Fatalf("seed collision in stream %d at index %d", si, i)
			}
			seen[v] = struct{}{}
		}
	}
}

func TestSeedStreamRandIndependent(t *testing.T) {
	s := NewSeedStream(7)
	r0, r1 := s.Rand(0), s.Rand(1)
	same := 0
	for i := 0; i < 64; i++ {
		if r0.Int63() == r1.Int63() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("adjacent trial RNGs emitted %d identical values", same)
	}
}
