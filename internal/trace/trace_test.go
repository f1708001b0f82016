package trace

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/phy"
)

func mkTrace(n int) *FateTrace {
	tr := &FateTrace{Env: "test", Mode: "static", SlotDur: DefaultSlot, Slots: make([]Slot, n)}
	for i := range tr.Slots {
		tr.Slots[i].SNR = float64(i)
		for r := 0; r < phy.NumRates; r++ {
			tr.Slots[i].Prob[r] = float64(i % 2) // alternating 0/1
			tr.Slots[i].Delivered[r] = i%2 == 1
		}
	}
	return tr
}

func TestSlotIndexClamping(t *testing.T) {
	tr := mkTrace(10)
	if tr.SlotIndex(-time.Second) != 0 {
		t.Error("negative time should clamp to slot 0")
	}
	if tr.SlotIndex(0) != 0 {
		t.Error("time 0 should be slot 0")
	}
	if tr.SlotIndex(7*DefaultSlot+DefaultSlot/2) != 7 {
		t.Error("mid-slot time should land in slot 7")
	}
	if tr.SlotIndex(time.Hour) != 9 {
		t.Error("beyond-end time should clamp to last slot")
	}
}

func TestDuration(t *testing.T) {
	tr := mkTrace(10)
	if tr.Duration() != 10*DefaultSlot {
		t.Errorf("Duration = %v", tr.Duration())
	}
}

func TestDeliveredAndMoving(t *testing.T) {
	tr := mkTrace(4)
	tr.Slots[2].Moving = true
	if tr.Delivered(0, phy.Rate6) {
		t.Error("slot 0 should not deliver")
	}
	if !tr.Delivered(DefaultSlot, phy.Rate54) {
		t.Error("slot 1 should deliver")
	}
	if !tr.MovingAt(2*DefaultSlot) || tr.MovingAt(0) {
		t.Error("MovingAt wrong")
	}
}

func TestWindowProb(t *testing.T) {
	tr := mkTrace(10) // probs alternate 0, 1, 0, 1...
	// A window covering exactly slots 0..3 averages 0.5.
	got := tr.WindowProb(3*DefaultSlot, 3*DefaultSlot, phy.Rate6)
	if got != 0.5 {
		t.Errorf("window mean = %v, want 0.5", got)
	}
	// Zero window degenerates to the instantaneous probability.
	if tr.WindowProb(3*DefaultSlot, 0, phy.Rate6) != 1 {
		t.Error("zero window should be instantaneous")
	}
	// Window extending before the trace clamps.
	if v := tr.WindowProb(0, time.Hour, phy.Rate6); v != 0 {
		t.Errorf("clamped window = %v", v)
	}
}

func TestValidate(t *testing.T) {
	tr := mkTrace(3)
	if err := tr.Validate(); err != nil {
		t.Errorf("valid trace rejected: %v", err)
	}
	bad := mkTrace(3)
	bad.SlotDur = 0
	if bad.Validate() == nil {
		t.Error("zero slot duration accepted")
	}
	bad2 := &FateTrace{SlotDur: DefaultSlot}
	if bad2.Validate() == nil {
		t.Error("empty trace accepted")
	}
	bad3 := mkTrace(3)
	bad3.Slots[1].Prob[2] = 1.5
	if bad3.Validate() == nil {
		t.Error("out-of-range probability accepted")
	}
}

// fromBools packs a []bool fixture into a PacketTrace, keeping the
// table-style test cases readable now that the trace itself is a packed
// bitset.
func fromBools(lost []bool) *PacketTrace {
	pt := NewPacketTrace(0, 0, len(lost))
	for i, l := range lost {
		if l {
			pt.SetLost(i, true)
		}
	}
	return pt
}

func TestPacketTraceLossRate(t *testing.T) {
	pt := fromBools([]bool{true, false, true, false})
	if pt.LossRate() != 0.5 {
		t.Errorf("loss rate = %v", pt.LossRate())
	}
	if (&PacketTrace{}).LossRate() != 0 {
		t.Error("empty trace loss should be 0")
	}
}

func TestConditionalLossBursty(t *testing.T) {
	// Losses in pairs: P(loss at k=1 | loss) should be ~0.5 (every first
	// of a pair is followed by a loss; every second by a success).
	lost := make([]bool, 400)
	for i := 0; i < 400; i += 10 {
		lost[i], lost[i+1] = true, true
	}
	pt := fromBools(lost)
	cond := pt.ConditionalLoss(10)
	if math.Abs(cond[1]-0.5) > 0.05 {
		t.Errorf("cond[1] = %v, want ≈ 0.5", cond[1])
	}
	if cond[5] > 0.05 {
		t.Errorf("cond[5] = %v, want ≈ 0 for paired losses", cond[5])
	}
}

func TestConditionalLossIndependent(t *testing.T) {
	// Deterministic alternation: a loss is never followed by a loss at
	// odd lags, always at even lags.
	lost := make([]bool, 100)
	for i := 0; i < 100; i += 2 {
		lost[i] = true
	}
	pt := fromBools(lost)
	cond := pt.ConditionalLoss(4)
	if cond[1] != 0 || cond[2] != 1 {
		t.Errorf("cond = %v", cond[:3])
	}
}

func TestConditionalLossNoLosses(t *testing.T) {
	pt := NewPacketTrace(0, 0, 50)
	for k, v := range pt.ConditionalLoss(5) {
		if v != 0 {
			t.Errorf("cond[%d] = %v with no losses", k, v)
		}
	}
}

// TestConditionalLossEdgeCases pins the packed-bitset implementation on
// the boundaries the differential test only samples: empty and
// single-packet traces, all-lost traces, lags at or past the stream
// end, and loss patterns confined to the trailing partial word of the
// bitset (where the final word's mask and the shifted read past the
// data end are the code paths under test). Expectations here are exact,
// not differential.
func TestConditionalLossEdgeCases(t *testing.T) {
	allZero := func(t *testing.T, cond []float64, wantLen int) {
		t.Helper()
		if len(cond) != wantLen {
			t.Fatalf("len = %d, want %d", len(cond), wantLen)
		}
		for k, v := range cond {
			if v != 0 {
				t.Errorf("cond[%d] = %v, want 0", k, v)
			}
		}
	}

	t.Run("empty trace", func(t *testing.T) {
		pt := &PacketTrace{}
		allZero(t, pt.ConditionalLoss(5), 6)
		allZero(t, pt.ConditionalLoss(0), 1)
	})

	t.Run("single packet", func(t *testing.T) {
		// One packet has no (i, i+k) pair at any lag — even when it is
		// itself lost.
		allZero(t, fromBools([]bool{false}).ConditionalLoss(3), 4)
		allZero(t, fromBools([]bool{true}).ConditionalLoss(3), 4)
	})

	t.Run("all lost", func(t *testing.T) {
		// Every conditioning packet's successor is lost: exactly 1 for
		// each lag with a pair in range, 0 once k ≥ n.
		for _, n := range []int{2, 63, 64, 65, 130} {
			lost := make([]bool, n)
			for i := range lost {
				lost[i] = true
			}
			cond := fromBools(lost).ConditionalLoss(n + 10)
			for k := 1; k <= n+10; k++ {
				want := 0.0
				if k < n {
					want = 1
				}
				if cond[k] != want {
					t.Fatalf("n=%d: cond[%d] = %v, want %v", n, k, cond[k], want)
				}
			}
		}
	})

	t.Run("lag past stream end", func(t *testing.T) {
		pt := fromBools([]bool{true, true, true})
		cond := pt.ConditionalLoss(64)
		if cond[1] != 1 || cond[2] != 1 {
			t.Errorf("in-range lags = %v %v, want 1 1", cond[1], cond[2])
		}
		for k := 3; k <= 64; k++ {
			if cond[k] != 0 {
				t.Errorf("cond[%d] = %v past the stream end, want 0", k, cond[k])
			}
		}
	})

	t.Run("trailing partial word", func(t *testing.T) {
		// 70 packets: one full 64-bit word plus a 6-bit tail. Put the
		// only losses in the tail (indices 65 and 68, lag 3 apart) so
		// both the conditioning mask and the shifted join run entirely
		// in the partial word.
		lost := make([]bool, 70)
		lost[65], lost[68] = true, true
		cond := fromBools(lost).ConditionalLoss(10)
		// Lag 3: conditioning packets are [0, 67): only index 65 is
		// lost, and 65+3 = 68 is lost → exactly 1.
		if cond[3] != 1 {
			t.Errorf("cond[3] = %v, want 1", cond[3])
		}
		// Lag 5: conditioning packets are [0, 65): no losses at all →
		// defined as 0.
		if cond[5] != 0 {
			t.Errorf("cond[5] = %v, want 0 (no conditioning losses)", cond[5])
		}
		// Lag 2: 65 is conditioning, 67 is delivered → 0; 68 is outside
		// the conditioning range [0, 68) boundary check: 68 < 68 is
		// false, so it must not condition on itself.
		if cond[2] != 0 {
			t.Errorf("cond[2] = %v, want 0", cond[2])
		}

		// A loss on the very last packet must count as a successor but
		// never as a conditioner at positive lags beyond its reach.
		lost2 := make([]bool, 65)
		lost2[0], lost2[64] = true, true
		cond2 := fromBools(lost2).ConditionalLoss(64)
		if cond2[64] != 1 {
			t.Errorf("cond[64] = %v, want 1 (0 → 64 joint loss)", cond2[64])
		}
		if cond2[1] != 0 {
			t.Errorf("cond[1] = %v, want 0", cond2[1])
		}
	})

	t.Run("word-boundary conditioning cutoff", func(t *testing.T) {
		// n−k landing exactly on a word boundary exercises the lr == 0
		// early break: with n = 65 and k = 1 the conditioning range is
		// [0, 64) — one full word, nothing from the partial word.
		lost := make([]bool, 65)
		lost[63], lost[64] = true, true
		cond := fromBools(lost).ConditionalLoss(1)
		if cond[1] != 1 {
			t.Errorf("cond[1] = %v, want 1 (63 → 64)", cond[1])
		}
	})
}

// TestConditionalLossMatchesNaive cross-checks the bitset implementation
// against the straightforward per-packet scan on random streams,
// including lengths around word boundaries and lags past the stream end.
func TestConditionalLossMatchesNaive(t *testing.T) {
	naive := func(lost []bool, maxLag int) []float64 {
		out := make([]float64, maxLag+1)
		for k := 1; k <= maxLag; k++ {
			nLost, both := 0, 0
			for i := 0; i+k < len(lost); i++ {
				if lost[i] {
					nLost++
					if lost[i+k] {
						both++
					}
				}
			}
			if nLost > 0 {
				out[k] = float64(both) / float64(nLost)
			}
		}
		return out
	}
	rng := rand.New(rand.NewSource(77))
	for _, n := range []int{1, 63, 64, 65, 127, 128, 129, 1000, 4096, 5000} {
		for _, density := range []float64{0, 0.1, 0.5, 0.9} {
			lost := make([]bool, n)
			for i := range lost {
				lost[i] = rng.Float64() < density
			}
			pt := fromBools(lost)
			maxLag := 130
			got := pt.ConditionalLoss(maxLag)
			want := naive(lost, maxLag)
			for k := range want {
				if math.Abs(got[k]-want[k]) > 1e-12 {
					t.Fatalf("n=%d density=%.1f lag=%d: bitset %v, naive %v", n, density, k, got[k], want[k])
				}
			}
		}
	}
}

// TestSlotIndexReciprocalExact is the bit-identity check for the
// division-free SlotIndex: over adversarial slot widths (powers of two,
// primes, the default) and times — every slot boundary ±1 plus random
// draws across the trace and far past its end — the prepared fast path
// must agree with the plain 64-bit division everywhere.
func TestSlotIndexReciprocalExact(t *testing.T) {
	rng := rand.New(rand.NewSource(101))
	durs := []time.Duration{
		2, 3, 7, 1000, 4096, 5*time.Millisecond - 1, 5 * time.Millisecond,
		5*time.Millisecond + 1, 8 * time.Millisecond, 1 << 20, 333333333, time.Second,
	}
	for _, d := range durs {
		n := 1000
		fast := &FateTrace{SlotDur: d, Slots: make([]Slot, n)}
		fast.Prepare()
		if fast.invSlot == 0 {
			t.Fatalf("SlotDur %d: fast path not armed", d)
		}
		slow := &FateTrace{SlotDur: d, Slots: make([]Slot, n)} // unprepared: divides
		check := func(at time.Duration) {
			t.Helper()
			if got, want := fast.SlotIndex(at), slow.SlotIndex(at); got != want {
				t.Fatalf("SlotDur %d at %d: fast %d, divide %d", d, at, got, want)
			}
		}
		for k := 0; k <= n+2; k++ {
			at := time.Duration(k) * d
			check(at - 1)
			check(at)
			check(at + 1)
		}
		span := time.Duration(n) * d
		for i := 0; i < 2000; i++ {
			check(time.Duration(rng.Int63n(int64(3*span) + 1)))
		}
		check(-time.Second)
		check(fast.Duration() * 1000)
	}
}

// TestSlotIndexFallbackBeyondReciprocalRange pins the guard: times past
// invMax take the dividing path and still agree.
func TestSlotIndexFallbackBeyondReciprocalRange(t *testing.T) {
	tr := &FateTrace{SlotDur: 5 * time.Millisecond, Slots: make([]Slot, 10)}
	tr.Prepare()
	huge := time.Duration(tr.invMax) + time.Hour
	if got := tr.SlotIndex(huge); got != 9 {
		t.Fatalf("SlotIndex far past the end = %d, want clamp to 9", got)
	}
	// A 1 ns slot width declines the fast path entirely.
	tiny := &FateTrace{SlotDur: 1, Slots: make([]Slot, 4)}
	tiny.Prepare()
	if tiny.invSlot != 0 {
		t.Fatal("1 ns slot width armed the reciprocal")
	}
	if got := tiny.SlotIndex(3); got != 3 {
		t.Fatalf("SlotIndex(3) = %d, want 3", got)
	}
}

// BenchmarkSlotIndex measures the division-free lookup against the
// dividing baseline (the same trace, unprepared) — the last 64-bit
// division in ratesim.Run's per-attempt path.
func BenchmarkSlotIndex(b *testing.B) {
	mk := func(prepare bool) *FateTrace {
		tr := &FateTrace{SlotDur: DefaultSlot, Slots: make([]Slot, 4000)}
		if prepare {
			tr.Prepare()
		}
		return tr
	}
	span := int64(4000 * DefaultSlot)
	bench := func(b *testing.B, tr *FateTrace) {
		sink := 0
		for i := 0; i < b.N; i++ {
			sink += tr.SlotIndex(time.Duration((int64(i) * 2654435761) % span))
		}
		if sink < 0 {
			b.Fatal("impossible")
		}
	}
	b.Run("reciprocal", func(b *testing.B) { bench(b, mk(true)) })
	b.Run("divide", func(b *testing.B) { bench(b, mk(false)) })
}
