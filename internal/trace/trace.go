// Package trace defines the trace containers the evaluation harness runs
// on, mirroring the paper's methodology: channel fate traces that record,
// for each 5 ms timeslot, the fate of a packet sent at each of the eight
// 802.11a bit rates during that slot. The MAC simulator bypasses any
// propagation model and simply references the trace — the same
// architecture as the paper's modified ns-3 harness.
//
// Traces live only in memory: internal/channel generates each one from
// its seed where it is replayed, so no trace is ever stored or shipped.
package trace

import (
	"errors"
	"fmt"
	"math"
	"math/bits"
	"time"

	"repro/internal/phy"
)

// DefaultSlot is the paper's trace timeslot width.
const DefaultSlot = 5 * time.Millisecond

// Slot records the channel state during one timeslot.
type Slot struct {
	// SNR is the channel signal-to-noise ratio (dB) during the slot.
	SNR float64
	// Moving is the ground-truth mobility state of the receiver.
	Moving bool
	// Delivered records whether a packet sent at each rate during this
	// slot is received (every packet of the same rate in one slot shares
	// this fate, as in the paper's trace playback).
	Delivered [phy.NumRates]bool
	// Prob is the ground-truth delivery probability at each rate, used
	// as the "actual" curve in the probing experiments.
	Prob [phy.NumRates]float64
}

// FateTrace is a complete channel trace.
type FateTrace struct {
	// Env and Mode label the trace (e.g. "office", "mixed").
	Env, Mode string
	// SlotDur is the slot width (DefaultSlot unless stated).
	SlotDur time.Duration
	// Seed reproduces the trace via the channel generator.
	Seed int64
	// ExtraLoss is the rate-independent per-packet loss probability
	// (collisions/interference) the MAC simulator applies on top of the
	// per-slot channel fates. Slot probabilities already include it.
	ExtraLoss float64
	Slots     []Slot

	// invSlot/invMax implement SlotIndex's division-free fast path (see
	// Prepare); both zero means "divide".
	invSlot uint64
	invMax  int64
}

// Prepare precomputes the fixed-point reciprocal that lets SlotIndex
// map a time to its slot with a multiply instead of a 64-bit division —
// the last division in the MAC simulator's per-attempt path (ratesim.Run
// calls At twice per attempt). The channel generator calls it on every
// trace it produces; hand-assembled traces work without it, on the
// dividing path.
//
// The fast path computes floor(at/d) as the high 64 bits of
// at · m where m = floor(2⁶⁴/d)+1. Writing e = m·d − 2⁶⁴ (so
// 0 ≤ e ≤ d), the product is at/d + at·e/(d·2⁶⁴); the error term stays
// below 1/d — too small to cross the next multiple of d — whenever
// at·e < 2⁶⁴. invMax is the largest such at: below it the multiply is
// exactly the division (proven over the whole range by
// TestSlotIndexReciprocalExact), and beyond it (traces longer than
// ~2⁶⁴/d ns, about an hour at the 5 ms slot) SlotIndex falls back to
// dividing.
func (t *FateTrace) Prepare() {
	t.invSlot, t.invMax = 0, 0
	if t.SlotDur < 2 {
		// d = 1 ns would need m = 2⁶⁴+1; the plain division is a no-op
		// for such traces anyway.
		return
	}
	d := uint64(t.SlotDur)
	m := ^uint64(0)/d + 1 // floor(2⁶⁴/d) + 1 (exactly 2⁶⁴/d when d is a power of two)
	e := m * d            // wraps to m·d − 2⁶⁴ = e, 0 ≤ e ≤ d
	max := int64(math.MaxInt64)
	if e != 0 {
		if lim := ^uint64(0) / e; lim < uint64(max) {
			max = int64(lim)
		}
	}
	t.invSlot = m
	t.invMax = max
}

// Duration returns the trace length.
func (t *FateTrace) Duration() time.Duration {
	return time.Duration(len(t.Slots)) * t.SlotDur
}

// SlotIndex returns the slot index covering time at, clamped to the
// trace bounds. On a Prepared trace the index comes from one 128-bit
// multiply by the precomputed reciprocal — bit-identical to the
// division for every at below invMax (about an hour at the default
// slot width).
func (t *FateTrace) SlotIndex(at time.Duration) int {
	if at < 0 {
		return 0
	}
	var i int
	if t.invSlot != 0 && int64(at) <= t.invMax {
		hi, _ := bits.Mul64(uint64(at), t.invSlot)
		i = int(hi)
	} else {
		i = int(at / t.SlotDur)
	}
	if i >= len(t.Slots) {
		i = len(t.Slots) - 1
	}
	return i
}

// At returns the slot covering time at.
func (t *FateTrace) At(at time.Duration) *Slot {
	return &t.Slots[t.SlotIndex(at)]
}

// Delivered reports the fate of a packet sent at rate r at time at.
func (t *FateTrace) Delivered(at time.Duration, r phy.Rate) bool {
	return t.At(at).Delivered[r]
}

// MovingAt reports ground-truth receiver mobility at time at.
func (t *FateTrace) MovingAt(at time.Duration) bool { return t.At(at).Moving }

// WindowProb returns the mean delivery probability at rate r over the
// window [at−window, at]. The probing experiments use this as the
// "actual" delivery probability, matching the paper's definition (the
// ground truth is itself a 10-packet sliding window over the 200/s
// reference stream, i.e. a ~50 ms average).
func (t *FateTrace) WindowProb(at, window time.Duration, r phy.Rate) float64 {
	if window <= 0 {
		return t.At(at).Prob[r]
	}
	from := t.SlotIndex(at - window)
	to := t.SlotIndex(at)
	sum := 0.0
	for i := from; i <= to; i++ {
		sum += t.Slots[i].Prob[r]
	}
	return sum / float64(to-from+1)
}

// Validate checks structural invariants: positive slot width, at least
// one slot, probabilities within [0, 1].
func (t *FateTrace) Validate() error {
	if t.SlotDur <= 0 {
		return errors.New("trace: non-positive slot duration")
	}
	if len(t.Slots) == 0 {
		return errors.New("trace: no slots")
	}
	for i, s := range t.Slots {
		for r := 0; r < phy.NumRates; r++ {
			if p := s.Prob[r]; p < 0 || p > 1 {
				return fmt.Errorf("trace: slot %d rate %d probability %v out of range", i, r, p)
			}
		}
	}
	return nil
}

// PacketTrace is a fine-grained per-packet fate record used by the
// conditional-loss analysis (Figure 3-1), where back-to-back packets at
// one rate are sent far faster than the 5 ms slot width. Packet fates
// live in a packed bitset — the form the analysis consumes — so
// generators emit words directly (8× smaller than the former []bool and
// no repacking pass per analysis); NewPacketTrace sizes it and
// SetLost/Lost address single packets.
type PacketTrace struct {
	Rate phy.Rate
	// Interval is the inter-packet spacing.
	Interval time.Duration
	// n is the packet count; words holds one bit per packet (1 = lost),
	// packet i at words[i/64] bit i%64. Bits at n and above stay zero.
	n     int
	words []uint64
}

// NewPacketTrace returns a trace of n packets, all initially delivered.
func NewPacketTrace(rate phy.Rate, interval time.Duration, n int) *PacketTrace {
	if n < 0 {
		n = 0
	}
	return &PacketTrace{Rate: rate, Interval: interval, n: n, words: make([]uint64, (n+63)/64)}
}

// Len returns the number of packets in the trace.
func (p *PacketTrace) Len() int { return p.n }

// Lost reports whether packet i was lost; out-of-range indices read as
// delivered.
func (p *PacketTrace) Lost(i int) bool {
	if i < 0 || i >= p.n {
		return false
	}
	return p.words[i>>6]&(1<<(i&63)) != 0
}

// SetLost records packet i's fate.
func (p *PacketTrace) SetLost(i int, lost bool) {
	if i < 0 || i >= p.n {
		panic(fmt.Sprintf("trace: packet %d out of range [0,%d)", i, p.n))
	}
	if lost {
		p.words[i>>6] |= 1 << (i & 63)
	} else {
		p.words[i>>6] &^= 1 << (i & 63)
	}
}

// LossRate returns the unconditional packet loss probability.
func (p *PacketTrace) LossRate() float64 {
	if p.n == 0 {
		return 0
	}
	lost := 0
	for _, w := range p.words {
		lost += bits.OnesCount64(w)
	}
	return float64(lost) / float64(p.n)
}

// ConditionalLoss returns P(packet i+k lost | packet i lost) for each lag
// k in 1..maxLag — the quantity plotted in Figure 3-1.
//
// The computation is the dominant analysis cost on multi-minute packet
// streams (100 lags × ~10⁵ packets), so it runs directly on the packed
// loss bitset: for each lag the joint-loss count is
// popcount(bits & bits>>k) taken word at a time, 64 packets per step,
// rather than a per-packet scan.
func (p *PacketTrace) ConditionalLoss(maxLag int) []float64 {
	out := make([]float64, maxLag+1)
	n := p.n
	if n == 0 {
		return out
	}
	words := (n + 63) / 64
	// Pad with zero words so the shifted reads below never go out of
	// range (they read up to maxLag bits past the end).
	packed := make([]uint64, words+maxLag/64+2)
	copy(packed, p.words)
	// prefix[w] = set bits in words [0, w), for O(1) "losses before
	// index m" queries.
	prefix := make([]int, words+1)
	for w := 0; w < words; w++ {
		prefix[w+1] = prefix[w] + bits.OnesCount64(packed[w])
	}
	for k := 1; k <= maxLag && k < n; k++ {
		m := n - k // conditioning packets are i ∈ [0, m)
		lw, lr := m>>6, m&63
		lost := prefix[lw]
		if lr > 0 {
			lost += bits.OnesCount64(packed[lw] & (1<<lr - 1))
		}
		if lost == 0 {
			continue
		}
		q, r := k>>6, k&63
		both := 0
		for w := 0; w <= lw; w++ {
			var shifted uint64
			if r == 0 {
				shifted = packed[w+q]
			} else {
				shifted = packed[w+q]>>r | packed[w+q+1]<<(64-r)
			}
			word := packed[w] & shifted
			if w == lw {
				if lr == 0 {
					break
				}
				word &= 1<<lr - 1
			}
			both += bits.OnesCount64(word)
		}
		out[k] = float64(both) / float64(lost)
	}
	return out
}
