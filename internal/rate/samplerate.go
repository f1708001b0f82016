package rate

import (
	"fmt"
	"math/bits"
	"math/rand"
	"time"

	"repro/internal/phy"
)

// SampleRate is Bicket's frame-based protocol: send most packets at the
// rate with the lowest average per-packet transmission time over a
// trailing window (10 s by default), and periodically spend a packet
// sampling a different rate that could plausibly do better. It smooths
// over short-term fading, which makes it the strongest baseline in static
// settings (Figure 3-7) — and slow to track a mobile channel
// (Figure 3-6).
//
// Window is the protocol's tuning parameter. The paper post-processes
// each trace to pick the best window for SampleRate, biasing comparisons
// in its favour; the harness supports that by sweeping Window.
type SampleRate struct {
	// Window is the averaging window (default 10 s).
	Window time.Duration
	// PacketBytes is the frame size used for transmission-time
	// bookkeeping (default 1000).
	PacketBytes int
	// SampleEvery controls how often a sample packet is sent (default
	// every 10th packet).
	SampleEvery int
	// Rand drives sample-rate selection; a deterministic source is
	// injected by the harness.
	Rand *rand.Rand

	started bool
	count   int
	// phase is count % every, stepped without a division while
	// sampleEvery() stays at every.
	phase, every int
	// events is a ring buffer of the attempts inside the window; agg
	// holds the matching per-rate running totals so rate selection is
	// O(1). The ring is sized once per (window, frame length) — the
	// window divided by the fastest possible frame exchange bounds the
	// attempts a window can hold — so a run never grows it: see
	// TestSampleRateSweepAllocations in internal/ratesim.
	events []srEvent
	head   int // index of the oldest live event
	tail   int // index the next event is written to
	live   int // number of live events
	agg    [phy.NumRates]srAgg
	// succeeded has a rate's bit set exactly while its succ is above 0.
	// avg caches each rate's totalTx/succ. A rate's bit in stale is set
	// whenever its totals change (push, expire), and avgTxTime divides
	// again only then; with the bit clear and succ > 0, avg holds the
	// quotient of the current totals.
	succeeded uint8
	avg       [phy.NumRates]time.Duration
	stale     uint8
	// consFail counts consecutive failures per rate (4+ disqualifies the
	// rate until it succeeds again or the count goes stale); banned has
	// a rate's bit set exactly while its count is 4 or more.
	consFail [phy.NumRates]int
	banned   uint8
	// lastAttempt tracks when each rate was last tried, so stale failure
	// counts can be forgiven.
	lastAttempt [phy.NumRates]time.Duration
	current     phy.Rate
	sampling    bool
	// airt caches the airtime table for PacketBytes across Observe
	// calls (one per transmission attempt).
	airt *phy.Airtimes
}

// srEvent is one attempt in the window: 24 bytes, with the rate as a
// byte beside the success flag.
type srEvent struct {
	at      time.Duration
	txTime  time.Duration
	rate    uint8
	success bool
}

type srAgg struct {
	totalTx time.Duration
	succ    int
	n       int
}

// NewSampleRate returns a SampleRate with the standard 10 s window.
func NewSampleRate(seed int64) *SampleRate {
	return &SampleRate{Rand: rand.New(rand.NewSource(seed))}
}

// Name implements Adapter, including the window when non-standard.
func (sr *SampleRate) Name() string {
	if sr.Window > 0 && sr.Window != 10*time.Second {
		return fmt.Sprintf("SampleRate(%v)", sr.Window)
	}
	return "SampleRate"
}

// Reset implements Adapter. The ring buffer keeps its capacity: a
// reset adapter replays with zero event-storage allocations. avg and
// stale need no reset: every rate's succ is 0 until a push marks the
// rate stale.
func (sr *SampleRate) Reset() {
	sr.started = false
	sr.count = 0
	sr.phase = 0
	sr.head = 0
	sr.tail = 0
	sr.live = 0
	sr.agg = [phy.NumRates]srAgg{}
	sr.succeeded = 0
	sr.consFail = [phy.NumRates]int{}
	sr.banned = 0
	sr.lastAttempt = [phy.NumRates]time.Duration{}
	sr.sampling = false
}

func (sr *SampleRate) window() time.Duration {
	if sr.Window > 0 {
		return sr.Window
	}
	return 10 * time.Second
}

func (sr *SampleRate) bytes() int {
	if sr.PacketBytes > 0 {
		return sr.PacketBytes
	}
	return 1000
}

func (sr *SampleRate) sampleEvery() int {
	if sr.SampleEvery > 0 {
		return sr.SampleEvery
	}
	return 10
}

// PickRate implements Adapter.
func (sr *SampleRate) PickRate(now time.Duration) phy.Rate {
	if !sr.started {
		sr.started = true
		sr.current = phy.Rate(phy.NumRates - 1)
	}
	sr.expire(now)
	// Forgive consecutive-failure counts that have gone stale: the
	// channel has likely changed since the rate last failed.
	for m := sr.banned; m != 0; m &= m - 1 {
		i := bits.TrailingZeros8(m)
		if now-sr.lastAttempt[i] > time.Second {
			sr.consFail[i] = 0
			sr.banned &^= 1 << i
		}
	}
	best := sr.bestRate()
	sr.current = best
	sr.count++
	sr.sampling = false
	if k := sr.sampleEvery(); k != sr.every {
		sr.every, sr.phase = k, sr.count%k
	} else if sr.phase++; sr.phase == k {
		sr.phase = 0
	}
	if sr.phase == 0 {
		if s, ok := sr.pickSample(best); ok {
			sr.sampling = true
			return s
		}
	}
	return best
}

// Observe implements Adapter. Airtime bookkeeping reads the memoized
// per-size tables — Observe runs once per transmission attempt.
func (sr *SampleRate) Observe(fb Feedback) {
	if sr.airt == nil || sr.airt.Bytes != sr.bytes() {
		sr.airt = phy.AirtimesFor(sr.bytes())
	}
	airt := sr.airt
	var tx time.Duration
	bit := uint8(1) << fb.Rate
	if fb.Acked {
		tx = airt.Frame[fb.Rate]
		sr.consFail[fb.Rate] = 0
		sr.banned &^= bit
	} else {
		tx = airt.Failed[fb.Rate]
		sr.consFail[fb.Rate]++
		if sr.consFail[fb.Rate] >= 4 {
			sr.banned |= bit
		}
	}
	sr.lastAttempt[fb.Rate] = fb.At
	sr.push(srEvent{at: fb.At, txTime: tx, rate: uint8(fb.Rate), success: fb.Acked})
	sr.expire(fb.At)
}

// ringCapacity bounds the events a window can ever hold: the MAC clock
// advances by at least the fastest frame exchange per attempt, so the
// window divided by the cheapest airtime (plus slack for the attempt
// entering as the oldest leaves) is a hard ceiling. Sizing the ring
// once from this bound is what keeps a replay allocation-free.
func (sr *SampleRate) ringCapacity() int {
	if sr.airt == nil || sr.airt.Bytes != sr.bytes() {
		sr.airt = phy.AirtimesFor(sr.bytes())
	}
	min := sr.airt.Frame[0]
	for _, arr := range [2]*[phy.NumRates]time.Duration{&sr.airt.Frame, &sr.airt.Failed} {
		for _, d := range arr {
			if d > 0 && d < min {
				min = d
			}
		}
	}
	if min <= 0 {
		return 1024
	}
	return int(sr.window()/min) + 64
}

// push appends an event to the ring and adds it to its rate's totals,
// growing the ring only in the (unreachable by construction) case of
// overflow.
func (sr *SampleRate) push(e srEvent) {
	if len(sr.events) == 0 {
		sr.events = make([]srEvent, sr.ringCapacity())
	}
	if sr.live == len(sr.events) {
		// Defensive: a workload attempting faster than any frame
		// exchange would violate the capacity bound; double rather than
		// silently dropping window history.
		grown := make([]srEvent, 2*len(sr.events))
		for i := 0; i < sr.live; i++ {
			grown[i] = sr.events[(sr.head+i)%len(sr.events)]
		}
		sr.events = grown
		sr.head = 0
		sr.tail = sr.live
	}
	sr.events[sr.tail] = e
	sr.tail++
	if sr.tail == len(sr.events) {
		sr.tail = 0
	}
	sr.live++
	a := &sr.agg[e.rate]
	a.totalTx += e.txTime
	a.n++
	if e.success {
		a.succ++
		sr.succeeded |= 1 << e.rate
	}
	sr.stale |= 1 << e.rate
}

// expire drops events older than the window, keeping the aggregates in
// step. The ring advances its head in place; memory stays at the
// capacity fixed by ringCapacity for the life of the adapter.
func (sr *SampleRate) expire(now time.Duration) {
	cut := now - sr.window()
	for sr.live > 0 && sr.events[sr.head].at < cut {
		e := sr.events[sr.head]
		a := &sr.agg[e.rate]
		a.totalTx -= e.txTime
		a.n--
		if e.success {
			if a.succ--; a.succ == 0 {
				sr.succeeded &^= 1 << e.rate
			}
		}
		sr.stale |= 1 << e.rate
		sr.head++
		if sr.head == len(sr.events) {
			sr.head = 0
		}
		sr.live--
	}
}

// avgTxTime returns the average transmission time per *successful*
// packet at rate r over the window, and whether any success exists. It
// divides only when r's totals changed since the last division.
func (sr *SampleRate) avgTxTime(r phy.Rate) (time.Duration, bool) {
	a := &sr.agg[r]
	if a.succ <= 0 {
		return 0, false
	}
	if bit := uint8(1) << r; sr.stale&bit != 0 {
		sr.avg[r] = a.totalTx / time.Duration(a.succ)
		sr.stale &^= bit
	}
	return sr.avg[r], true
}

// bestRate returns the rate minimising average tx time among rates
// without four or more consecutive failures (Bicket's switch-away rule:
// a rate that keeps failing must be abandoned even if its windowed
// average still looks good). It visits only the rates with a success in
// the window, lowest first, so a tie goes to the lowest rate.
func (sr *SampleRate) bestRate() phy.Rate {
	best := phy.Rate(-1)
	var bestTx time.Duration
	for m := sr.succeeded &^ sr.banned; m != 0; m &= m - 1 {
		r := phy.Rate(bits.TrailingZeros8(m))
		if tx, _ := sr.avgTxTime(r); best < 0 || tx < bestTx {
			best, bestTx = r, tx
		}
	}
	if best >= 0 {
		return best
	}
	if sr.agg[sr.current].n == 0 && sr.banned&(1<<sr.current) == 0 {
		// No history at all yet: stay at the optimistic starting rate.
		return sr.current
	}
	// Every rate with history is failing repeatedly: fall back to the
	// most robust rate, as the madwifi retry chain does.
	return phy.Rate6
}

// pickSample selects a random candidate rate other than current that
// could beat it: its lossless transmission time must be below current's
// average, and it must not have 4+ consecutive failures.
func (sr *SampleRate) pickSample(current phy.Rate) (phy.Rate, bool) {
	curAvg, okCur := sr.avgTxTime(current)
	if sr.airt == nil || sr.airt.Bytes != sr.bytes() {
		sr.airt = phy.AirtimesFor(sr.bytes())
	}
	// Fixed-size candidate buffer: pickSample runs every sampleEvery-th
	// attempt and must not allocate.
	var cands [phy.NumRates]phy.Rate
	n := 0
	for _, r := range phy.Rates {
		if r == current || sr.banned&(1<<r) != 0 {
			continue
		}
		if okCur && sr.airt.Frame[r] >= curAvg {
			continue // cannot possibly beat the current rate
		}
		cands[n] = r
		n++
	}
	if n == 0 {
		return 0, false
	}
	if sr.Rand == nil {
		sr.Rand = rand.New(rand.NewSource(1))
	}
	return cands[sr.Rand.Intn(n)], true
}

// Sampling reports whether the most recent PickRate returned a sample
// (exposed for tests).
func (sr *SampleRate) Sampling() bool { return sr.sampling }
