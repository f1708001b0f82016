package rate

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/phy"
)

// rescanSampleRate is SampleRate as it was before its rate masks,
// cached averages, sampling phase and ring tail: every pick rescans
// every rate's failure and success counts, divides every rate's totals
// again and takes the pick count modulo the sampling interval. It is
// the oracle for FuzzSampleRateMatchesRescan.
type rescanSampleRate struct {
	Window      time.Duration
	PacketBytes int
	SampleEvery int
	Rand        *rand.Rand

	started     bool
	count       int
	events      []rescanEvent
	head        int
	live        int
	agg         [phy.NumRates]rescanAgg
	consFail    [phy.NumRates]int
	lastAttempt [phy.NumRates]time.Duration
	current     phy.Rate
	sampling    bool
	airt        *phy.Airtimes
}

type rescanEvent struct {
	at      time.Duration
	rate    phy.Rate
	txTime  time.Duration
	success bool
}

type rescanAgg struct {
	totalTx time.Duration
	succ    int
	n       int
}

// Reset clears the history; the ring keeps its capacity.
func (sr *rescanSampleRate) Reset() {
	sr.started = false
	sr.count = 0
	sr.head = 0
	sr.live = 0
	sr.agg = [phy.NumRates]rescanAgg{}
	sr.consFail = [phy.NumRates]int{}
	sr.lastAttempt = [phy.NumRates]time.Duration{}
	sr.sampling = false
}

func (sr *rescanSampleRate) window() time.Duration {
	if sr.Window > 0 {
		return sr.Window
	}
	return 10 * time.Second
}

func (sr *rescanSampleRate) bytes() int {
	if sr.PacketBytes > 0 {
		return sr.PacketBytes
	}
	return 1000
}

func (sr *rescanSampleRate) sampleEvery() int {
	if sr.SampleEvery > 0 {
		return sr.SampleEvery
	}
	return 10
}

// PickRate returns the rate for the next attempt.
func (sr *rescanSampleRate) PickRate(now time.Duration) phy.Rate {
	if !sr.started {
		sr.started = true
		sr.current = phy.Rate(phy.NumRates - 1)
	}
	sr.expire(now)
	// Forgive consecutive-failure counts that have gone stale: the
	// channel has likely changed since the rate last failed.
	for i := range sr.consFail {
		if sr.consFail[i] >= 4 && now-sr.lastAttempt[i] > time.Second {
			sr.consFail[i] = 0
		}
	}
	best := sr.bestRate()
	sr.current = best
	sr.count++
	sr.sampling = false
	if sr.count%sr.sampleEvery() == 0 {
		if s, ok := sr.pickSample(best); ok {
			sr.sampling = true
			return s
		}
	}
	return best
}

// Observe records the fate of an attempt.
func (sr *rescanSampleRate) Observe(fb Feedback) {
	if sr.airt == nil || sr.airt.Bytes != sr.bytes() {
		sr.airt = phy.AirtimesFor(sr.bytes())
	}
	airt := sr.airt
	var tx time.Duration
	if fb.Acked {
		tx = airt.Frame[fb.Rate]
		sr.consFail[fb.Rate] = 0
	} else {
		tx = airt.Failed[fb.Rate]
		sr.consFail[fb.Rate]++
	}
	sr.lastAttempt[fb.Rate] = fb.At
	sr.push(rescanEvent{at: fb.At, rate: fb.Rate, txTime: tx, success: fb.Acked})
	a := &sr.agg[fb.Rate]
	a.totalTx += tx
	a.n++
	if fb.Acked {
		a.succ++
	}
	sr.expire(fb.At)
}

// ringCapacity bounds the events a window can ever hold: the MAC clock
// advances by at least the fastest frame exchange per attempt, so the
// window divided by the cheapest airtime (plus slack for the attempt
// entering as the oldest leaves) is a hard ceiling. Sizing the ring
// once from this bound is what keeps a replay allocation-free.
func (sr *rescanSampleRate) ringCapacity() int {
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

// push appends an event to the ring, growing only in the (unreachable
// by construction) case of overflow.
func (sr *rescanSampleRate) push(e rescanEvent) {
	if len(sr.events) == 0 {
		sr.events = make([]rescanEvent, sr.ringCapacity())
	}
	if sr.live == len(sr.events) {
		// Defensive: a workload attempting faster than any frame
		// exchange would violate the capacity bound; double rather than
		// silently dropping window history.
		grown := make([]rescanEvent, 2*len(sr.events))
		for i := 0; i < sr.live; i++ {
			grown[i] = sr.events[(sr.head+i)%len(sr.events)]
		}
		sr.events = grown
		sr.head = 0
	}
	sr.events[(sr.head+sr.live)%len(sr.events)] = e
	sr.live++
}

// expire drops events older than the window, keeping the aggregates in
// step. The ring advances its head in place; memory stays at the
// capacity fixed by ringCapacity for the life of the adapter.
func (sr *rescanSampleRate) expire(now time.Duration) {
	cut := now - sr.window()
	for sr.live > 0 && sr.events[sr.head].at < cut {
		e := sr.events[sr.head]
		a := &sr.agg[e.rate]
		a.totalTx -= e.txTime
		a.n--
		if e.success {
			a.succ--
		}
		sr.head++
		if sr.head == len(sr.events) {
			sr.head = 0
		}
		sr.live--
	}
}

// avgTxTime returns the average transmission time per *successful*
// packet at rate r over the window, and whether any success exists.
func (sr *rescanSampleRate) avgTxTime(r phy.Rate) (time.Duration, bool) {
	a := sr.agg[r]
	if a.succ <= 0 {
		return 0, false
	}
	return a.totalTx / time.Duration(a.succ), true
}

// bestRate returns the rate minimising average tx time among rates
// without four or more consecutive failures (Bicket's switch-away rule:
// a rate that keeps failing must be abandoned even if its windowed
// average still looks good).
func (sr *rescanSampleRate) bestRate() phy.Rate {
	best := phy.Rate(-1)
	var bestTx time.Duration
	for i := 0; i < phy.NumRates; i++ {
		if sr.consFail[i] >= 4 {
			continue
		}
		if tx, ok := sr.avgTxTime(phy.Rate(i)); ok {
			if best < 0 || tx < bestTx {
				best, bestTx = phy.Rate(i), tx
			}
		}
	}
	if best >= 0 {
		return best
	}
	if sr.agg[sr.current].n == 0 && sr.consFail[sr.current] < 4 {
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
func (sr *rescanSampleRate) pickSample(current phy.Rate) (phy.Rate, bool) {
	curAvg, okCur := sr.avgTxTime(current)
	if sr.airt == nil || sr.airt.Bytes != sr.bytes() {
		sr.airt = phy.AirtimesFor(sr.bytes())
	}
	// Fixed-size candidate buffer: pickSample runs every sampleEvery-th
	// attempt and must not allocate.
	var cands [phy.NumRates]phy.Rate
	n := 0
	for _, r := range phy.Rates {
		if r == current || sr.consFail[r] >= 4 {
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
func (sr *rescanSampleRate) Sampling() bool { return sr.sampling }

// FuzzSampleRateMatchesRescan drives a SampleRate and a
// rescanSampleRate with one window (1 ms–3 s), one SampleEvery (1–20)
// and one seed through the steps ops decodes, two bytes each. The first
// byte is the time gap before the step: 0–3 ms in 50 µs steps below
// 240, a jump of 1 s (the forgiveness boundary) to 3.75 s in 250 ms
// steps from 240 to 251, a Reset of both (and no gap) from 252 to 254,
// and at 255 a new SampleEvery of 1–20 from the second byte. In the
// second, bit 0 is the fate (1 = acked), and when bits 1–3 are clear
// the top three bits override the picked rate. PickRate and Sampling
// must agree at every step.
func FuzzSampleRateMatchesRescan(f *testing.F) {
	gen := rand.New(rand.NewSource(1))
	randomOps := func(steps int) []byte {
		ops := make([]byte, 2*steps)
		gen.Read(ops)
		return ops
	}
	f.Add(int64(1), uint32(0), uint8(0), []byte{})
	f.Add(int64(2), uint32(9_000), uint8(9), randomOps(3000))
	f.Add(int64(3), uint32(2_999_000), uint8(19), randomOps(3000))
	f.Add(int64(4), uint32(49_000), uint8(3), randomOps(1500))
	// Back-to-back attempts outgrow the ring of a 1 ms window, which
	// then expires them.
	var burst []byte
	for i := 0; i < 400; i++ {
		burst = append(burst, 0, byte(i)|1)
	}
	for i := 0; i < 50; i++ {
		burst = append(burst, 60, byte(i))
	}
	f.Add(int64(5), uint32(0), uint8(0), burst)
	// Failures ban every rate; a Reset inside a second must lift the
	// bans, and so must a jump past a second.
	var fails []byte
	for i := 0; i < 64; i++ {
		fails = append(fails, 20, byte(i%8)<<5)
	}
	fails = append(fails, 252, 0, 10, 1)
	for i := 0; i < 64; i++ {
		fails = append(fails, 20, byte(i%8)<<5)
	}
	fails = append(fails, 245, 1, 10, 1, 10, 0, 10, 1)
	f.Add(int64(6), uint32(999_000), uint8(1), fails)
	// Four failures at 54 Mbps, then a jump of exactly 1 s: the ban
	// holds, so every-pick sampling must still pass 54 over.
	f.Add(int64(7), uint32(0), uint8(0), []byte{0, 0xe0, 0, 0xe0, 0, 0xe0, 0, 0xe0, 240, 1, 0, 1})
	// 54 Mbps succeeds, then fails four times and leaves a 1 ms window:
	// with no history left, a banned current rate must not be kept.
	f.Add(int64(8), uint32(0), uint8(19), []byte{0, 0xe1, 0, 2, 0, 2, 0, 2, 0, 2, 60, 3})
	// SampleEvery changes between picks: 7 after three picks, 3 after
	// eleven, then a Reset.
	steps := []byte{255, 6}
	for i := 0; i < 40; i++ {
		steps = append(steps, 10, 1)
		switch i {
		case 2:
			steps = append(steps, 255, 6)
		case 10:
			steps = append(steps, 255, 2)
		case 25:
			steps = append(steps, 252, 1)
		}
	}
	f.Add(int64(9), uint32(500_000), uint8(9), steps)

	f.Fuzz(func(t *testing.T, seed int64, window uint32, every uint8, ops []byte) {
		sr := NewSampleRate(seed)
		ref := &rescanSampleRate{Rand: rand.New(rand.NewSource(seed))}
		sr.Window = time.Millisecond + time.Duration(window%2_999_001)*time.Microsecond
		sr.SampleEvery = 1 + int(every%20)
		ref.Window, ref.SampleEvery = sr.Window, sr.SampleEvery
		now := time.Duration(0)
		for i := 0; i+1 < len(ops); i += 2 {
			b0, b1 := ops[i], ops[i+1]
			switch {
			case b0 < 240:
				now += time.Duration(b0%61) * 50 * time.Microsecond
			case b0 < 252:
				now += time.Second + time.Duration(b0-240)*250*time.Millisecond
			case b0 < 255:
				sr.Reset()
				ref.Reset()
			default:
				sr.SampleEvery = 1 + int(b1%20)
				ref.SampleEvery = sr.SampleEvery
			}
			r, want := sr.PickRate(now), ref.PickRate(now)
			if r != want || sr.Sampling() != ref.Sampling() {
				t.Fatalf("step %d at %v: PickRate %v sampling %v, rescan %v sampling %v",
					i/2, now, r, sr.Sampling(), want, ref.Sampling())
			}
			if b1&0x0e == 0 {
				r = phy.Rate(b1 >> 5)
			}
			fb := Feedback{At: now, Rate: r, Acked: b1&1 == 1, SNR: NoSNR()}
			sr.Observe(fb)
			ref.Observe(fb)
		}
	})
}

// TestSampleRateTieGoesToLowerRate gives 48 Mbps one clean success and
// 54 Mbps enough failures beside its successes that the two windowed
// averages divide to the same Duration: the pick must be 48, as the
// rescan's strict comparison in ascending rate order makes it.
func TestSampleRateTieGoesToLowerRate(t *testing.T) {
	airt := phy.AirtimesFor(1000)
	lo, hi := phy.Rate48, phy.Rate54
	succ, fail := 0, 0
search:
	for s := 1; s <= 300; s++ {
		for f := 1; f <= 3*s; f++ {
			total := time.Duration(s)*airt.Frame[hi] + time.Duration(f)*airt.Failed[hi]
			if total/time.Duration(s) == airt.Frame[lo] {
				succ, fail = s, f
				break search
			}
		}
	}
	if succ == 0 {
		t.Fatal("no success/failure mix of 54 Mbps averages exactly a clean 48 Mbps frame")
	}
	sr := NewSampleRate(1)
	ref := &rescanSampleRate{Rand: rand.New(rand.NewSource(1))}
	sr.SampleEvery, ref.SampleEvery = 1000, 1000
	at := time.Duration(0)
	observe := func(r phy.Rate, acked bool) {
		fb := Feedback{At: at, Rate: r, Acked: acked, SNR: NoSNR()}
		sr.Observe(fb)
		ref.Observe(fb)
		at += 100 * time.Microsecond
	}
	observe(lo, true)
	for s, f := 0, 0; s < succ || f < fail; {
		// At most three failures in a row keep 54 Mbps eligible.
		for k := 0; k < 3 && f < fail; k++ {
			observe(hi, false)
			f++
		}
		if s < succ {
			observe(hi, true)
			s++
		}
	}
	if got, want := sr.PickRate(at), ref.PickRate(at); got != lo || want != lo {
		t.Errorf("tied averages: PickRate %v, rescan %v, want %v", got, want, lo)
	}
}
