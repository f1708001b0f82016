// Package ratesim is the trace-driven MAC simulation harness for the
// Chapter 3 rate adaptation experiments. It replays a channel fate trace
// (the role the modified ns-3 played in the paper): before each
// transmission attempt the adapter picks a rate, the trace decides the
// packet's fate, the clock advances by the frame exchange's airtime, and
// the adapter observes the outcome.
//
// Two traffic workloads are modelled. UDP saturates the link. TCP adds a
// loss-reactive congestion window with timeouts, reproducing the paper's
// observation that TCP collapses under the bursty loss of a fast-moving
// receiver (which is why the vehicular evaluation uses UDP).
//
// Run is the per-trial hot loop of every Chapter 3 experiment: airtime
// costs come from the memoized phy.AirtimesFor tables, randomness from
// an inline splitmix64 generator, and a replay performs no heap
// allocation (pinned by TestRunAllocationFree).
package ratesim

import (
	"time"

	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/rate"
	"repro/internal/trace"
)

// Workload selects the traffic model.
type Workload int

// Supported workloads.
const (
	// UDP is a saturated constant stream.
	UDP Workload = iota
	// TCP adds AIMD congestion control with retransmission timeouts.
	TCP
)

// String names the workload.
func (w Workload) String() string {
	if w == TCP {
		return "TCP"
	}
	return "UDP"
}

// Config parameterises one simulation run.
type Config struct {
	Trace *trace.FateTrace
	// Adapter is the rate adaptation protocol under test.
	Adapter rate.Adapter
	// Workload selects UDP or TCP traffic (default UDP).
	Workload Workload
	// PacketBytes is the MAC payload size (default 1000, as in §3.3).
	PacketBytes int
	// RetryLimit is the MAC retransmission limit per packet (default 7).
	RetryLimit int
	// HintLatency delays the movement hint the adapter sees relative to
	// the trace's ground truth, modelling sensor detection (< 100 ms per
	// §2.2.1) plus hint-protocol delivery. Default 100 ms. Only consulted
	// for adapters implementing MovingSetter.
	HintLatency time.Duration
	// SNRStale delays the SNR the SNR-based adapters learn from an ACK,
	// modelling measurement-report latency (default one slot).
	SNRStale time.Duration
	// SNRNoise is the 1-σ measurement noise (dB) on each SNR report
	// (default 1.5 dB). Per-report noise is what CHARM's averaging
	// defends against and what makes RBAR's instantaneous picks jittery.
	SNRNoise float64
	// Seed drives the per-attempt fate and SNR-noise draws.
	Seed int64
}

// MovingSetter is implemented by hint-aware adapters that accept the
// receiver's movement hint.
type MovingSetter interface {
	SetMoving(bool)
}

// Result summarises one run.
type Result struct {
	// ThroughputMbps is delivered payload throughput.
	ThroughputMbps float64
	// Sent counts transmission attempts; Delivered counts MAC-level
	// successes; LostPackets counts packets dropped after RetryLimit.
	Sent, Delivered, LostPackets int
	// RateHistogram counts attempts per bit rate.
	RateHistogram [phy.NumRates]int
	// Timeouts counts TCP retransmission timeouts (TCP workload only).
	Timeouts int
}

// AvgRateMbps returns the attempt-weighted mean bit rate of the run.
func (r Result) AvgRateMbps() float64 {
	total, n := 0.0, 0
	for i, c := range r.RateHistogram {
		total += float64(phy.Rate(i).Mbps()) * float64(c)
		n += c
	}
	if n == 0 {
		return 0
	}
	return total / float64(n)
}

// Run replays the trace against the adapter and returns the result.
func Run(cfg Config) Result {
	tr := cfg.Trace
	bytes := cfg.PacketBytes
	if bytes <= 0 {
		bytes = 1000
	}
	retry := cfg.RetryLimit
	if retry <= 0 {
		retry = 7
	}
	hintLat := cfg.HintLatency
	if hintLat == 0 {
		hintLat = 100 * time.Millisecond
	}
	snrStale := cfg.SNRStale
	if snrStale == 0 {
		snrStale = tr.SlotDur
	}
	snrNoise := cfg.SNRNoise
	if snrNoise == 0 {
		snrNoise = 1.5
	}
	rng := parallel.NewRNG(cfg.Seed)
	// Airtime costs are pure functions of (rate, payload size); the
	// memoized tables keep the per-attempt clock advance to two array
	// reads instead of redone integer/Duration arithmetic.
	airt := phy.AirtimesFor(bytes)

	var res Result
	end := tr.Duration()
	now := time.Duration(0)

	// TCP state.
	cwnd := 2.0
	const rtt = 20 * time.Millisecond
	const rto = 200 * time.Millisecond
	consLost := 0

	setter, hasHint := cfg.Adapter.(MovingSetter)
	snrUpd, hasSNR := cfg.Adapter.(rate.SNRUpdater)
	var rtsOverhead time.Duration
	if ru, ok := cfg.Adapter.(rate.RTSUser); ok && ru.UsesRTS() {
		rtsOverhead = phy.RTSCTSAirtime()
	}

	for now < end {
		if hasHint {
			// The hint the sender holds reflects the receiver's state
			// HintLatency ago.
			setter.SetMoving(tr.MovingAt(now - hintLat))
		}
		// Transmit one MAC packet with retries.
		delivered := false
		for attempt := 0; attempt <= retry && now < end; attempt++ {
			if hasSNR {
				// SNR-based protocols receive the receiver's most recent
				// SNR report: one measurement interval stale, with
				// per-report measurement noise.
				snrUpd.UpdateSNR(now, tr.At(now-snrStale).SNR+rng.NormFloat64()*snrNoise)
			}
			r := cfg.Adapter.PickRate(now)
			// Packet fates are drawn per attempt from the slot's delivery
			// probability (which already includes the rate-independent
			// contention loss): given the slot SNR, bit errors are
			// independent across packets, while fades appear as slots whose
			// probability collapses toward zero.
			ok := rng.Float64() < tr.At(now).Prob[r]
			res.Sent++
			res.RateHistogram[r]++
			fb := rate.Feedback{At: now, Rate: r, Acked: ok, SNR: rate.NoSNR()}
			now += rtsOverhead + phy.RetryBackoff(attempt)
			if ok {
				// The sender learns the receiver SNR from the exchange,
				// slightly stale and noisy. Only SNR-based adapters read
				// it; for the others the generator advances past the
				// draw without computing it, so the fate draws that
				// follow are the same either way.
				if hasSNR {
					fb.SNR = tr.At(now-snrStale).SNR + rng.NormFloat64()*snrNoise
				} else {
					rng.SkipNormFloat64()
				}
				now += airt.Frame[r]
			} else {
				now += airt.Failed[r]
			}
			cfg.Adapter.Observe(fb)
			if ok {
				delivered = true
				break
			}
		}
		if delivered {
			res.Delivered++
		} else {
			res.LostPackets++
		}

		if cfg.Workload == TCP {
			if delivered {
				consLost = 0
				cwnd += 1 / cwnd // congestion avoidance
				if cwnd > 64 {
					cwnd = 64
				}
			} else {
				consLost++
				cwnd /= 2
				if cwnd < 1 {
					cwnd = 1
				}
				if consLost >= 3 {
					// Retransmission timeout: the sender stalls.
					res.Timeouts++
					now += rto
					cwnd = 1
					consLost = 0
				}
			}
			// Pace by the window: cwnd packets per RTT. The top-rate
			// exchange airtime is loop-invariant, hoisted via the table.
			gap := time.Duration(float64(rtt) / cwnd)
			if min := airt.Frame[phy.Rate54]; gap < min {
				gap = 0 // window no longer the bottleneck
			} else {
				gap -= min
			}
			now += gap
		}
	}

	dur := end.Seconds()
	if dur > 0 {
		res.ThroughputMbps = float64(res.Delivered) * float64(bytes) * 8 / dur / 1e6
	}
	return res
}
