// Package rate implements the bit-rate adaptation protocols evaluated in
// Chapter 3: the paper's RapidSample (designed for mobile channels), the
// frame-based baselines SampleRate and RRAA, the SNR-based baselines RBAR
// and CHARM, and the hint-aware protocol that switches between
// RapidSample and SampleRate on the receiver's movement hint.
//
// All protocols implement Adapter: the MAC asks for a rate before each
// transmission attempt and reports the attempt's fate afterwards. This is
// the same per-packet call structure as the paper's Figure 3-2
// pseudocode.
package rate

import (
	"math"
	"time"

	"repro/internal/phy"
)

// Feedback reports the fate of one transmission attempt to an adapter.
type Feedback struct {
	// At is the time of the attempt.
	At time.Duration
	// Rate is the bit rate the attempt used.
	Rate phy.Rate
	// Acked reports whether a link-layer ACK was received.
	Acked bool
	// SNR is the receiver-side SNR learned from this exchange when
	// Acked (e.g. via the RTS/CTS or reciprocity mechanisms RBAR and
	// CHARM rely on); NaN when no fresh SNR was learned. The MAC replay
	// (internal/ratesim) learns one on every ACK only for adapters that
	// implement SNRUpdater, the ones that read it, and gives every other
	// adapter NoSNR().
	SNR float64
}

// NoSNR is the Feedback.SNR value meaning no SNR was learned.
func NoSNR() float64 { return math.NaN() }

// SNRUpdater is implemented by SNR-based adapters (RBAR, CHARM). The
// harness feeds them the latest receiver-SNR report before each pick,
// reflecting the paper's evaluation assumption that "the sender has
// up-to-date knowledge about the receiver SNR" (§3.4); the report is
// still one measurement interval stale, which is what makes instantaneous
// SNR unreliable on a fast-changing mobile channel.
type SNRUpdater interface {
	UpdateSNR(at time.Duration, snr float64)
}

// RTSUser is implemented by adapters whose mechanism requires an
// RTS/CTS exchange before every data frame (RBAR). The MAC harness
// charges them the control-exchange airtime — the overhead CHARM was
// designed to avoid.
type RTSUser interface {
	UsesRTS() bool
}

// Adapter is a bit-rate adaptation protocol.
type Adapter interface {
	// Name identifies the protocol in reports.
	Name() string
	// PickRate returns the rate for the next transmission attempt.
	PickRate(now time.Duration) phy.Rate
	// Observe reports the fate of the attempt.
	Observe(fb Feedback)
	// Reset clears protocol history, as when a strategy switch makes the
	// accumulated channel state invalid.
	Reset()
}

// losslessTxTime returns the per-packet lossless transmission time at r
// for the harness packet size — the quantity SampleRate and RRAA compare
// rates by. It reads the memoized airtime table: adapters evaluate it
// per attempt, inside the MAC simulator's hot loop.
func losslessTxTime(r phy.Rate, bytes int) time.Duration {
	return phy.AirtimesFor(bytes).Frame[r]
}
