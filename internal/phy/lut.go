package phy

import (
	"sync"
	"time"
)

// This file is the table-driven fast path over the analytic error model
// and airtime cost model. The analytic functions in error.go and
// rates.go remain the reference implementation; the tables here
// precompute them once per frame length so the per-packet hot loops of
// the channel generator and the MAC simulators do table lookups instead
// of Erfc/Pow evaluations and time.Duration arithmetic. This is the
// standard discrete-event-simulator trick (ns-2/ns-3 precompute their
// error-model tables the same way).
//
// Quantization: delivery probability is tabulated on a uniform SNR grid
// from lutMinSNR to lutMaxSNR in steps of 1/64 dB and linearly
// interpolated between grid points. Outside the grid the curves are
// flat (PER = 1 below, PER = 0 above for every rate), so lookups clamp.
// The measured max absolute error of the interpolated curves versus the
// analytic PER over the full range is below 1e-4 (asserted, with bound
// 1e-3, by TestErrorTableAccuracy).

const (
	// lutMinSNR/lutMaxSNR bound the tabulated SNR range (dB). Below
	// −20 dB every rate's analytic PER is 1; above 40 dB every rate's
	// BER has hit the model's numerical floor and PER is exactly 0.
	lutMinSNR = -20.0
	lutMaxSNR = 40.0
	// lutStepsPerDB is the quantization: 1/64 dB grid spacing.
	lutStepsPerDB = 64
	// lutN is the number of grid points.
	lutN = int((lutMaxSNR-lutMinSNR)*lutStepsPerDB) + 1
)

// ErrorTable holds the precomputed SNR→delivery-probability curves of
// all eight rates for one frame length, plus the matching
// throughput-optimal rate per SNR bin. Obtain one with ErrorTableFor;
// tables are immutable after construction and safe for concurrent use.
type ErrorTable struct {
	// Bytes is the frame length the table was built for.
	Bytes int
	// dp[r][i] is DeliveryProb(r, lutMinSNR + i/lutStepsPerDB, Bytes).
	dp [NumRates][lutN]float64
	// best[i] is BestRateForSNR at grid point i, computed from the
	// tabulated curves.
	best [lutN]int8
}

// errorTables caches one ErrorTable per frame length. Simulations use a
// handful of sizes (1000-byte data frames, ACK/RTS/CTS control sizes),
// so the cache stays tiny.
var errorTables sync.Map // int → *ErrorTable

// ErrorTableFor returns the (cached) error table for the given frame
// length, building it from the analytic curves on first use.
func ErrorTableFor(bytes int) *ErrorTable {
	if bytes <= 0 {
		bytes = DefaultFrameBytes
	}
	if t, ok := errorTables.Load(bytes); ok {
		return t.(*ErrorTable)
	}
	t := newErrorTable(bytes)
	actual, _ := errorTables.LoadOrStore(bytes, t)
	return actual.(*ErrorTable)
}

func newErrorTable(bytes int) *ErrorTable {
	t := &ErrorTable{Bytes: bytes}
	for r := 0; r < NumRates; r++ {
		for i := 0; i < lutN; i++ {
			t.dp[r][i] = DeliveryProb(Rate(r), snrAt(i), bytes)
		}
	}
	for i := 0; i < lutN; i++ {
		best, bestTput := 0, -1.0
		for r := 0; r < NumRates; r++ {
			if tput := float64(rateTable[r].Mbps) * t.dp[r][i]; tput > bestTput {
				bestTput = tput
				best = r
			}
		}
		t.best[i] = int8(best)
	}
	return t
}

// snrAt returns the SNR (dB) of grid point i.
func snrAt(i int) float64 {
	return lutMinSNR + float64(i)/lutStepsPerDB
}

// DeliveryProb returns the interpolated delivery probability of a frame
// of the table's length at rate r under the given SNR. It matches the
// analytic DeliveryProb to within 1e-3 absolute everywhere and costs a
// couple of array reads instead of Erfc and two Pow calls.
func (t *ErrorTable) DeliveryProb(r Rate, snrDB float64) float64 {
	x := (snrDB - lutMinSNR) * lutStepsPerDB
	// Negated comparisons so a NaN SNR clamps to the low edge instead
	// of reaching int(NaN) and indexing out of range.
	if !(x > 0) {
		return t.dp[r][0]
	}
	if x >= float64(lutN-1) {
		return t.dp[r][lutN-1]
	}
	i := int(x)
	row := &t.dp[r]
	return row[i] + (x-float64(i))*(row[i+1]-row[i])
}

// DeliveryProbs fills out[r] with the interpolated delivery probability
// of every rate at the given SNR, sharing one grid-index computation
// across all eight rows — the per-slot shape of the channel generator's
// inner loop.
func (t *ErrorTable) DeliveryProbs(snrDB float64, out *[NumRates]float64) {
	x := (snrDB - lutMinSNR) * lutStepsPerDB
	i, f := 0, 0.0
	switch {
	case !(x > 0): // includes NaN: clamp rather than index with int(NaN)
	case x >= float64(lutN-1):
		i = lutN - 2
		f = 1
	default:
		i = int(x)
		f = x - float64(i)
	}
	for r := range out {
		row := &t.dp[r]
		out[r] = row[i] + f*(row[i+1]-row[i])
	}
}

// PER returns the interpolated packet error rate, 1 − DeliveryProb.
func (t *ErrorTable) PER(r Rate, snrDB float64) float64 {
	return 1 - t.DeliveryProb(r, snrDB)
}

// BestRate returns the throughput-optimal rate at the given SNR per the
// tabulated curves — the table-driven counterpart of BestRateForSNR,
// used by the SNR-based adapters on every pick. Quantization moves the
// rate-switch thresholds by at most half a grid step (1/128 dB).
func (t *ErrorTable) BestRate(snrDB float64) Rate {
	x := (snrDB-lutMinSNR)*lutStepsPerDB + 0.5
	if !(x > 0) { // includes NaN: clamp rather than index with int(NaN)
		return Rate(t.best[0])
	}
	if x >= float64(lutN-1) {
		return Rate(t.best[lutN-1])
	}
	return Rate(t.best[int(x)])
}

// Airtimes memoizes the frame-exchange cost model for one payload size:
// the per-rate payload, successful-exchange and failed-exchange
// airtimes the MAC simulators charge on every attempt. Obtain one with
// AirtimesFor; tables are immutable and safe for concurrent use.
type Airtimes struct {
	// Bytes is the payload length the table was built for.
	Bytes int
	// Payload[r] is PayloadAirtime(r, Bytes).
	Payload [NumRates]time.Duration
	// Frame[r] is FrameExchangeAirtime(r, Bytes).
	Frame [NumRates]time.Duration
	// Failed[r] is FailedExchangeAirtime(r, Bytes).
	Failed [NumRates]time.Duration
}

// airtimes caches one Airtimes per payload size.
var airtimes sync.Map // int → *Airtimes

// DefaultFrameBytes is the payload length the simulations use unless an
// experiment says otherwise (the same default ErrorTableFor/AirtimesFor
// substitute for non-positive sizes). Warm builds it when given no
// list.
const DefaultFrameBytes = 1000

// Warm pre-builds the error and airtime tables for the given payload
// lengths (DefaultFrameBytes when none are given), so a caller can pay
// the LUT construction once, before a timed run's trial fan-out would
// otherwise race to build the same tables inside the hot loop. The
// tables land in the process-global caches and stay warm for every
// later run.
func Warm(bytes ...int) {
	if len(bytes) == 0 {
		bytes = []int{DefaultFrameBytes}
	}
	for _, b := range bytes {
		ErrorTableFor(b)
		AirtimesFor(b)
	}
}

// AirtimesFor returns the (cached) airtime table for the given payload
// size, computing it via the analytic airtime functions on first use.
func AirtimesFor(bytes int) *Airtimes {
	if bytes <= 0 {
		bytes = DefaultFrameBytes
	}
	if t, ok := airtimes.Load(bytes); ok {
		return t.(*Airtimes)
	}
	t := &Airtimes{Bytes: bytes}
	for r := 0; r < NumRates; r++ {
		t.Payload[r] = PayloadAirtime(Rate(r), bytes)
		t.Frame[r] = FrameExchangeAirtime(Rate(r), bytes)
		t.Failed[r] = FailedExchangeAirtime(Rate(r), bytes)
	}
	actual, _ := airtimes.LoadOrStore(bytes, t)
	return actual.(*Airtimes)
}
