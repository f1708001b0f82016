package ratesim

import (
	"math"
	"testing"
	"time"

	"repro/internal/channel"
	"repro/internal/phy"
	"repro/internal/rate"
	"repro/internal/sensors"
	"repro/internal/trace"
)

// perfectTrace builds a trace where every rate always delivers.
func perfectTrace(n int) *trace.FateTrace {
	tr := &trace.FateTrace{Env: "unit", Mode: "static", SlotDur: trace.DefaultSlot, Slots: make([]trace.Slot, n)}
	for i := range tr.Slots {
		tr.Slots[i].SNR = 40
		for r := 0; r < phy.NumRates; r++ {
			tr.Slots[i].Prob[r] = 1
			tr.Slots[i].Delivered[r] = true
		}
	}
	return tr
}

// cappedTrace delivers only at rates ≤ max.
func cappedTrace(n int, max phy.Rate) *trace.FateTrace {
	tr := perfectTrace(n)
	for i := range tr.Slots {
		for r := int(max) + 1; r < phy.NumRates; r++ {
			tr.Slots[i].Prob[r] = 0
			tr.Slots[i].Delivered[r] = false
		}
	}
	return tr
}

func TestUDPThroughputOnPerfectChannel(t *testing.T) {
	tr := perfectTrace(400) // 2 s
	res := Run(Config{Trace: tr, Adapter: rate.NewRapidSample(), Workload: UDP, Seed: 1})
	// At 54 Mbps with MAC overhead, goodput is ~24-25 Mbps for 1000 B
	// frames.
	if res.ThroughputMbps < 20 || res.ThroughputMbps > 26 {
		t.Errorf("UDP goodput = %.2f Mbps, want ≈ 24", res.ThroughputMbps)
	}
	if res.LostPackets != 0 {
		t.Errorf("%d lost packets on a perfect channel", res.LostPackets)
	}
	if res.Sent != res.Delivered {
		t.Errorf("sent %d != delivered %d on a perfect channel", res.Sent, res.Delivered)
	}
}

func TestAdapterConvergesToCap(t *testing.T) {
	tr := cappedTrace(400, phy.Rate24)
	res := Run(Config{Trace: tr, Adapter: rate.NewRapidSample(), Workload: UDP, Seed: 2})
	// Most attempts should end up at or below the cap after convergence,
	// and goodput should approach the 24 Mbps effective limit (~14).
	if res.ThroughputMbps < 9 {
		t.Errorf("goodput %.2f too low for a clean 24 Mbps cap", res.ThroughputMbps)
	}
	above := 0
	for r := int(phy.Rate24) + 1; r < phy.NumRates; r++ {
		above += res.RateHistogram[r]
	}
	if above > res.Sent/3 {
		t.Errorf("%d/%d attempts above the cap", above, res.Sent)
	}
}

func TestDeterminism(t *testing.T) {
	sched := sensors.AlternatingSchedule(4*time.Second, time.Second, sensors.Walk, false)
	tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: 4 * time.Second, Seed: 3})
	run := func() Result {
		return Run(Config{Trace: tr, Adapter: rate.NewSampleRate(9), Workload: TCP, Seed: 17})
	}
	a, b := run(), run()
	if a != b {
		t.Errorf("same-seed runs differ: %+v vs %+v", a, b)
	}
}

func TestTCPSlowerThanUDPOnLossyChannel(t *testing.T) {
	sched := sensors.Schedule{{Start: 0, End: 4 * time.Second, Mode: sensors.Walk}}
	tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: 4 * time.Second, Seed: 4})
	udp := Run(Config{Trace: tr, Adapter: rate.NewSampleRate(1), Workload: UDP, Seed: 5})
	tcp := Run(Config{Trace: tr, Adapter: rate.NewSampleRate(1), Workload: TCP, Seed: 5})
	if tcp.ThroughputMbps > udp.ThroughputMbps {
		t.Errorf("TCP %.2f above UDP %.2f on a lossy mobile channel",
			tcp.ThroughputMbps, udp.ThroughputMbps)
	}
	if tcp.Timeouts == 0 {
		t.Log("note: no TCP timeouts on this trace (acceptable, seed dependent)")
	}
}

func TestHintDelivery(t *testing.T) {
	// The adapter must see the trace's mobility with the configured
	// latency.
	total := 2 * time.Second
	sched := sensors.Schedule{{Start: time.Second, End: total, Mode: sensors.Walk}}
	tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: total, Seed: 6})
	ha := rate.NewHintAware(1)
	Run(Config{Trace: tr, Adapter: ha, Workload: UDP, HintLatency: 100 * time.Millisecond, Seed: 7})
	if !ha.Moving() {
		t.Error("hint-aware adapter never learned the receiver moved")
	}
	if ha.Switches() == 0 {
		t.Error("no strategy switches on a static→mobile trace")
	}
}

func TestRetryAccounting(t *testing.T) {
	// A channel dead at every rate: every packet exhausts its retries.
	tr := perfectTrace(100)
	for i := range tr.Slots {
		for r := 0; r < phy.NumRates; r++ {
			tr.Slots[i].Prob[r] = 0
		}
	}
	res := Run(Config{Trace: tr, Adapter: rate.NewRapidSample(), Workload: UDP, RetryLimit: 3, Seed: 8})
	if res.Delivered != 0 {
		t.Errorf("%d deliveries on a dead channel", res.Delivered)
	}
	if res.LostPackets == 0 {
		t.Error("no packets recorded lost")
	}
	// Each lost packet used RetryLimit+1 attempts (the final chain may
	// be truncated by the trace end).
	if res.Sent > res.LostPackets*4 || res.Sent < res.LostPackets*4-4 {
		t.Errorf("sent %d attempts for %d lost packets, want ≈ %d",
			res.Sent, res.LostPackets, res.LostPackets*4)
	}
}

func TestExtraLossApplied(t *testing.T) {
	tr := perfectTrace(2000)
	tr.ExtraLoss = 0.5
	for i := range tr.Slots {
		for r := 0; r < phy.NumRates; r++ {
			tr.Slots[i].Prob[r] = 0.5 // channel perfect, contention 50%
		}
	}
	res := Run(Config{Trace: tr, Adapter: rate.NewRapidSample(), Workload: UDP, Seed: 9})
	// About half the attempts must fail.
	failFrac := 1 - float64(res.Delivered)/float64(res.Sent)
	if failFrac < 0.3 {
		t.Errorf("attempt failure fraction %.2f, want ≈ 0.5 under 50%% loss", failFrac)
	}
}

// TestRunAllocationFree pins the simulator's inner loop at zero heap
// allocations: with the airtime tables memoized and the inline RNG on
// the stack, replaying a trace must not generate garbage (the adapter
// here, RapidSample, holds fixed-size state).
func TestRunAllocationFree(t *testing.T) {
	sched := sensors.AlternatingSchedule(2*time.Second, time.Second, sensors.Walk, false)
	tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: 2 * time.Second, Seed: 14})
	ad := rate.NewRapidSample()
	Run(Config{Trace: tr, Adapter: ad, Workload: UDP, Seed: 15}) // warm LUT caches
	allocs := testing.AllocsPerRun(5, func() {
		Run(Config{Trace: tr, Adapter: ad, Workload: UDP, Seed: 15})
	})
	if allocs != 0 {
		t.Errorf("Run allocates %v times per replay, want 0", allocs)
	}
}

// feedbackRecorder sends every attempt at 36 Mbps and sorts the
// Feedback it observes by fate and by whether it carries an SNR.
type feedbackRecorder struct {
	acksWithSNR, acksWithout, failsWithSNR, failsWithout int
}

func (*feedbackRecorder) Name() string                    { return "recorder" }
func (*feedbackRecorder) PickRate(time.Duration) phy.Rate { return phy.Rate36 }
func (*feedbackRecorder) Reset()                          {}
func (r *feedbackRecorder) Observe(fb rate.Feedback) {
	hasSNR := !math.IsNaN(fb.SNR) && !math.IsInf(fb.SNR, 0)
	switch {
	case fb.Acked && hasSNR:
		r.acksWithSNR++
	case fb.Acked:
		r.acksWithout++
	case hasSNR:
		r.failsWithSNR++
	default:
		r.failsWithout++
	}
}

// snrFeedbackRecorder is a feedbackRecorder that takes SNR reports.
type snrFeedbackRecorder struct{ feedbackRecorder }

func (*snrFeedbackRecorder) UpdateSNR(time.Duration, float64) {}

// TestFeedbackSNROnlyForSNRUpdaters: Run learns an SNR from every ACK
// for an adapter that implements rate.SNRUpdater, and hands every other
// adapter rate.NoSNR(); a failed attempt never carries an SNR.
func TestFeedbackSNROnlyForSNRUpdaters(t *testing.T) {
	sched := sensors.AlternatingSchedule(2*time.Second, time.Second, sensors.Walk, false)
	tr := channel.Generate(channel.Config{Env: channel.Office, Sched: sched, Total: 2 * time.Second, Seed: 14})

	plain := &feedbackRecorder{}
	Run(Config{Trace: tr, Adapter: plain, Seed: 15})
	if plain.acksWithout == 0 || plain.failsWithout == 0 || plain.acksWithSNR+plain.failsWithSNR != 0 {
		t.Errorf("plain adapter: %d acks and %d failures without an SNR, %d acks and %d failures with one; want both fates, none with an SNR",
			plain.acksWithout, plain.failsWithout, plain.acksWithSNR, plain.failsWithSNR)
	}
	snr := &snrFeedbackRecorder{}
	Run(Config{Trace: tr, Adapter: snr, Seed: 15})
	if snr.acksWithSNR == 0 || snr.failsWithout == 0 || snr.acksWithout+snr.failsWithSNR != 0 {
		t.Errorf("SNRUpdater: %d acks with a finite SNR, %d without; %d failures without an SNR, %d with one; want every ack and no failure to carry one",
			snr.acksWithSNR, snr.acksWithout, snr.failsWithout, snr.failsWithSNR)
	}
}

func TestAvgRateMbps(t *testing.T) {
	var r Result
	if r.AvgRateMbps() != 0 {
		t.Error("empty result should average 0")
	}
	r.RateHistogram[phy.Rate6] = 1
	r.RateHistogram[phy.Rate54] = 1
	if got := r.AvgRateMbps(); got != 30 {
		t.Errorf("avg = %v, want 30", got)
	}
}

func TestWorkloadString(t *testing.T) {
	if UDP.String() != "UDP" || TCP.String() != "TCP" {
		t.Error("workload names wrong")
	}
}
