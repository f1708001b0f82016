package scenario

import (
	"math"
	"time"

	"repro/internal/ap"
	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/rate"
	"repro/internal/ratesim"
	"repro/internal/sim"
	"repro/internal/stats"
)

// This file hosts the exact-replay ports: the paper-scale slot-driven
// loops of ratesim.Run and ap.RunTwoClients restructured as event
// chains on the sim engine. Each port performs the identical sequence
// of RNG draws, adapter calls, and float operations as its original, so
// the results compare with == — the strongest form of the oracle
// differential (TestReplayLinkMatchesRatesim,
// TestReplayTwoClientsMatchesAP). Where the originals advance `now`
// inside a loop body, the ports advance the engine clock by scheduling
// the continuation at the advanced time. Only one continuation is ever
// pending, so each continuation's event is created once and re-armed
// with Reschedule after it fires: the event chain allocates nothing per
// step.

// linkReplay is the event-chain state of one ReplayLink run; its
// fields mirror ratesim.Run's locals.
type linkReplay struct {
	eng *sim.Engine
	cfg ratesim.Config
	rng parallel.RNG

	bytes    int
	retry    int
	hintLat  time.Duration
	snrStale time.Duration
	snrNoise float64
	airt     *phy.Airtimes
	end      time.Duration

	setter      ratesim.MovingSetter
	hasHint     bool
	snrUpd      rate.SNRUpdater
	hasSNR      bool
	rtsOverhead time.Duration

	res       ratesim.Result
	cwnd      float64
	consLost  int
	attempt   int
	delivered bool

	// start, try and finish are the events of the three continuations.
	start, try, finish *sim.Event
}

const (
	replayRTT = 20 * time.Millisecond
	replayRTO = 200 * time.Millisecond
)

// ReplayLink is the event-driven port of ratesim.Run: one event per MAC
// attempt, one per packet completion, chained on a timer wheel. Given
// the same Config (and a fresh adapter in the same state), it returns a
// Result byte-identical to ratesim.Run's.
func ReplayLink(cfg ratesim.Config) ratesim.Result {
	s := &linkReplay{cfg: cfg, cwnd: 2}
	s.bytes = cfg.PacketBytes
	if s.bytes <= 0 {
		s.bytes = 1000
	}
	s.retry = cfg.RetryLimit
	if s.retry <= 0 {
		s.retry = 7
	}
	s.hintLat = cfg.HintLatency
	if s.hintLat == 0 {
		s.hintLat = 100 * time.Millisecond
	}
	s.snrStale = cfg.SNRStale
	if s.snrStale == 0 {
		s.snrStale = cfg.Trace.SlotDur
	}
	s.snrNoise = cfg.SNRNoise
	if s.snrNoise == 0 {
		s.snrNoise = 1.5
	}
	s.rng = parallel.NewRNG(cfg.Seed)
	s.airt = phy.AirtimesFor(s.bytes)
	s.end = cfg.Trace.Duration()
	s.setter, s.hasHint = cfg.Adapter.(ratesim.MovingSetter)
	s.snrUpd, s.hasSNR = cfg.Adapter.(rate.SNRUpdater)
	if ru, ok := cfg.Adapter.(rate.RTSUser); ok && ru.UsesRTS() {
		s.rtsOverhead = phy.RTSCTSAirtime()
	}

	s.eng = sim.NewWheel(time.Millisecond, 1024)
	s.start = s.eng.At(0, s.startPacket)
	s.eng.Run()

	dur := s.end.Seconds()
	if dur > 0 {
		s.res.ThroughputMbps = float64(s.res.Delivered) * float64(s.bytes) * 8 / dur / 1e6
	}
	return s.res
}

// startPacket is ratesim.Run's outer loop head: the now < end check,
// the hint refresh, and entry into the retry chain.
func (s *linkReplay) startPacket() {
	now := s.eng.Now()
	if now >= s.end {
		return
	}
	if s.hasHint {
		s.setter.SetMoving(s.cfg.Trace.MovingAt(now - s.hintLat))
	}
	s.delivered = false
	s.attempt = 0
	s.tryAttempt()
}

// tryAttempt is one iteration of the retry loop: the original's draws
// and clock advances in the original order, with the continuation (next
// attempt or packet completion) scheduled at the advanced time.
func (s *linkReplay) tryAttempt() {
	now := s.eng.Now()
	if s.attempt > s.retry || now >= s.end {
		s.finishPacket()
		return
	}
	tr := s.cfg.Trace
	if s.hasSNR {
		s.snrUpd.UpdateSNR(now, tr.At(now-s.snrStale).SNR+s.rng.NormFloat64()*s.snrNoise)
	}
	r := s.cfg.Adapter.PickRate(now)
	ok := s.rng.Float64() < tr.At(now).Prob[r]
	s.res.Sent++
	s.res.RateHistogram[r]++
	fb := rate.Feedback{At: now, Rate: r, Acked: ok, SNR: math.NaN()}
	now += s.rtsOverhead + phy.RetryBackoff(s.attempt)
	if ok {
		fb.SNR = tr.At(now-s.snrStale).SNR + s.rng.NormFloat64()*s.snrNoise
		now += s.airt.Frame[r]
	} else {
		now += s.airt.Failed[r]
	}
	s.cfg.Adapter.Observe(fb)
	s.attempt++
	if ok {
		s.delivered = true
		s.then(&s.finish, now, (*linkReplay).finishPacket)
		return
	}
	s.then(&s.try, now, (*linkReplay).tryAttempt)
}

// then schedules continuation fn at t on its event *ev, creating the
// event on first use and re-arming it after that.
func (s *linkReplay) then(ev **sim.Event, t time.Duration, fn func(*linkReplay)) {
	if *ev == nil {
		*ev = s.eng.At(t, func() { fn(s) })
		return
	}
	*ev = s.eng.Reschedule(*ev, t)
}

// finishPacket is the tail of the outer loop body: delivery accounting,
// the TCP window/timeout logic, and the pacing gap, then the next
// packet.
func (s *linkReplay) finishPacket() {
	now := s.eng.Now()
	if s.delivered {
		s.res.Delivered++
	} else {
		s.res.LostPackets++
	}
	if s.cfg.Workload == ratesim.TCP {
		if s.delivered {
			s.consLost = 0
			s.cwnd += 1 / s.cwnd
			if s.cwnd > 64 {
				s.cwnd = 64
			}
		} else {
			s.consLost++
			s.cwnd /= 2
			if s.cwnd < 1 {
				s.cwnd = 1
			}
			if s.consLost >= 3 {
				s.res.Timeouts++
				now += replayRTO
				s.cwnd = 1
				s.consLost = 0
			}
		}
		gap := time.Duration(float64(replayRTT) / s.cwnd)
		if min := s.airt.Frame[phy.Rate54]; gap < min {
			gap = 0
		} else {
			gap -= min
		}
		now += gap
	}
	s.start = s.eng.Reschedule(s.start, now)
}

// twoClientReplay is the event-chain state of one ReplayTwoClients run;
// its fields mirror ap.RunTwoClients's locals.
type twoClientReplay struct {
	eng *sim.Engine
	cfg ap.TwoClientConfig
	res ap.TwoClientResult

	bits      float64
	airt      *phy.Airtimes
	frame1    time.Duration
	probeCost time.Duration

	delivered1, delivered2 float64
	bucketEnd              time.Duration
	sent2                  int
	rate2                  phy.Rate
	consFail2              int
	client2Parked          bool
	client2Gone            bool
	lastFailStart          time.Duration
	nextProbe2             time.Duration
	turn                   int

	// ev is serveOne's event, re-armed for every iteration.
	ev *sim.Event
}

// ReplayTwoClients is the event-driven port of ap.RunTwoClients: one
// event per scheduling decision. Given the same config it returns a
// TwoClientResult byte-identical to the original — totals, prune time,
// and every per-second series point.
func ReplayTwoClients(cfg ap.TwoClientConfig) ap.TwoClientResult {
	if cfg.Total <= 0 {
		cfg.Total = 60 * time.Second
	}
	if cfg.DepartAt <= 0 {
		cfg.DepartAt = 35 * time.Second
	}
	if cfg.PacketBytes <= 0 {
		cfg.PacketBytes = 1000
	}
	if cfg.Rate1 == 0 {
		cfg.Rate1 = phy.Rate54
	}
	if cfg.Rate2 == 0 {
		cfg.Rate2 = phy.Rate36
	}
	if cfg.MobileShare == 0 {
		cfg.MobileShare = 0.75
	}
	if cfg.Prune.Timeout == 0 {
		cfg.Prune = ap.DefaultPruneConfig()
	}
	if cfg.HintLatency == 0 {
		cfg.HintLatency = 200 * time.Millisecond
	}
	if cfg.DepartWarning == 0 {
		cfg.DepartWarning = 2 * time.Second
	}
	if cfg.Prune.ProbeEvery <= 0 {
		cfg.Prune.ProbeEvery = time.Second
	}

	s := &twoClientReplay{
		cfg: cfg,
		res: ap.TwoClientResult{
			Client1: &stats.Series{Name: "client 1 (static)"},
			Client2: &stats.Series{Name: "client 2 (departs)"},
			PruneAt: -1,
		},
		bits:          float64(8 * cfg.PacketBytes),
		airt:          phy.AirtimesFor(cfg.PacketBytes),
		bucketEnd:     time.Second,
		rate2:         cfg.Rate2,
		lastFailStart: -1,
	}
	s.frame1 = s.airt.Frame[cfg.Rate1]
	s.probeCost = phy.PayloadAirtime(phy.Rate6, phy.RTSBytes) + phy.SIFS

	s.eng = sim.NewWheel(time.Millisecond, 1024)
	s.ev = s.eng.At(0, s.serveOne)
	s.eng.Run()
	return s.res
}

// flushBuckets closes per-second series buckets up to now, exactly as
// the original's closure does.
func (s *twoClientReplay) flushBuckets(now time.Duration) {
	for now >= s.bucketEnd {
		t := (s.bucketEnd - time.Second).Seconds()
		s.res.Client1.Add(t, s.delivered1/1e6)
		s.res.Client2.Add(t, s.delivered2/1e6)
		s.delivered1, s.delivered2 = 0, 0
		s.bucketEnd += time.Second
	}
}

func (s *twoClientReplay) client2Backlogged() bool {
	if s.client2Gone {
		return false
	}
	if s.cfg.Client2Finite > 0 && s.sent2 >= s.cfg.Client2Finite {
		return false
	}
	return true
}

// serveOne is one iteration of the original's scheduling loop: prune
// checks, policy pick, one frame (or probe) of airtime, then the next
// iteration at the advanced clock. The terminal event performs the
// original's final bucket flush.
func (s *twoClientReplay) serveOne() {
	now := s.eng.Now()
	cfg := &s.cfg
	if now >= cfg.Total {
		s.flushBuckets(now)
		return
	}
	s.flushBuckets(now)
	departed := now >= cfg.DepartAt
	hintUp := now >= cfg.DepartAt-cfg.DepartWarning+cfg.HintLatency

	if cfg.Prune.HintAware && departed && hintUp && !s.client2Parked {
		s.client2Parked = true
		s.res.PruneAt = now
		s.nextProbe2 = now + cfg.Prune.ProbeEvery
	}
	if !s.client2Parked && !s.client2Gone && s.lastFailStart >= 0 && now-s.lastFailStart >= cfg.Prune.Timeout {
		s.client2Gone = true
		if s.res.PruneAt < 0 {
			s.res.PruneAt = now
		}
	}

	serve2 := s.client2Backlogged() && !s.client2Parked && !s.client2Gone
	if s.client2Parked && now >= s.nextProbe2 {
		now += s.probeCost
		s.nextProbe2 = now + cfg.Prune.ProbeEvery
		s.ev = s.eng.Reschedule(s.ev, now)
		return
	}

	target := 1
	if serve2 {
		switch cfg.Policy {
		case ap.FrameFair:
			target = 1 + s.turn%2
			s.turn++
		case ap.TimeFair:
			a1 := s.frame1
			a2 := s.airt.Frame[s.rate2]
			period := int(a2/a1) + 1
			if s.turn%(period+1) < period {
				target = 1
			} else {
				target = 2
			}
			s.turn++
		case ap.MobileFavored:
			mobile := hintUp && !departed
			if mobile {
				if float64(s.turn%100) < cfg.MobileShare*100 {
					target = 2
				}
			} else {
				target = 1 + s.turn%2
			}
			s.turn++
		}
	}

	if target == 1 {
		now += s.frame1
		s.delivered1 += s.bits
		s.res.Total1 += s.bits / 1e6
		s.ev = s.eng.Reschedule(s.ev, now)
		return
	}

	if !departed {
		now += s.airt.Frame[s.rate2]
		s.delivered2 += s.bits
		s.res.Total2 += s.bits / 1e6
		s.sent2++
		s.consFail2 = 0
		s.lastFailStart = -1
		s.ev = s.eng.Reschedule(s.ev, now)
		return
	}
	if s.lastFailStart < 0 {
		s.lastFailStart = now
	}
	now += s.airt.Failed[s.rate2]
	s.consFail2++
	if s.consFail2%4 == 0 && s.rate2 > phy.Rate6 {
		s.rate2--
	}
	s.ev = s.eng.Reschedule(s.ev, now)
}
