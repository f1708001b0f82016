package main

import (
	"fmt"
	"net"
	"runtime"
	"sync"
	"time"

	"repro/internal/hintserve"
)

// The serve workload drives a default-config hintserve.Server on
// 127.0.0.1 (loopback, not a real link) with the benchmark's own
// closed-loop generator: one sender goroutine and socket per CPU,
// serveClients clients. Two phases make the timed region: saturated,
// with satWindow frames in flight per socket, and light, with one.

const (
	satWindow    = 64
	satFrames    = 150_000 // data frames per pass, all sockets
	lightFrames  = 3_000
	pathBatches  = 20_000 // ServeBatch calls timed in a traced pass
	drainTimeout = time.Second
)

type herd struct {
	senders []*sender
}

// phase runs every sender's closed loop concurrently, quota data frames
// in all, and returns the wall time until the last one finished. With
// lat set each sender records its latencies.
func (h *herd) phase(quota, window int, plain, lat bool) (time.Duration, error) {
	errs := make([]error, len(h.senders))
	var wg sync.WaitGroup
	start := time.Now()
	for i, s := range h.senders {
		q := quota*(i+1)/len(h.senders) - quota*i/len(h.senders)
		s.lat = nil
		if lat {
			s.lat = make([]time.Duration, 0, q)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			errs[i] = s.run(q, window, plain)
		}()
	}
	wg.Wait()
	wall := time.Since(start)
	for i, err := range errs {
		if err != nil {
			return wall, fmt.Errorf("sender %d: %w", i, err)
		}
	}
	return wall, nil
}

// latencies gathers every sender's recorded latencies in microseconds.
func (h *herd) latencies() []float64 {
	var out []float64
	for _, s := range h.senders {
		for _, d := range s.lat {
			out = append(out, float64(d)/1e3)
		}
	}
	return out
}

func (h *herd) sum(f func(*sender) int) int {
	n := 0
	for _, s := range h.senders {
		n += f(s)
	}
	return n
}

func runServe(p *pass) error {
	prepStart := time.Now()
	nsock := runtime.NumCPU()
	h := &herd{}
	for i := 0; i < nsock; i++ {
		lo, hi := serveClients*i/nsock, serveClients*(i+1)/nsock
		s, err := newSender(p.seed, i, lo, hi-lo)
		if err != nil {
			return err
		}
		h.senders = append(h.senders, s)
	}
	prep := time.Since(prepStart)

	// Set-up: bind, start, and one admitted (ACKed) frame per client.
	setup := p.tr.begin("serve.setup", "", -1, true)
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		return err
	}
	srv := hintserve.New(conn, hintserve.Config{})
	served := make(chan error, 1)
	go func() { served <- srv.Serve() }()
	defer func() {
		srv.Close()
		if err := <-served; err != nil {
			p.problem("server: %v", err)
		}
	}()
	raddr := srv.LocalAddr().(*net.UDPAddr)
	origin := time.Now()
	for _, s := range h.senders {
		if s.conn, err = net.DialUDP("udp", nil, raddr); err != nil {
			return err
		}
		defer s.conn.Close()
		// Room for a full window of ACKs while the sender is busy.
		_ = s.conn.SetReadBuffer(1 << 20)
		_ = s.conn.SetWriteBuffer(1 << 20)
		s.origin = origin
	}
	if _, err := h.phase(serveClients, satWindow, true, false); err != nil {
		return err
	}
	p.tr.end(setup)
	p.ready(prep)
	if p.setupOnly {
		return nil
	}

	var stats []hintserve.Stats
	snap := func() hintserve.Stats {
		st := srv.Stats()
		stats = append(stats, st)
		return st
	}
	st0 := snap()
	var satWall, lightWall time.Duration
	var sat, light []float64
	var satSpan int
	err = p.timed(func() error {
		root := p.tr.begin("serve.phases", "", -1, true)
		defer p.tr.end(root)
		satSpan = p.tr.begin("serve.saturated", "", root, true)
		satWall, err = h.phase(satFrames, satWindow, false, true)
		p.tr.end(satSpan)
		if err != nil {
			return err
		}
		sat = h.latencies()
		snap()
		sp := p.tr.begin("serve.light", "", root, true)
		lightWall, err = h.phase(lightFrames, 1, false, true)
		p.tr.end(sp)
		light = h.latencies()
		return err
	})
	if err != nil {
		return err
	}
	st1, st2 := stats[1], snap()

	// Hint and corrupt frames are never ACKed, so wait until the plane
	// has taken in every datagram sent before reading its final counts.
	sent := uint64(h.sum(func(s *sender) int { return s.dataSent + s.corruptSent + s.hintSent }))
	for t := time.Now(); srv.Stats().Packets < sent && time.Since(t) < drainTimeout; {
		time.Sleep(time.Millisecond)
	}
	fin := snap()

	data := h.sum(func(s *sender) int { return s.dataSent })
	p.res.Ops = data
	p.res.Failed = h.sum(func(s *sender) int { return s.writtenOff + s.unmatched })
	for i, st := range stats {
		if st.Acks > st.Packets || st.DataFrames+st.BadFrames > st.Packets {
			p.problem("stats snapshot %d breaks Acks ≤ Packets or DataFrames+BadFrames ≤ Packets: %v", i, st)
		}
	}
	if corrupt := uint64(h.sum(func(s *sender) int { return s.corruptSent })); fin.BadFrames != corrupt {
		p.problem("sent %d corrupt frames, plane counted %d bad frames", corrupt, fin.BadFrames)
	}
	if fin.Packets != sent {
		p.problem("sent %d datagrams, plane took in %d", sent, fin.Packets)
	}
	if n := h.sum(func(s *sender) int { return s.unmatched }); n > 0 {
		p.problem("%d ACKs matched no frame in flight", n)
	}

	p.res.RunS = (satWall + lightWall).Seconds()
	p.set("ack_kpps", float64(len(sat))/satWall.Seconds()/1e3)
	p.set("ack_p99_us", percentile(sat, 99))
	p.set("rtt_p50_us", percentile(light, 50))
	p.set("rtt_p99_us", percentile(light, 99))
	p.set("sat_samples", float64(len(sat)))
	p.set("light_samples", float64(len(light)))
	p.set("serve.sat.pkts_per_batch", perBatch(st0, st1))
	p.set("serve.light.pkts_per_batch", perBatch(st1, st2))
	p.set("serve.cpu_us_per_pkt", p.res.CPUS*1e6/float64(st2.DataFrames-st0.DataFrames))
	p.set("serve.switches", float64(st2.Switches-st0.Switches))
	p.set("serve.bad_frames", float64(st2.BadFrames-st0.BadFrames))
	p.set("serve.rejected", float64(st2.Rejected-st0.Rejected))
	if p.tr == nil {
		return nil
	}

	p.set("serve.sched_wait_p99_us", p.tr.spans[satSpan].RT.schedWaitP(99)*1e6)
	if err := p.attribute("serve", true, map[string]string{"bench": "gen"}); err != nil {
		return err
	}
	return servePath(p)
}

func perBatch(a, b hintserve.Stats) float64 {
	if b.Batches == a.Batches {
		return 0
	}
	return float64(b.Packets-a.Packets) / float64(b.Batches-a.Batches)
}

// servePath times the serve path alone, with no socket: pathBatches
// calls of BenchHarness.ServeBatch over the same herd size, a span
// around each.
func servePath(p *pass) error {
	bh, err := hintserve.NewBenchHarness(hintserve.Config{}, serveClients)
	if err != nil {
		return err
	}
	root := p.tr.begin("serve.path", "", -1, false)
	ids := make([]int, 0, pathBatches)
	pkts := 0
	for i := 0; i < pathBatches; i++ {
		id := p.tr.begin("BenchHarness.ServeBatch", "", root, false)
		n, _ := bh.ServeBatch()
		p.tr.end(id)
		ids = append(ids, id)
		pkts += n
	}
	p.tr.end(root)
	var busy time.Duration
	for _, id := range ids {
		busy += p.tr.spans[id].End - p.tr.spans[id].Start
	}
	p.set("serve.path_ns_per_pkt", float64(busy.Nanoseconds())/float64(pkts))
	return nil
}
