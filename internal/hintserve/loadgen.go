package hintserve

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/dot11"
	"repro/internal/hintproto"
	"repro/internal/parallel"
)

// The load generator simulates a herd of hint-protocol clients against
// a serving plane over real UDP. It is the measurement half of the
// tentpole: cmd/hintload wraps it, the e2e tests drive it, and the
// recorded throughput/latency numbers come from its report.
//
// Each sender goroutine owns a connected UDP socket and a contiguous
// span of simulated clients. It works in windows: send a burst of
// frames (stamping each data frame's departure), then drain ACKs until
// the window is accounted for or a short drain deadline expires
// (unacked frames are written off so loss cannot stall the run; late
// ACKs still count when they straggle in during a later drain). The
// window bounds in-flight datagrams so loopback socket buffers are not
// overrun at millions of packets.
//
// ACKs are matched to departures through the wire itself: the serving
// plane acks to the frame's source address, and dot11.AddrFromInt
// embeds the client index in the address bytes, so the sender recovers
// the client from the ACK's destination and the stamp from a
// per-client sequence ring (see stampRingSize).

// stamp is one departure in a client's ring.
type stamp struct {
	at  int64 // ns since run start
	seq uint16
	ok  bool
}

// stampRingSize returns the per-client ring length: the smallest power
// of two that holds every data frame one client can have in flight, so
// no stamp is overwritten before its ACK can arrive. A sender keeps at
// most window frames in flight and they may all be one client's (ACKs
// from different shards overtake each other), but a client never has
// more in flight than it sends.
func stampRingSize(window int, perClient int64) int {
	n := 1
	for int64(n) < min(int64(window), perClient) {
		n <<= 1
	}
	return n
}

// LoadConfig describes one load run. Zero values default sensibly,
// except the traffic-mix ratios and TogglePeriod, where zero means
// none.
type LoadConfig struct {
	// Target is the serving plane's UDP address, e.g. "127.0.0.1:9999".
	Target string
	// Clients is the number of simulated clients; default 100.
	Clients int
	// FirstClient offsets client numbering (and thus MAC addresses) so
	// concurrent herds against one server do not collide; default 0.
	FirstClient int
	// Packets is the total number of data frames to send across all
	// clients; default 10000.
	Packets int64
	// Senders is the number of sender goroutines/sockets; default
	// min(8, GOMAXPROCS).
	Senders int
	// Window is the per-sender burst size (and in-flight bound);
	// default 64, at most 65536 (a client's 16-bit sequence number must
	// tell its frames in flight apart).
	Window int
	// MovingRatio is the fraction of clients that start moving; 0 means
	// none (hintload's -moving flag defaults to 0.5).
	MovingRatio float64
	// TogglePeriod is how many frames a client sends between movement
	// flips; 0 disables toggling.
	TogglePeriod int
	// TrailerRatio is the probability a data frame carries a TLV hint
	// trailer; 0 means none (hintload's -trailer flag defaults to 0.5).
	// Frames without a trailer still carry the movement header bit.
	TrailerRatio float64
	// HintFrameRatio is the probability a standalone hint frame is sent
	// alongside a data frame; 0 means none (hintload's -hint-frames flag
	// defaults to 0.05).
	HintFrameRatio float64
	// CorruptRatio is the probability a data frame is sent with a
	// deliberately broken FCS; default 0.
	CorruptRatio float64
	// PayloadSize is the data-frame payload length; default 64.
	PayloadSize int
	// Seed makes the traffic mix deterministic; default 1.
	Seed int64
	// Timeout bounds the whole run; default 120s.
	Timeout time.Duration
}

// drainWait is how long a sender waits for missing ACKs before writing
// them off as lost. It must comfortably exceed the plane's ack latency
// under full load or the closed loop degenerates into an open one.
const drainWait = 50 * time.Millisecond

func (c LoadConfig) withDefaults() LoadConfig {
	if c.Clients <= 0 {
		c.Clients = 100
	}
	if c.Packets <= 0 {
		c.Packets = 10000
	}
	if c.Senders <= 0 {
		c.Senders = min(8, runtime.GOMAXPROCS(0))
	}
	if c.Window <= 0 {
		c.Window = 64
	}
	if c.PayloadSize <= 0 {
		c.PayloadSize = 64
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	if c.Timeout <= 0 {
		c.Timeout = 120 * time.Second
	}
	return c
}

// LoadReport summarises one load run.
type LoadReport struct {
	Clients       int
	DataSent      int64 // data frames sent expecting an ACK
	CorruptSent   int64 // deliberately corrupted frames (never acked)
	HintSent      int64 // standalone hint frames (never acked)
	Acked         int64
	Toggles       int64 // client movement flips generated
	AckRatio      float64
	Elapsed       time.Duration
	PacketsPerSec float64 // all frames on the wire per second
	P50, P99      time.Duration
}

// String renders the report for operator output.
func (r *LoadReport) String() string {
	return fmt.Sprintf("clients=%d data=%d hint=%d corrupt=%d acked=%d (%.2f%%) toggles=%d elapsed=%s pps=%.0f p50=%s p99=%s",
		r.Clients, r.DataSent, r.HintSent, r.CorruptSent, r.Acked,
		100*r.AckRatio, r.Toggles, r.Elapsed.Round(time.Millisecond),
		r.PacketsPerSec, r.P50, r.P99)
}

// lgClient is one simulated client's sending state.
type lgClient struct {
	addr     dot11.Addr
	seq      uint16
	moving   bool
	sinceTog int
	heading  float64
	speed    float64
	stamps   []stamp // indexed by seq modulo the ring size
}

// senderResult is one sender goroutine's tally.
type senderResult struct {
	dataSent, corruptSent, hintSent, acked, toggles int64
	latencies                                       []int64
	err                                             error
}

// RunLoad drives a full load run and reports. It fails only when no
// sender could run at all; individual sender errors are reported inside
// the error when every sender failed.
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	cfg = cfg.withDefaults()
	if cfg.Window > 1<<16 {
		return nil, fmt.Errorf("hintserve: window %d exceeds the 65536 frames a 16-bit sequence number tells apart", cfg.Window)
	}
	raddr, err := net.ResolveUDPAddr("udp", cfg.Target)
	if err != nil {
		return nil, fmt.Errorf("hintserve: bad target %q: %w", cfg.Target, err)
	}

	results := make([]senderResult, cfg.Senders)
	start := time.Now()
	var wg sync.WaitGroup
	for s := 0; s < cfg.Senders; s++ {
		lo := cfg.Clients * s / cfg.Senders
		hi := cfg.Clients * (s + 1) / cfg.Senders
		quota := cfg.Packets*int64(s+1)/int64(cfg.Senders) - cfg.Packets*int64(s)/int64(cfg.Senders)
		if hi == lo {
			continue
		}
		wg.Add(1)
		go func(s, lo, hi int, quota int64) {
			defer wg.Done()
			results[s] = runSender(cfg, raddr, s, lo, hi, quota, start)
		}(s, lo, hi, quota)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &LoadReport{Clients: cfg.Clients, Elapsed: elapsed}
	var allLat []int64
	var errs []error
	ran := 0
	for i := range results {
		r := &results[i]
		if r.err != nil {
			errs = append(errs, r.err)
			continue
		}
		ran++
		rep.DataSent += r.dataSent
		rep.CorruptSent += r.corruptSent
		rep.HintSent += r.hintSent
		rep.Acked += r.acked
		rep.Toggles += r.toggles
		allLat = append(allLat, r.latencies...)
	}
	if ran == 0 {
		return nil, fmt.Errorf("hintserve: all %d senders failed: %w", cfg.Senders, errors.Join(errs...))
	}
	if rep.DataSent > 0 {
		rep.AckRatio = float64(rep.Acked) / float64(rep.DataSent)
	}
	if sec := elapsed.Seconds(); sec > 0 {
		rep.PacketsPerSec = float64(rep.DataSent+rep.CorruptSent+rep.HintSent) / sec
	}
	if len(allLat) > 0 {
		slices.Sort(allLat)
		rep.P50 = time.Duration(allLat[percentileIdx(len(allLat), 50)])
		rep.P99 = time.Duration(allLat[percentileIdx(len(allLat), 99)])
	}
	return rep, nil
}

// percentileIdx returns the index of the p-th percentile in a sorted
// slice of length n: nearest-rank, ceil(p*n/100) as a 1-based rank,
// clamped into [0, n-1]. The earlier floor form ((n-1)*p/100)
// systematically undershot high percentiles at small n — n=50, p=99
// gave index 48, reporting the 97th–98th percentile as the P99.
func percentileIdx(n, p int) int {
	if n < 1 {
		return 0
	}
	i := (p*n+99)/100 - 1
	if i < 0 {
		i = 0
	}
	if i >= n {
		i = n - 1
	}
	return i
}

// runSender is one sender goroutine: burst, drain, repeat.
func runSender(cfg LoadConfig, raddr *net.UDPAddr, id, lo, hi int, quota int64, start time.Time) senderResult {
	var res senderResult
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		res.err = fmt.Errorf("sender %d: %w", id, err)
		return res
	}
	defer conn.Close()
	// Deep buffers so ACK bursts are not dropped while this goroutine is
	// busy marshalling the next burst; best-effort.
	_ = conn.SetReadBuffer(2 << 20)
	_ = conn.SetWriteBuffer(2 << 20)

	rng := parallel.NewRNG(cfg.Seed + int64(id)*7919)
	clients := make([]lgClient, hi-lo)
	ring := stampRingSize(cfg.Window, (quota+int64(len(clients))-1)/int64(len(clients)))
	stamps := make([]stamp, len(clients)*ring)
	for i := range clients {
		c := &clients[i]
		c.stamps = stamps[i*ring : (i+1)*ring : (i+1)*ring]
		// Client ids start at 2: the AP is 1.
		c.addr = dot11.AddrFromInt(2 + cfg.FirstClient + lo + i)
		c.moving = rng.Float64() < cfg.MovingRatio
		c.heading = float64(int(rng.Uint64() % 360))
		c.speed = 0.5 + 3*rng.Float64()
	}

	payload := make([]byte, cfg.PayloadSize)
	for i := range payload {
		payload[i] = byte(i * 31)
	}
	wire := make([]byte, 0, 4096)
	rxbuf := make([]byte, 256)
	hs := make([]hintproto.Hint, 0, 3)
	var rxFrame dot11.Frame

	// ack matches one received datagram to the departure it
	// acknowledges and records the latency; it reports whether the
	// datagram acked a frame still in the ring.
	ack := func(pkt []byte) bool {
		at := int64(time.Since(start))
		if dot11.UnmarshalInto(&rxFrame, pkt) != nil || rxFrame.Type != dot11.TypeAck {
			return false
		}
		// Recover the client index from the ACK's destination.
		idx := int(binary.BigEndian.Uint32(rxFrame.Dst[2:6])) - 2 - cfg.FirstClient - lo
		if idx < 0 || idx >= len(clients) {
			return false
		}
		st := &clients[idx].stamps[int(rxFrame.Seq)&(ring-1)]
		if !st.ok || st.seq != rxFrame.Seq {
			return false
		}
		st.ok = false
		res.acked++
		res.latencies = append(res.latencies, at-st.at)
		return true
	}

	deadline := start.Add(cfg.Timeout)
	var sent int64
	// outstanding is the closed-loop window: data frames sent but not
	// yet acked (or written off). The sender only pushes new frames when
	// the window has room, so offered load adapts to the plane's actual
	// service rate instead of overrunning kernel queues.
	var outstanding int64
	rr := 0
	for sent < quota && time.Now().Before(deadline) {
		burst := int64(cfg.Window) - outstanding
		if burst > quota-sent {
			burst = quota - sent
		}
		if burst < 0 {
			burst = 0
		}
		for k := int64(0); k < burst; k++ {
			c := &clients[rr]
			rr = (rr + 1) % len(clients)

			if cfg.TogglePeriod > 0 {
				c.sinceTog++
				if c.sinceTog >= cfg.TogglePeriod {
					c.sinceTog = 0
					c.moving = !c.moving
					res.toggles++
				}
			}

			f := dot11.Frame{Type: dot11.TypeData, Seq: c.seq, Src: c.addr, Dst: apAddr, Payload: payload}
			hintproto.SetMovementBit(&f, c.moving)
			if rng.Float64() < cfg.TrailerRatio {
				hs = hs[:0]
				hs = append(hs,
					hintproto.Hint{Type: hintproto.HintMovement, Value: b2f(c.moving)},
					hintproto.Hint{Type: hintproto.HintSpeed, Value: c.speed},
					hintproto.Hint{Type: hintproto.HintHeading, Value: c.heading},
				)
				if err := hintproto.AppendTrailer(&f, hs); err != nil {
					res.err = fmt.Errorf("sender %d: trailer: %w", id, err)
					return res
				}
			}
			wire, err = f.MarshalAppend(wire[:0])
			if err != nil {
				res.err = fmt.Errorf("sender %d: marshal: %w", id, err)
				return res
			}

			corrupt := cfg.CorruptRatio > 0 && rng.Float64() < cfg.CorruptRatio
			if corrupt {
				wire[len(wire)-1] ^= 0xff // break the FCS
			} else {
				c.stamps[int(c.seq)&(ring-1)] = stamp{at: int64(time.Since(start)), seq: c.seq, ok: true}
			}
			if _, err := conn.Write(wire); err != nil {
				// Transient send failure: the frame is lost, not fatal.
				if corrupt {
					res.corruptSent++ // still counted as offered load
				} else {
					c.stamps[int(c.seq)&(ring-1)].ok = false
				}
				continue
			}
			if corrupt {
				res.corruptSent++
			} else {
				res.dataSent++
				outstanding++
			}
			c.seq++

			if cfg.HintFrameRatio > 0 && rng.Float64() < cfg.HintFrameRatio {
				hs = hs[:0]
				hs = append(hs,
					hintproto.Hint{Type: hintproto.HintSpeed, Value: c.speed},
					hintproto.Hint{Type: hintproto.HintHeading, Value: c.heading},
				)
				hf, err := hintproto.NewHintFrame(c.addr, apAddr, hs)
				if err != nil {
					res.err = fmt.Errorf("sender %d: hint frame: %w", id, err)
					return res
				}
				hintproto.SetMovementBit(hf, c.moving)
				wire, err = hf.MarshalAppend(wire[:0])
				if err != nil {
					res.err = fmt.Errorf("sender %d: marshal hint: %w", id, err)
					return res
				}
				if _, err := conn.Write(wire); err == nil {
					res.hintSent++
				}
			}
		}
		sent += burst

		// Drain ACKs until the window has room for the next burst or the
		// drain deadline expires. On expiry the remaining outstanding
		// frames are written off as lost — loss must not stall the run —
		// but their stamps stay matchable until the ring wraps, so
		// stragglers that arrive in a later drain still count.
		if outstanding < int64(cfg.Window) && sent < quota {
			continue
		}
		_ = conn.SetReadDeadline(time.Now().Add(drainWait))
		drained := false
		for outstanding >= int64(cfg.Window) || (sent >= quota && outstanding > 0) {
			n, err := conn.Read(rxbuf)
			if err != nil {
				if errors.Is(err, os.ErrDeadlineExceeded) && !drained {
					// Nothing arrived all window: write the in-flight
					// frames off and move on.
					outstanding = 0
				}
				break
			}
			if ack(rxbuf[:n]) {
				drained = true
				if outstanding > 0 {
					outstanding--
				}
			}
		}
	}

	// Final drain: give straggling ACKs one longer grace period.
	_ = conn.SetReadDeadline(time.Now().Add(50 * time.Millisecond))
	for {
		n, err := conn.Read(rxbuf)
		if err != nil {
			break
		}
		ack(rxbuf[:n])
	}
	return res
}
