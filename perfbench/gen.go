package main

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"os"
	"time"

	"repro/internal/dot11"
	"repro/internal/hintproto"
)

// The serve workload's traffic generator. It is the benchmark's own,
// not the program's (hintserve.RunLoad), so a change to the program's
// load generator cannot change the load.
//
// Each sender owns one connected UDP socket, one goroutine and a
// contiguous range of clients. It runs a closed loop: at most window
// data frames in flight, each client with at most one (802.11 data
// frames are stop-and-wait per client), and the next frame goes out
// only when an ACK frees a slot. Every data frame's latency is stamped
// just before its write; every ACK is matched against the (client,
// sequence) pair in flight. In steady state a sender allocates nothing:
// frame bytes are marshalled into one reused buffer from payloads built
// before the run.

const (
	serveClients = 2000 // simulated clients across all senders
	payloadBytes = 64
	flipEvery    = 32 // a client's movement state flips every 32 of its frames
	trailerShare = 0.5
	hintShare    = 0.05 // of all frames sent
	corruptShare = 0.01 // of all frames sent
	// ackTimeout bounds how long a sender waits for any ACK before it
	// writes off every frame in flight as failed.
	ackTimeout = time.Second
)

// apAddr is the address data frames are sent to (the serving plane
// acks from its own address and does not check this one).
var apAddr = dot11.AddrFromInt(1)

// clientAddr is the MAC of global client i; ids start at 2, the AP is 1.
func clientAddr(i int) dot11.Addr { return dot11.AddrFromInt(2 + i) }

// rng is splitmix64: the generator's own, so the tape depends only on
// the seed and this file.
type rng struct{ s uint64 }

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) float() float64 { return float64(r.next()>>11) / (1 << 53) }

type genClient struct {
	addr   dot11.Addr
	seq    uint16
	moving bool
	frames int // data frames sent, for the flip schedule
	// trailer[m] is the data payload with a hint trailer, hint[m] the
	// standalone hint frame, for movement state m (0 static, 1 moving).
	trailer [2][]byte
	hint    [2][]byte
	// The frame in flight, if any.
	busy   bool
	outSeq uint16
	stamp  time.Duration
}

// sender is one socket's share of the herd.
type sender struct {
	conn    *net.UDPConn
	first   int // global index of clients[0]
	clients []genClient
	plain   []byte
	rnd     rng
	origin  time.Time
	wire    []byte
	rxbuf   []byte
	rx      dot11.Frame
	cursor  int
	// lat collects the send-to-ACK latency of every matched frame when
	// non-nil; its capacity is reserved before a phase starts.
	lat []time.Duration

	dataSent, corruptSent, hintSent int
	acked, unmatched, writtenOff    int
}

// newSender builds the clients [first, first+n) and their prebuilt
// payloads. Odd-numbered clients start moving, so half the herd does;
// speeds and headings come from the seed.
func newSender(seed int64, id, first, n int) (*sender, error) {
	s := &sender{
		first:   first,
		clients: make([]genClient, n),
		plain:   make([]byte, payloadBytes),
		rnd:     rng{uint64(seed)*0x9e3779b97f4a7c15 + uint64(id)},
		wire:    make([]byte, 0, 512),
		rxbuf:   make([]byte, 512),
	}
	for i := range s.plain {
		s.plain[i] = byte(i * 31)
	}
	for i := range s.clients {
		c := &s.clients[i]
		c.addr = clientAddr(first + i)
		c.moving = (first+i)%2 == 1
		speed := 0.5 + 3*s.rnd.float()
		heading := float64(s.rnd.next() % 360)
		for m := 0; m < 2; m++ {
			hs := []hintproto.Hint{
				{Type: hintproto.HintMovement, Value: float64(m)},
				{Type: hintproto.HintSpeed, Value: speed},
				{Type: hintproto.HintHeading, Value: heading},
			}
			f := dot11.Frame{Payload: s.plain}
			if err := hintproto.AppendTrailer(&f, hs); err != nil {
				return nil, err
			}
			c.trailer[m] = f.Payload
			hf, err := hintproto.NewHintFrame(c.addr, apAddr, hs)
			if err != nil {
				return nil, err
			}
			hintproto.SetMovementBit(hf, m == 1)
			if c.hint[m], err = hf.Marshal(); err != nil {
				return nil, err
			}
		}
	}
	return s, nil
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// sendNext sends frames until one data frame is in flight: the next
// client in round-robin order without a frame in flight gets a data
// frame, possibly preceded by standalone hint frames and corrupt frames
// (which are never ACKed and take no window slot). With plain set it
// sends only the data frame, without a trailer.
func (s *sender) sendNext(plain bool) error {
	for {
		c := &s.clients[s.cursor]
		s.cursor = (s.cursor + 1) % len(s.clients)
		if c.busy {
			continue
		}
		u := 1.0
		if !plain {
			u = s.rnd.float()
		}
		switch {
		case u < hintShare:
			if _, err := s.conn.Write(c.hint[b2i(c.moving)]); err != nil {
				return err
			}
			s.hintSent++
			continue
		case u < hintShare+corruptShare:
			// A data frame under a sequence number the client then
			// skips, with its FCS broken: the plane must count it as a
			// bad frame and, having no way to decode it, never ack it.
			s.marshal(c, c.seq, false)
			c.seq++
			s.wire[len(s.wire)-1] ^= 0xff
			if _, err := s.conn.Write(s.wire); err != nil {
				return err
			}
			s.corruptSent++
			continue
		}
		c.frames++
		if c.frames%flipEvery == 0 {
			c.moving = !c.moving
		}
		s.marshal(c, c.seq, !plain && s.rnd.float() < trailerShare)
		c.busy, c.outSeq = true, c.seq
		c.seq++
		c.stamp = time.Since(s.origin)
		if _, err := s.conn.Write(s.wire); err != nil {
			return err
		}
		s.dataSent++
		return nil
	}
}

// marshal writes a data frame for c into s.wire.
func (s *sender) marshal(c *genClient, seq uint16, trailer bool) {
	f := dot11.Frame{Type: dot11.TypeData, Seq: seq, Src: c.addr, Dst: apAddr, Payload: s.plain}
	if trailer {
		f.Payload = c.trailer[b2i(c.moving)]
		f.Flags |= dot11.FlagHintTrailer
	}
	hintproto.SetMovementBit(&f, c.moving)
	s.wire, _ = f.MarshalAppend(s.wire[:0]) // fails only past MaxPayload
}

// match accounts one received ACK. It reports false, and counts the
// ACK as unmatched, when no frame of the addressed client is in flight
// under that sequence number: a duplicate, a stale ACK, or one for a
// client this sender does not own.
func (s *sender) match(dst dot11.Addr, seq uint16, at time.Duration) bool {
	idx := int(binary.BigEndian.Uint32(dst[2:6])) - 2 - s.first
	if idx < 0 || idx >= len(s.clients) || dst != s.clients[idx].addr {
		s.unmatched++
		return false
	}
	c := &s.clients[idx]
	if !c.busy || c.outSeq != seq {
		s.unmatched++
		return false
	}
	c.busy = false
	s.acked++
	if s.lat != nil {
		s.lat = append(s.lat, at-c.stamp)
	}
	return true
}

// writeOff gives up on every frame in flight, counting each as failed.
func (s *sender) writeOff() int {
	n := 0
	for i := range s.clients {
		if s.clients[i].busy {
			s.clients[i].busy = false
			n++
		}
	}
	s.writtenOff += n
	return n
}

// run sends quota data frames in a closed loop with at most window in
// flight and returns once every one is ACKed or written off. With plain
// set (the set-up pass) it sends only trailer-free data frames.
func (s *sender) run(quota, window int, plain bool) error {
	if window > len(s.clients) {
		return fmt.Errorf("window %d exceeds the sender's %d clients", window, len(s.clients))
	}
	sent, inflight := 0, 0
	armed := time.Duration(-1)
	for sent < quota || inflight > 0 {
		for inflight < window && sent < quota {
			if err := s.sendNext(plain); err != nil {
				return fmt.Errorf("send: %w", err)
			}
			sent++
			inflight++
		}
		// Re-arm the read deadline at most every 100ms: arming is not
		// free, and the bound only has to catch a stall.
		if now := time.Since(s.origin); armed < 0 || now-armed > 100*time.Millisecond {
			if err := s.conn.SetReadDeadline(s.origin.Add(now + ackTimeout)); err != nil {
				return err
			}
			armed = now
		}
		n, err := s.conn.Read(s.rxbuf)
		if errors.Is(err, os.ErrDeadlineExceeded) {
			inflight -= s.writeOff()
			armed = -1
			continue
		}
		if err != nil {
			return fmt.Errorf("receive: %w", err)
		}
		at := time.Since(s.origin)
		if dot11.UnmarshalInto(&s.rx, s.rxbuf[:n]) != nil || s.rx.Type != dot11.TypeAck {
			s.unmatched++
			continue
		}
		if s.match(s.rx.Dst, s.rx.Seq, at) {
			inflight--
		}
	}
	return nil
}
