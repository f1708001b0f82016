// Package hintserve is the production hint-serving plane: the AP-side
// engine that receives hint-bearing frames from thousands of clients
// over UDP, ingests the hints, drives one hint-aware rate adapter per
// client, and acknowledges data frames.
//
// The design replaces the single decode-everything read loop of early
// hintnode builds with a sharded pipeline:
//
//		reader ──route by hash(src addr)──▶ shard 0 ─▶ ack burst
//		                                   shard 1 ─▶ ack burst
//		                                   ...
//
//	  - One reader goroutine blocks on every read and copies each
//	    datagram into its shard's fill batch, picking the shard by the
//	    hash of the source MAC — the one header field that partitions all
//	    per-client state.
//	  - The shard pulls its work: the first packet into an empty fill
//	    batch wakes the shard, and an idle shard swaps the fill batch for
//	    its drained one and serves it at once. A batch is exactly what
//	    arrived while its shard was busy, so no packet waits for a timer
//	    or for a later packet, and batches grow only with load.
//	  - Each shard holds two batches: the one the reader fills and the one
//	    the shard serves. When the fill batch is full the reader blocks
//	    until the shard takes it — the backpressure bound, and the only
//	    place the reader waits.
//	  - Each shard goroutine owns a preallocated client-state table
//	    (table.go) and processes its batches with zero cross-shard
//	    locking: decode into a reused Frame, ingest hints via the
//	    allocation-free AppendAll walk, adapt the client's rate state,
//	    and marshal the ACK into the batch's reusable output buffer.
//	    ACKs are flushed as one burst of writes per batch.
//
// The per-packet serve path performs zero heap allocations in steady
// state (proven by an allocation-budget test); all buffers, frames,
// client slots and adapters are preallocated or slot-recycled.
package hintserve

import (
	"errors"
	"fmt"
	"net"
	"net/netip"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dot11"
	"repro/internal/hintproto"
	"repro/internal/rate"
)

// minWireLen is the wire size of the smallest valid frame (empty
// payload); anything shorter is dropped before routing. It is also the
// exact size of every ACK.
var minWireLen = (&dot11.Frame{}).WireLen()

// apAddr is the serving plane's own MAC: the source of every ACK.
var apAddr = dot11.AddrFromInt(1)

// Config tunes the serving plane. The zero value is usable: every
// field defaults sensibly (see withDefaults).
type Config struct {
	// Shards is the number of serving goroutines; default GOMAXPROCS.
	Shards int
	// ClientsPerShard bounds each shard's client table; default 4096.
	// Total capacity is Shards × ClientsPerShard (rounded up to the
	// table's bucket geometry).
	ClientsPerShard int
	// IdleTimeout is how long a client may be silent before its slot can
	// be recycled for a new address; default 30s.
	IdleTimeout time.Duration
	// BatchSize is the most packets a shard takes at once; default 64.
	// The reader blocks while a shard's fill batch is full — that is the
	// backpressure bound.
	BatchSize int
	// MaxPacket is the largest datagram accepted; default fits a frame
	// with MaxPayload.
	MaxPacket int
	// AdapterWindow is the sampling window given to each client's
	// static-case adapter. The serving plane must keep this small: the
	// adapter's event ring is sized from it, and at ten thousand clients
	// the default simulation window would cost gigabytes. Default 50ms.
	AdapterWindow time.Duration
	// AdapterBytes is the packet size the adapter's airtime model
	// assumes; default 1500.
	AdapterBytes int
	// Seed makes adapter randomness deterministic; default 1.
	Seed int64
	// OnSwitch, if set, is called from the owning shard whenever a
	// client's movement state flips. It must be fast and must not
	// retain the address past the call.
	OnSwitch func(addr dot11.Addr, moving bool)
}

func (c Config) withDefaults() Config {
	if c.Shards <= 0 {
		c.Shards = runtime.GOMAXPROCS(0)
	}
	if c.ClientsPerShard <= 0 {
		c.ClientsPerShard = 4096
	}
	if c.IdleTimeout <= 0 {
		c.IdleTimeout = 30 * time.Second
	}
	if c.BatchSize <= 0 {
		c.BatchSize = 64
	}
	if c.MaxPacket <= 0 {
		c.MaxPacket = minWireLen + dot11.MaxPayload
	}
	if c.AdapterWindow <= 0 {
		c.AdapterWindow = 50 * time.Millisecond
	}
	if c.AdapterBytes <= 0 {
		c.AdapterBytes = 1500
	}
	if c.Seed == 0 {
		c.Seed = 1
	}
	return c
}

// batch is one unit of reader→shard handoff: up to BatchSize packets
// copied into a contiguous store, plus the output buffer their ACKs
// marshal into. Each shard preallocates two and swaps them between the
// reader and itself, so the steady-state reader/shard loop never
// allocates.
type batch struct {
	n         int
	maxPacket int
	store     []byte           // BatchSize × maxPacket backing bytes
	bufs      [][]byte         // bufs[i] = the i-th packet, aliasing store
	srcs      []netip.AddrPort // srcs[i] = who sent packet i
	out       []byte           // marshalled ACKs, cap BatchSize × minWireLen
	acks      []ackRef
}

// ackRef locates one marshalled ACK inside batch.out.
type ackRef struct {
	off, n int
	dst    netip.AddrPort
}

func newBatch(size, maxPacket int) *batch {
	return &batch{
		maxPacket: maxPacket,
		store:     make([]byte, size*maxPacket),
		bufs:      make([][]byte, size),
		srcs:      make([]netip.AddrPort, size),
		out:       make([]byte, 0, size*minWireLen),
		acks:      make([]ackRef, 0, size),
	}
}

// slotBuf returns the full-size backing buffer for packet slot i.
func (b *batch) slotBuf(i int) []byte {
	return b.store[i*b.maxPacket : (i+1)*b.maxPacket]
}

// resetOut clears only the output side, keeping the packets (used by
// the bench harness to replay a batch).
func (b *batch) resetOut() {
	b.out = b.out[:0]
	b.acks = b.acks[:0]
}

// reset makes the batch ready for refilling.
func (b *batch) reset() {
	b.n = 0
	b.resetOut()
}

// shardStats are the per-shard counters, atomically readable from
// outside the shard goroutine.
//
// The individual fields stay atomic (so any single counter can be read
// racelessly at any time), but a cross-field snapshot needs more: the
// shard goroutine bumps packets and acks at different points of a
// batch, so a reader loading fields one by one can observe impossible
// states like Acks > Packets. seq is a seqlock over the batch: the
// shard goroutine makes it odd before serving a batch and even again
// after the batch's ACKs are flushed, and snapshot() retries until it
// reads the same even value on both sides of its field loads — every
// snapshot is then a between-batches view where the cross-field
// invariants hold.
type shardStats struct {
	seq         atomic.Uint64
	packets     atomic.Uint64
	badFrames   atomic.Uint64
	dataFrames  atomic.Uint64
	hints       atomic.Uint64
	acks        atomic.Uint64
	switches    atomic.Uint64
	admitted    atomic.Uint64
	evicted     atomic.Uint64
	rejected    atomic.Uint64
	writeErrors atomic.Uint64
	batches     atomic.Uint64
	live        atomic.Int64
}

// beginBatch/endBatch bracket the shard goroutine's write section (one
// served batch plus its ACK flush): two atomic adds per 64-packet
// batch, nothing on the per-packet path.
func (ss *shardStats) beginBatch() { ss.seq.Add(1) }
func (ss *shardStats) endBatch()   { ss.seq.Add(1) }

// snapshot reads the shard's counters as one consistent unit.
func (ss *shardStats) snapshot() Stats {
	for {
		s1 := ss.seq.Load()
		if s1&1 == 0 {
			st := Stats{
				Packets:     ss.packets.Load(),
				BadFrames:   ss.badFrames.Load(),
				DataFrames:  ss.dataFrames.Load(),
				Hints:       ss.hints.Load(),
				Acks:        ss.acks.Load(),
				Switches:    ss.switches.Load(),
				Admitted:    ss.admitted.Load(),
				Evicted:     ss.evicted.Load(),
				Rejected:    ss.rejected.Load(),
				WriteErrors: ss.writeErrors.Load(),
				Batches:     ss.batches.Load(),
				LiveClients: ss.live.Load(),
			}
			if ss.seq.Load() == s1 {
				return st
			}
		}
		// Mid-batch: the shard finishes its write section in microseconds
		// (one batch serve + ACK burst), so yield and retry.
		runtime.Gosched()
	}
}

// shard owns one partition of the client space. Apart from the handoff
// fields and stats, everything is touched only by the shard goroutine
// (or, in the bench harness, by the single benchmarking goroutine).
type shard struct {
	id   int
	conn *net.UDPConn // nil in the conn-less bench harness
	cfg  Config

	// The handoff. mu guards fill, the batch the reader copies packets
	// into; taken is signalled each time the shard swaps it out, which a
	// reader blocked on a full fill batch waits for. wake holds at most
	// one token, posted when fill goes from empty to non-empty. spare is
	// the shard's other batch, empty whenever the shard is idle.
	mu    sync.Mutex
	taken sync.Cond
	fill  *batch
	spare *batch
	wake  chan struct{}

	table   *clientTable
	scratch []hintproto.Hint
	rx      dot11.Frame // reused for every decode
	ack     dot11.Frame // reused for every ACK
	seedCtr int64

	stats shardStats
}

func newShard(id int, conn *net.UDPConn, cfg Config) *shard {
	sh := &shard{
		id:      id,
		conn:    conn,
		cfg:     cfg,
		fill:    newBatch(cfg.BatchSize, cfg.MaxPacket),
		spare:   newBatch(cfg.BatchSize, cfg.MaxPacket),
		wake:    make(chan struct{}, 1),
		table:   newClientTable(cfg.ClientsPerShard, cfg.IdleTimeout),
		scratch: make([]hintproto.Hint, 0, 16),
	}
	sh.taken.L = &sh.mu
	return sh
}

// newAdapter builds the hint-aware adapter for a freshly admitted
// client. Called once per table slot; recycled slots reuse the adapter.
func (sh *shard) newAdapter() *rate.HintAware {
	sh.seedCtr++
	static := rate.NewSampleRate(sh.cfg.Seed + int64(sh.id)<<40 + sh.seedCtr)
	static.Window = sh.cfg.AdapterWindow
	static.PacketBytes = sh.cfg.AdapterBytes
	return rate.NewHintAwareWith(static, rate.NewRapidSample())
}

// run is the shard goroutine. Each wake token means packets went into
// an empty fill batch; the shard takes everything that has arrived
// since, serves it and flushes its ACKs. The stats seqlock brackets
// serve+flush so Stats() always observes whole-batch counter states
// (the conn-less bench harness drives serveBatch directly from a single
// goroutine and needs no bracketing). A token still buffered when Serve
// closes wake is delivered first, so every routed packet is served.
func (sh *shard) run(start time.Time) {
	for range sh.wake {
		b := sh.take()
		if b.n == 0 {
			continue // taken by an earlier wake before this token was posted
		}
		sh.stats.beginBatch()
		sh.serveBatch(b, time.Since(start))
		sh.flush(b)
		sh.stats.endBatch()
		b.reset()
	}
}

// take swaps the reader's fill batch for the shard's empty spare and
// releases a reader blocked on the full batch. The returned batch is
// the spare again once it is served and reset.
func (sh *shard) take() *batch {
	sh.mu.Lock()
	b := sh.fill
	sh.fill, sh.spare = sh.spare, b
	sh.mu.Unlock()
	sh.taken.Signal()
	return b
}

// serveBatch runs the zero-alloc hot path over every packet in b,
// marshalling ACKs into b.out. now is the serve-plane clock (monotonic
// duration since server start, shared with the rate adapters).
func (sh *shard) serveBatch(b *batch, now time.Duration) {
	sh.stats.batches.Add(1)
	for i := 0; i < b.n; i++ {
		sh.servePacket(b.bufs[i], b.srcs[i], b, now)
	}
}

// servePacket is the per-packet hot path: decode → table → ingest →
// adapt → ack. It must not allocate in steady state.
func (sh *shard) servePacket(pkt []byte, src netip.AddrPort, b *batch, now time.Duration) {
	sh.stats.packets.Add(1)
	f := &sh.rx
	if err := dot11.UnmarshalInto(f, pkt); err != nil {
		sh.stats.badFrames.Add(1)
		return
	}

	c, res := sh.table.lookup(f.Src, now)
	switch res {
	case lookupAdmitted:
		sh.stats.admitted.Add(1)
		if c.adapter == nil {
			c.adapter = sh.newAdapter()
		}
	case lookupEvicted:
		sh.stats.admitted.Add(1)
		sh.stats.evicted.Add(1)
	case lookupRejected:
		sh.stats.rejected.Add(1)
		return
	}
	if res != lookupFound {
		sh.stats.live.Store(int64(sh.table.live))
	}
	c.frames++

	sh.scratch = hintproto.AppendAll(sh.scratch[:0], f)
	for _, h := range sh.scratch {
		c.hints++
		switch h.Type {
		case hintproto.HintMovement:
			moving := h.Value != 0
			if c.adapter.Moving() != moving {
				c.adapter.SetMoving(moving)
				sh.stats.switches.Add(1)
				if cb := sh.cfg.OnSwitch; cb != nil {
					cb(f.Src, moving)
				}
			}
		case hintproto.HintHeading:
			c.heading = h.Value
		case hintproto.HintSpeed:
			c.speed = h.Value
		case hintproto.HintNoise:
			c.noise = h.Value
		}
	}
	if n := len(sh.scratch); n > 0 {
		sh.stats.hints.Add(uint64(n))
	}

	// Only data frames are acknowledged (hint frames are advisory
	// broadcast-style traffic, per the protocol).
	if f.Type != dot11.TypeData {
		return
	}
	sh.stats.dataFrames.Add(1)

	// Drive the client's rate adapter as a real AP would per exchange:
	// pick the rate this frame would be served at, then feed back the
	// (successful) delivery observation.
	r := c.adapter.PickRate(now)
	c.adapter.Observe(rate.Feedback{At: now, Rate: r, Acked: true, SNR: rate.NoSNR()})

	dot11.AckInto(&sh.ack, f, apAddr)
	off := len(b.out)
	out, err := sh.ack.MarshalAppend(b.out)
	if err != nil {
		return // unreachable: ACKs carry no payload
	}
	b.out = out
	b.acks = append(b.acks, ackRef{off: off, n: len(out) - off, dst: src})
}

// flush sends the batch's ACK burst. A failed write is counted and
// skipped — transient send errors must never stop the serving plane.
func (sh *shard) flush(b *batch) {
	if sh.conn == nil {
		return
	}
	for _, a := range b.acks {
		if _, err := sh.conn.WriteToUDPAddrPort(b.out[a.off:a.off+a.n], a.dst); err != nil {
			sh.stats.writeErrors.Add(1)
			continue
		}
		sh.stats.acks.Add(1)
	}
}

// Stats is a point-in-time snapshot of serving counters, summed over
// all shards.
type Stats struct {
	Packets         uint64        // routed to a shard and decoded (or attempted)
	ShortDrops      uint64        // datagrams below the minimum frame size
	BadFrames       uint64        // failed decode (FCS, length)
	DataFrames      uint64        // data frames served
	Hints           uint64        // hints ingested (all encodings)
	Acks            uint64        // ACKs successfully written
	Switches        uint64        // movement-state flips observed
	Admitted        uint64        // client admissions (including via eviction)
	Evicted         uint64        // idle clients recycled for new addresses
	Rejected        uint64        // packets dropped because the table was full
	WriteErrors     uint64        // ACK writes that failed
	Batches         uint64        // batches served
	LiveClients     int64         // clients currently tracked
	ReaderStalls    uint64        // times the reader blocked on a shard's full batch
	ReaderStallTime time.Duration // total time the reader spent so blocked
}

// Server is the sharded hint-serving plane bound to one UDP socket.
type Server struct {
	conn      *net.UDPConn
	cfg       Config
	shards    []*shard
	start     time.Time
	shortDrop atomic.Uint64
	stalls    atomic.Uint64 // reader-owned, bumped only when route blocks
	stallNs   atomic.Int64
	wg        sync.WaitGroup
	closeOnce sync.Once
	closeErr  error
}

// New builds a server on conn. The caller owns conn until Serve is
// called; Close closes it.
func New(conn *net.UDPConn, cfg Config) *Server {
	cfg = cfg.withDefaults()
	// Deep socket buffers ride out recv bursts (and ACK-burst sends)
	// that outpace the reader for a moment; best-effort, the kernel may
	// clamp.
	_ = conn.SetReadBuffer(4 << 20)
	_ = conn.SetWriteBuffer(4 << 20)
	s := &Server{conn: conn, cfg: cfg, start: time.Now()}
	for i := 0; i < cfg.Shards; i++ {
		s.shards = append(s.shards, newShard(i, conn, cfg))
	}
	return s
}

// LocalAddr reports the bound socket address.
func (s *Server) LocalAddr() net.Addr { return s.conn.LocalAddr() }

// NumShards reports the configured shard count.
func (s *Server) NumShards() int { return len(s.shards) }

// Serve runs the reader loop and shard goroutines until Close (or a
// fatal socket error). It returns nil on a clean Close.
func (s *Server) Serve() error {
	for _, sh := range s.shards {
		s.wg.Add(1)
		go func(sh *shard) {
			defer s.wg.Done()
			sh.run(s.start)
		}(sh)
	}
	err := s.readLoop()
	for _, sh := range s.shards {
		close(sh.wake)
	}
	s.wg.Wait()
	if err != nil && errors.Is(err, net.ErrClosed) {
		return nil
	}
	return err
}

// Close shuts the socket down, unblocking Serve.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { s.closeErr = s.conn.Close() })
	return s.closeErr
}

// readLoop blocks on every read and routes each datagram to its shard.
func (s *Server) readLoop() error {
	rbuf := make([]byte, s.cfg.MaxPacket)
	for {
		n, src, err := s.conn.ReadFromUDPAddrPort(rbuf)
		if err != nil {
			return err
		}
		s.route(rbuf[:n], src)
	}
}

// route copies one datagram into its shard's fill batch. The first
// packet into an empty batch wakes the shard; a full batch blocks the
// reader until the shard takes it (backpressure), and only that wait
// is counted.
func (s *Server) route(pkt []byte, src netip.AddrPort) {
	if len(pkt) < minWireLen {
		s.shortDrop.Add(1)
		return
	}
	var a dot11.Addr
	copy(a[:], pkt[4:10]) // src addr offset in the wire header
	sh := s.shards[hashAddr(a)%uint64(len(s.shards))]
	sh.mu.Lock()
	if sh.fill.n == len(sh.fill.bufs) {
		s.stalls.Add(1)
		t0 := time.Now()
		for sh.fill.n == len(sh.fill.bufs) {
			sh.taken.Wait()
		}
		s.stallNs.Add(int64(time.Since(t0)))
	}
	b := sh.fill
	slot := b.slotBuf(b.n)
	copy(slot, pkt)
	b.bufs[b.n] = slot[:len(pkt)]
	b.srcs[b.n] = src
	b.n++
	first := b.n == 1
	sh.mu.Unlock()
	if first {
		select {
		case sh.wake <- struct{}{}:
		default: // a pending token already covers this packet
		}
	}
}

// Stats sums counters across all shards. Each shard's counters are
// collected as one consistent unit through its stats seqlock (a
// field-by-field sum over live shards could tear — e.g. observe a
// batch's ACKs but not its packets), so the cross-field invariants
// (Acks ≤ Packets, DataFrames + BadFrames ≤ Packets) hold on every
// snapshot.
func (s *Server) Stats() Stats {
	st := Stats{
		ShortDrops:      s.shortDrop.Load(),
		ReaderStalls:    s.stalls.Load(),
		ReaderStallTime: time.Duration(s.stallNs.Load()),
	}
	for _, sh := range s.shards {
		p := sh.stats.snapshot()
		st.Packets += p.Packets
		st.BadFrames += p.BadFrames
		st.DataFrames += p.DataFrames
		st.Hints += p.Hints
		st.Acks += p.Acks
		st.Switches += p.Switches
		st.Admitted += p.Admitted
		st.Evicted += p.Evicted
		st.Rejected += p.Rejected
		st.WriteErrors += p.WriteErrors
		st.Batches += p.Batches
		st.LiveClients += p.LiveClients
	}
	return st
}

// String renders the snapshot for operator logs.
func (st Stats) String() string {
	return fmt.Sprintf("packets=%d data=%d hints=%d acks=%d switches=%d live=%d admitted=%d evicted=%d rejected=%d bad=%d short=%d werr=%d batches=%d stalls=%d stall=%s",
		st.Packets, st.DataFrames, st.Hints, st.Acks, st.Switches,
		st.LiveClients, st.Admitted, st.Evicted, st.Rejected,
		st.BadFrames, st.ShortDrops, st.WriteErrors, st.Batches,
		st.ReaderStalls, st.ReaderStallTime)
}
