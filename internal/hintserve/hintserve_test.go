package hintserve

import (
	"net"
	"net/netip"
	"runtime"
	"testing"
	"time"

	"repro/internal/dot11"
	"repro/internal/hintproto"
)

// startServer boots a serving plane on a loopback socket and returns it
// with its address; cleanup stops it.
func startServer(t *testing.T, cfg Config) (*Server, string) {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := New(conn, cfg)
	done := make(chan error, 1)
	go func() { done <- s.Serve() }()
	t.Cleanup(func() {
		s.Close()
		select {
		case err := <-done:
			if err != nil {
				t.Errorf("Serve returned %v", err)
			}
		case <-time.After(5 * time.Second):
			t.Error("Serve did not stop after Close")
		}
	})
	return s, s.LocalAddr().String()
}

// newIdleServer builds a server whose shard goroutines are not running,
// so a test can drive the reader's route and a shard's take by hand.
func newIdleServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	s := New(conn, cfg)
	t.Cleanup(func() { s.Close() })
	return s
}

// dataFrame returns the wire bytes of a data frame from the given
// client.
func dataFrame(t *testing.T, client int, seq uint16) []byte {
	t.Helper()
	f := &dot11.Frame{Type: dot11.TypeData, Seq: seq, Src: dot11.AddrFromInt(client), Dst: apAddr, Payload: []byte("handoff")}
	b, err := f.Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

var testSrc = netip.MustParseAddrPort("127.0.0.1:9")

// TestLoneFrameNotHeldByTimer sends lone data frames, one in flight at a
// time: each must be served as soon as the reader has it, not when a
// timer fires or a later packet arrives. The bound is the 100 µs read
// deadline a poll-draining reader holds every burst for, which such a
// reader can never beat.
func TestLoneFrameNotHeldByTimer(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 2})
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	buf := make([]byte, 256)
	var ack dot11.Frame
	best := time.Hour
	for i := 0; i < 50; i++ {
		wire := dataFrame(t, 7, uint16(i))
		if err := conn.SetReadDeadline(time.Now().Add(5 * time.Second)); err != nil {
			t.Fatal(err)
		}
		sent := time.Now()
		if _, err := conn.Write(wire); err != nil {
			t.Fatal(err)
		}
		n, err := conn.Read(buf)
		rtt := time.Since(sent)
		if err != nil {
			t.Fatalf("frame %d: no ACK: %v", i, err)
		}
		if err := dot11.UnmarshalInto(&ack, buf[:n]); err != nil || ack.Type != dot11.TypeAck || ack.Seq != uint16(i) {
			t.Fatalf("frame %d: reply is not its ACK (err %v, %+v)", i, err, ack)
		}
		best = min(best, rtt)
	}
	t.Logf("fastest send→ACK %s", best)
	if best >= 100*time.Microsecond {
		t.Fatalf("fastest send→ACK of 50 lone frames took %s, want < 100µs", best)
	}
}

// TestRouteBlocksOnFullBatch checks the backpressure bound with the
// shard not taking batches: route fills one batch of BatchSize, then
// blocks — counted as a reader stall — until the shard takes it, and
// the shard's two batches are the only ones that ever carry packets.
func TestRouteBlocksOnFullBatch(t *testing.T) {
	const size = 16
	s := newIdleServer(t, Config{Shards: 1, BatchSize: size})
	sh := s.shards[0]
	pkt := dataFrame(t, 9, 0)
	seen := map[*batch]bool{sh.fill: true, sh.spare: true}

	for i := 0; i < size; i++ {
		s.route(pkt, testSrc)
	}
	select {
	case <-sh.wake:
	default:
		t.Fatal("the first packet into an empty batch posted no wake token")
	}
	if st := s.Stats(); st.ReaderStalls != 0 || st.ReaderStallTime != 0 {
		t.Fatalf("reader stalled before the batch was full: %s", st)
	}

	routed := make(chan struct{})
	go func() {
		s.route(pkt, testSrc)
		close(routed)
	}()
	for s.stalls.Load() == 0 { // the reader counts a stall as it starts waiting
		select {
		case <-routed:
			t.Fatal("route returned without stalling on its shard's full batch")
		default:
			runtime.Gosched()
		}
	}
	select {
	case <-routed:
		t.Fatal("route returned with its shard's batch full")
	default:
	}
	full := sh.take()
	if full.n != size {
		t.Fatalf("shard took %d packets, want a full batch of %d", full.n, size)
	}
	select {
	case <-routed:
	case <-time.After(10 * time.Second):
		t.Fatal("route still blocked after the shard took the full batch")
	}
	sh.mu.Lock()
	n := sh.fill.n
	sh.mu.Unlock()
	if n != 1 {
		t.Fatalf("blocked packet not in the fresh fill batch: n=%d", n)
	}
	st := s.Stats()
	if st.ReaderStalls != 1 || st.ReaderStallTime <= 0 {
		t.Fatalf("stall not recorded once with its wait time: %s", st)
	}

	// Many more fill/take rounds, each taken batch served and reset as
	// the shard goroutine would: still only the shard's two batches.
	full.reset()
	sh.take().reset()
	for round := 0; round < 20; round++ {
		for i := 0; i < size; i++ {
			s.route(pkt, testSrc)
		}
		b := sh.take()
		seen[b] = true
		b.reset()
	}
	seen[sh.fill], seen[sh.spare] = true, true
	if len(seen) != 2 {
		t.Fatalf("shard handed out %d distinct batches, want 2", len(seen))
	}
}

// TestCloseServesRoutedPackets routes packets into idle shards and then
// closes the server before its shards ever run: Serve must still serve
// and count every routed packet, in one last batch per shard that holds
// any.
func TestCloseServesRoutedPackets(t *testing.T) {
	s := newIdleServer(t, Config{Shards: 2, BatchSize: 16})
	const n = 12
	shards := map[uint64]bool{}
	for i := 0; i < n; i++ {
		c := 100 + i
		s.route(dataFrame(t, c, uint16(i)), testSrc)
		shards[hashAddr(dot11.AddrFromInt(c))%2] = true
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Serve(); err != nil {
		t.Fatalf("Serve after Close = %v, want nil", err)
	}
	st := s.Stats()
	if st.Packets != n || st.DataFrames != n {
		t.Fatalf("served %d packets (%d data) of %d routed: %s", st.Packets, st.DataFrames, n, st)
	}
	if st.Batches != uint64(len(shards)) {
		t.Fatalf("served %d batches, want one per shard holding packets (%d)", st.Batches, len(shards))
	}
	if st.Acks+st.WriteErrors != n {
		t.Fatalf("ACK attempts %d+%d, want %d: %s", st.Acks, st.WriteErrors, n, st)
	}
}

// TestTableAdmitEvictReject exercises the bounded client table's full
// life cycle on a single-bucket table where collisions are forced.
func TestTableAdmitEvictReject(t *testing.T) {
	tbl := newClientTable(8, time.Second) // one bucket pair: 8 slots total
	if got := tbl.capacity(); got != 8 {
		t.Fatalf("capacity = %d, want 8", got)
	}
	now := time.Duration(0)
	for i := 0; i < 8; i++ {
		c, res := tbl.lookup(dot11.AddrFromInt(100+i), now)
		if res != lookupAdmitted || c == nil {
			t.Fatalf("admit %d: res=%v", i, res)
		}
		c.adapter = (&shard{cfg: Config{}.withDefaults()}).newAdapter()
		now += time.Millisecond
	}
	if tbl.live != 8 {
		t.Fatalf("live = %d, want 8", tbl.live)
	}
	// Re-lookup is found, not re-admitted.
	if _, res := tbl.lookup(dot11.AddrFromInt(100), now); res != lookupFound {
		t.Fatalf("re-lookup: res=%v", res)
	}
	// Table full, everyone fresh: a new address must be rejected, not
	// grow the table (spoofed-flood bound).
	if _, res := tbl.lookup(dot11.AddrFromInt(999), now); res != lookupRejected {
		t.Fatalf("full fresh table: res=%v, want rejected", res)
	}
	// After the idle timeout the oldest client is recycled — and the new
	// occupant reuses its adapter.
	now += 2 * time.Second
	// Keep client 100 fresh so it is not the eviction victim.
	tbl.lookup(dot11.AddrFromInt(100), now)
	c, res := tbl.lookup(dot11.AddrFromInt(999), now)
	if res != lookupEvicted {
		t.Fatalf("idle table: res=%v, want evicted", res)
	}
	if c.adapter == nil {
		t.Fatal("evict-admit must reuse the slot's adapter")
	}
	if c.addr != dot11.AddrFromInt(999) || c.frames != 0 || c.hints != 0 {
		t.Fatalf("recycled slot not reinitialised: %+v", c)
	}
	if tbl.live != 8 {
		t.Fatalf("live after eviction = %d, want 8", tbl.live)
	}
}

// TestServeEndToEnd runs a full herd over real UDP and cross-checks the
// load report against the server's own counters: hints ingested from
// all three encodings, movement switches observed, corrupt frames
// rejected, and a healthy ack ratio with sane latencies.
func TestServeEndToEnd(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 4})
	rep, err := RunLoad(LoadConfig{
		Target:       addr,
		Clients:      200,
		Packets:      8000,
		Senders:      4,
		TogglePeriod: 16,
		CorruptRatio: 0.05,
		Timeout:      30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("report: %s", rep)
	if rep.DataSent == 0 || rep.Acked == 0 {
		t.Fatalf("no traffic served: %s", rep)
	}
	if rep.AckRatio < 0.9 {
		t.Errorf("ack ratio %.3f, want >= 0.9 on loopback", rep.AckRatio)
	}
	if rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("implausible latencies: p50=%s p99=%s", rep.P50, rep.P99)
	}
	st := srv.Stats()
	t.Logf("server: %s", st)
	if st.Acks < uint64(rep.Acked) {
		t.Errorf("server acked %d < client observed %d", st.Acks, rep.Acked)
	}
	if st.Hints == 0 || st.Switches == 0 {
		t.Errorf("hints/switches not ingested: %s", st)
	}
	if rep.CorruptSent > 0 && st.BadFrames == 0 {
		t.Errorf("sent %d corrupt frames but server counted no bad frames", rep.CorruptSent)
	}
	if st.LiveClients == 0 || st.LiveClients > 200 {
		t.Errorf("live clients = %d, want (0,200]", st.LiveClients)
	}
	if st.Rejected != 0 {
		t.Errorf("unexpected rejections at low occupancy: %d", st.Rejected)
	}
}

// TestServeSurvivesVanishingClient kills a client herd mid-run (socket
// closed with ACKs still in flight) and verifies the plane keeps
// serving a second herd afterwards: transient write errors must be
// counted, never fatal.
func TestServeSurvivesVanishingClient(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2})

	// A raw client that sends data frames and disappears without
	// reading its ACKs: once its socket closes, server ACK writes hit a
	// dead port.
	raddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	vanish, err := net.DialUDP("udp", nil, raddr)
	if err != nil {
		t.Fatal(err)
	}
	f := &dot11.Frame{Type: dot11.TypeData, Src: dot11.AddrFromInt(5000), Dst: apAddr, Payload: []byte("doomed")}
	hintproto.SetMovementBit(f, true)
	for i := 0; i < 50; i++ {
		f.Seq = uint16(i)
		b, err := f.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if _, err := vanish.Write(b); err != nil {
			t.Fatal(err)
		}
	}
	vanish.Close() // herd killed mid-run

	// The plane must still serve a fresh, well-behaved herd.
	rep, err := RunLoad(LoadConfig{
		Target:  addr,
		Clients: 50,
		Packets: 2000,
		Senders: 2,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.AckRatio < 0.9 {
		t.Errorf("ack ratio %.3f after client vanished, want >= 0.9", rep.AckRatio)
	}
	st := srv.Stats()
	if st.DataFrames < uint64(rep.DataSent) {
		t.Errorf("server served %d data frames, expected at least %d", st.DataFrames, rep.DataSent)
	}
}

// TestFloodStaysBounded throws far more distinct source addresses at a
// deliberately tiny table than it can hold: the table must reject the
// overflow (bounded memory under spoofed floods) while still serving
// the clients it admitted.
func TestFloodStaysBounded(t *testing.T) {
	srv, addr := startServer(t, Config{
		Shards:          1,
		ClientsPerShard: 64,
		IdleTimeout:     time.Hour, // nothing goes idle during the test
	})
	rep, err := RunLoad(LoadConfig{
		Target:  addr,
		Clients: 1000,
		Packets: 4000,
		Senders: 2,
		Timeout: 30 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	t.Logf("report: %s", rep)
	t.Logf("server: %s", st)
	if st.LiveClients > 64 {
		t.Fatalf("live clients %d exceeds table capacity 64", st.LiveClients)
	}
	if st.Rejected == 0 {
		t.Error("a 1000-address flood against 64 slots must reject packets")
	}
	if st.Acks == 0 {
		t.Error("admitted clients must still be served during a flood")
	}
}

// TestStatsStringSmoke keeps the operator formatting total.
func TestStatsStringSmoke(t *testing.T) {
	s := Stats{Packets: 1, DataFrames: 2, LiveClients: 3}
	if s.String() == "" {
		t.Fatal("empty Stats.String")
	}
	r := LoadReport{Clients: 1}
	if r.String() == "" {
		t.Fatal("empty LoadReport.String")
	}
}
