package hintserve

import (
	"net"
	"testing"
	"time"

	"repro/internal/dot11"
)

// TestPercentileIdx pins the nearest-rank definition at the boundaries
// that the old floor form ((n-1)*p/100) got wrong: the P99 of 50
// samples is the 50th (index 49), not the 49th.
func TestPercentileIdx(t *testing.T) {
	cases := []struct{ n, p, want int }{
		{1, 50, 0},
		{1, 99, 0},
		{1, 100, 0},
		{50, 50, 24},
		{50, 99, 49},
		{50, 100, 49},
		{100, 50, 49},
		{100, 99, 98},
		{100, 100, 99},
		// Degenerate inputs stay clamped.
		{0, 99, 0},
		{10, 0, 0},
	}
	for _, c := range cases {
		if got := percentileIdx(c.n, c.p); got != c.want {
			t.Errorf("percentileIdx(%d, %d) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
}

// TestStatsConsistentUnderLoad hammers Stats() while a shard is live,
// asserting the cross-field invariants that a torn field-by-field sum
// violates: every ACK answers a served packet (Acks ≤ Packets) and
// every packet classifies as at most one of data or bad (DataFrames +
// BadFrames ≤ Packets). Counters must also be monotone between
// scrapes. Before the per-shard seqlock, a scrape could read a batch's
// flushed ACKs together with a pre-batch packet count and fail both.
func TestStatsConsistentUnderLoad(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 1, BatchSize: 16})

	conn, err := net.Dial("udp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// Drain ACKs so the server's writes keep succeeding.
	go func() {
		buf := make([]byte, 2048)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()

	// Sender: valid data frames from a handful of clients, as fast as
	// the socket takes them, until stop closes.
	stop := make(chan struct{})
	senderDone := make(chan struct{})
	go func() {
		defer close(senderDone)
		apAddr := dot11.AddrFromInt(1)
		var seq uint16
		for {
			select {
			case <-stop:
				return
			default:
			}
			f := &dot11.Frame{Type: dot11.TypeData, Seq: seq, Src: dot11.AddrFromInt(100 + int(seq%8)), Dst: apAddr, Payload: []byte("hammer")}
			seq++
			b, err := f.Marshal()
			if err != nil {
				t.Errorf("marshal: %v", err)
				return
			}
			conn.Write(b)
		}
	}()

	var prev Stats
	deadline := time.After(700 * time.Millisecond)
	scrapes := 0
	for looping := true; looping; {
		select {
		case <-deadline:
			looping = false
		default:
		}
		st := srv.Stats()
		scrapes++
		if st.Acks > st.Packets {
			t.Fatalf("torn snapshot after %d scrapes: Acks %d > Packets %d", scrapes, st.Acks, st.Packets)
		}
		if st.DataFrames+st.BadFrames > st.Packets {
			t.Fatalf("torn snapshot after %d scrapes: DataFrames %d + BadFrames %d > Packets %d", scrapes, st.DataFrames, st.BadFrames, st.Packets)
		}
		if st.Packets < prev.Packets || st.Acks < prev.Acks || st.Batches < prev.Batches {
			t.Fatalf("counters went backwards: %+v then %+v", prev, st)
		}
		prev = st
	}
	close(stop)
	<-senderDone
	if scrapes < 100 {
		t.Errorf("only %d scrapes completed; hammer too weak to mean anything", scrapes)
	}
	if prev.Packets == 0 {
		t.Error("server saw no packets; hammer test ran vacuously")
	}
	t.Logf("%d scrapes, final: %s", scrapes, prev)
}

// TestRunLoadMatchesEveryAck runs senders whose window is wider than 32
// frames per client against a plane that serves every frame: each data
// frame's ACK must be matched to its departure. A stamp ring smaller
// than a client's frames in flight overwrites stamps before their ACKs
// arrive; those ACKs are dropped as unmatched, the window shrinks for
// the rest of the run, and the run ends on a drainWait stall.
func TestRunLoadMatchesEveryAck(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 2})
	cases := []struct {
		clients, window int
		packets         int64
	}{
		{clients: 2, window: 128, packets: 4000},
		{clients: 1, window: 64, packets: 2000},
		{clients: 50, window: 64, packets: 2000},
	}
	for _, c := range cases {
		before := srv.Stats()
		rep, err := RunLoad(LoadConfig{
			Target:         addr,
			Clients:        c.clients,
			Senders:        1,
			Window:         c.window,
			Packets:        c.packets,
			MovingRatio:    0.5,
			TrailerRatio:   0.5,
			HintFrameRatio: 0.05,
			Timeout:        30 * time.Second,
		})
		if err != nil {
			t.Fatal(err)
		}
		served := srv.Stats().Acks - before.Acks
		if rep.Acked != rep.DataSent || served != uint64(rep.DataSent) {
			t.Errorf("clients=%d window=%d: matched %d ACKs of %d data frames, plane acked %d: %s",
				c.clients, c.window, rep.Acked, rep.DataSent, served, rep)
		}
	}
}

// TestRunLoadZeroTogglePeriodNeverFlips pins TogglePeriod's zero value:
// it disables toggling, as documented and as hintload's "-toggle 0"
// promises, rather than falling back to some default period.
func TestRunLoadZeroTogglePeriodNeverFlips(t *testing.T) {
	_, addr := startServer(t, Config{Shards: 1})
	rep, err := RunLoad(LoadConfig{Target: addr, Clients: 10, Packets: 2000, MovingRatio: 0.5, TogglePeriod: 0,
		TrailerRatio: 0.5, HintFrameRatio: 0.05, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if rep.DataSent == 0 || rep.Toggles != 0 {
		t.Fatalf("TogglePeriod 0 sent %d data frames with %d movement flips, want some frames and no flips: %s",
			rep.DataSent, rep.Toggles, rep)
	}
}

// TestRunLoadZeroRatiosSendNoHints pins the zero value of the three
// traffic-mix ratios as none, like TogglePeriod's, so hintload's
// "-moving 0 -trailer 0 -hint-frames 0" asks for a herd that never
// moves and sends no hint: no standalone hint frame leaves the
// generator, and the plane ingests no hint and sees no movement switch.
func TestRunLoadZeroRatiosSendNoHints(t *testing.T) {
	srv, addr := startServer(t, Config{Shards: 1})
	rep, err := RunLoad(LoadConfig{Target: addr, Clients: 10, Packets: 2000, Timeout: 30 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	st := srv.Stats()
	if rep.DataSent == 0 || rep.HintSent != 0 || st.Switches != 0 || st.Hints != 0 {
		t.Fatalf("zero ratios sent %d data and %d hint frames; the plane saw %d switches and %d hints, want data only: %s",
			rep.DataSent, rep.HintSent, st.Switches, st.Hints, rep)
	}
}
