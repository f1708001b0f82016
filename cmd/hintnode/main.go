// Command hintnode demonstrates the Hint Protocol over real sockets:
// processes exchange 802.11-style frames over UDP, one side acting as
// mobile clients whose movement hints (derived live from a synthetic
// accelerometer via the §2.2.1 jerk algorithm) ride on their data
// frames, the other as an access point that switches its rate
// adaptation strategy on the received hints.
//
// The AP side runs on internal/hintserve: a sharded, batched serving
// plane with a bounded per-client state table and an allocation-free
// per-packet path, so one AP process scales to thousands of clients
// (drive it with cmd/hintload for raw load).
//
// Run the AP, then the client:
//
//	hintnode -listen 127.0.0.1:9999
//	hintnode -connect 127.0.0.1:9999 -duration 10s
//
// Or run both in one process for a self-contained demo:
//
//	hintnode -demo
//
// -workers N runs N concurrent client streams (each with its own MAC
// address and mobility schedule), exercising the AP's per-source hint
// routing under load.
package main

import (
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/atomicfile"
	"repro/internal/ctlplane"
	"repro/internal/dot11"
	"repro/internal/hintproto"
	"repro/internal/hints"
	"repro/internal/hintserve"
	"repro/internal/parallel"
	"repro/internal/sensors"
)

func main() {
	listen := flag.String("listen", "", "run as AP, listening on this UDP address")
	connect := flag.String("connect", "", "run as client, sending to this UDP address")
	duration := flag.Duration("duration", 10*time.Second, "client run length")
	workers := flag.Int("workers", 1, "concurrent client streams")
	shards := flag.Int("shards", 0, "AP serving shards (0 = GOMAXPROCS)")
	clientsPerShard := flag.Int("clients-per-shard", 0, "AP client-table slots per shard (0 = default)")
	idle := flag.Duration("idle-timeout", 0, "AP idle client eviction threshold (0 = default)")
	statsEvery := flag.Duration("stats", 2*time.Second, "AP stats logging interval (0 disables)")
	addrFile := flag.String("addr-file", "", "write the AP's bound address to this file")
	statusAddr := flag.String("status-addr", "", "AP: serve the HTTP control plane (/status, /metrics) on this address")
	statusAddrFile := flag.String("status-addr-file", "", "write the resolved -status-addr address to this file")
	logSwitches := flag.Bool("log-switches", false, "log every per-client strategy switch (noisy at scale; default on with -demo)")
	demo := flag.Bool("demo", false, "run AP and client in one process")
	flag.Parse()

	// The demo is about watching switches happen, so it logs them unless
	// the flag says otherwise explicitly.
	logSwitchesSet := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "log-switches" {
			logSwitchesSet = true
		}
	})
	cfg := hintserve.Config{
		Shards:          *shards,
		ClientsPerShard: *clientsPerShard,
		IdleTimeout:     *idle,
	}
	if *logSwitches || (*demo && !logSwitchesSet) {
		cfg.OnSwitch = logSwitch(time.Now())
	}

	if *statusAddrFile != "" && *statusAddr == "" {
		fmt.Fprintln(os.Stderr, "-status-addr-file publishes a -status-addr address; it needs -status-addr")
		os.Exit(2)
	}
	switch {
	case *demo:
		srv, err := startAP("127.0.0.1:0", cfg, *statsEvery, *addrFile)
		if err != nil {
			log.Fatal(err)
		}
		stopStatus, err := startStatus(*statusAddr, *statusAddrFile, srv)
		if err != nil {
			log.Fatal(err)
		}
		ok := runClients(srv.LocalAddr().String(), *duration, *workers)
		stopStatus()
		srv.Close()
		fmt.Println("[ap]", srv.Stats())
		if !ok {
			os.Exit(1)
		}
	case *listen != "":
		srv, err := startAP(*listen, cfg, *statsEvery, *addrFile)
		if err != nil {
			log.Fatal(err)
		}
		if _, err := startStatus(*statusAddr, *statusAddrFile, srv); err != nil {
			log.Fatal(err)
		}
		fmt.Println("AP listening on", srv.LocalAddr())
		if err := srv.serveErr(); err != nil {
			log.Fatal(err)
		}
	case *connect != "":
		if !runClients(*connect, *duration, *workers) {
			os.Exit(1)
		}
	default:
		fmt.Fprintln(os.Stderr, "usage: hintnode -demo | -listen addr | -connect addr")
		os.Exit(2)
	}
}

// logSwitch renders strategy switches as they happen, per client.
func logSwitch(start time.Time) func(dot11.Addr, bool) {
	return func(addr dot11.Addr, moving bool) {
		state := "static -> SampleRate"
		if moving {
			state = "moving -> RapidSample"
		}
		fmt.Printf("[ap] %6.2fs hint from %v: %s\n", time.Since(start).Seconds(), addr, state)
	}
}

// startStatus serves the AP's counters on the shared control-plane
// endpoint shape (/status, /metrics) when -status-addr is given; the
// returned stop function closes the endpoint. Reads go through
// hintserve's consistent per-shard stats collection, so scraping never
// touches the packet path.
func startStatus(addr, addrFile string, srv *apHandle) (func(), error) {
	if addr == "" {
		return func() {}, nil
	}
	cp, err := ctlplane.Start(addr, ctlplane.Config{Service: "hintnode", ServeStats: srv.Stats})
	if err != nil {
		return nil, err
	}
	fmt.Println("AP control plane on", cp.Addr())
	if addrFile != "" {
		if err := atomicfile.WriteFile(addrFile, []byte(cp.Addr()+"\n"), 0o644); err != nil {
			cp.Close()
			return nil, err
		}
	}
	return func() { cp.Close() }, nil
}

// apHandle pairs a serving plane with its background Serve goroutine.
type apHandle struct {
	*hintserve.Server
	done chan error
}

// serveErr blocks until Serve returns (socket closed or fatal error).
func (h *apHandle) serveErr() error { return <-h.done }

// startAP boots the serving plane on addr and starts serving in the
// background, optionally logging stats and writing the bound address to
// a file for scripted harnesses.
func startAP(addr string, cfg hintserve.Config, statsEvery time.Duration, addrFile string) (*apHandle, error) {
	laddr, err := net.ResolveUDPAddr("udp", addr)
	if err != nil {
		return nil, err
	}
	conn, err := net.ListenUDP("udp", laddr)
	if err != nil {
		return nil, err
	}
	srv := hintserve.New(conn, cfg)
	if addrFile != "" {
		// Atomic write: launch scripts poll for this file, and a torn
		// read of half an address must be impossible.
		if err := atomicfile.WriteFile(addrFile, []byte(srv.LocalAddr().String()+"\n"), 0o644); err != nil {
			conn.Close()
			return nil, err
		}
	}
	h := &apHandle{Server: srv, done: make(chan error, 1)}
	go func() { h.done <- srv.Serve() }()
	if statsEvery > 0 {
		go func() {
			t := time.NewTicker(statsEvery)
			defer t.Stop()
			start := time.Now()
			for range t.C {
				fmt.Printf("[ap] %6.2fs %s\n", time.Since(start).Seconds(), srv.Stats())
			}
		}()
	}
	return h, nil
}

// runClients drives n concurrent client streams against the AP, at most
// 64 at once, so a huge -workers value degrades gracefully instead of
// opening unbounded sockets at once. A failing stream is logged and the
// rest keep running; the run as a whole fails only when every stream
// failed.
func runClients(to string, total time.Duration, n int) bool {
	if n < 1 {
		n = 1
	}
	var failed atomic.Int64
	var mu sync.Mutex
	var firstErr error
	parallel.ForEach(min(n, 64), n, func(id int) {
		if err := runClient(to, total, id); err != nil {
			log.Printf("[client %d] stream failed: %v", id, err)
			failed.Add(1)
			mu.Lock()
			if firstErr == nil {
				firstErr = err
			}
			mu.Unlock()
		}
	})
	if nf := failed.Load(); nf > 0 {
		log.Printf("%d/%d client streams failed (first error: %v)", nf, n, firstErr)
		return nf < int64(n)
	}
	return true
}

// maxConsecutiveWriteErrs is how many back-to-back send failures a
// client stream tolerates before declaring its path dead.
const maxConsecutiveWriteErrs = 10

// runClient streams data frames with a live movement hint derived from
// a synthetic accelerometer: the device rests, walks, and rests again.
// id distinguishes concurrent streams: each gets its own MAC address
// and a phase-shifted mobility schedule so the AP sees staggered hints.
// Errors are returned, not fatal: one bad stream must not kill its
// siblings.
func runClient(to string, total time.Duration, id int) error {
	conn, err := net.Dial("udp", to)
	if err != nil {
		return fmt.Errorf("dial %s: %w", to, err)
	}
	defer conn.Close()

	clientAddr := dot11.AddrFromInt(2 + id)
	apAddr := dot11.AddrFromInt(1)

	// Mobility ground truth: rest, walk for total/2, rest again. The walk
	// window slides by id (wrapping every 4 streams) so concurrent
	// clients do not move in lockstep, while Start < End holds for any id.
	walkStart := total/4 + time.Duration(id%4)*total/16
	sched := sensors.Schedule{{Start: walkStart, End: walkStart + total/2, Mode: sensors.Walk}}
	accel := sensors.NewAccelerometer(sensors.DefaultAccelConfig(), time.Now().UnixNano()+int64(id))
	samples := accel.Generate(sched, total)
	det := hints.NewMovementDetector(hints.MovementConfig{})

	// Drain ACKs in the background so the socket buffer stays empty.
	go func() {
		buf := make([]byte, 4096)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()

	start := time.Now()
	var seq uint16
	sampleIdx := 0
	lastHint := false
	writeErrs := 0
	ticker := time.NewTicker(20 * time.Millisecond)
	defer ticker.Stop()
	for now := range ticker.C {
		elapsed := now.Sub(start)
		if elapsed >= total {
			break
		}
		// Feed all accelerometer reports due by now.
		for sampleIdx < len(samples) && samples[sampleIdx].T <= elapsed {
			det.Update(samples[sampleIdx])
			sampleIdx++
		}
		moving := det.Moving()
		if moving != lastHint {
			fmt.Printf("[client %d] %6.2fs movement hint -> %v (truth: %v)\n",
				id, elapsed.Seconds(), moving, sched.MovingAt(elapsed))
			lastHint = moving
		}
		f := &dot11.Frame{Type: dot11.TypeData, Seq: seq, Src: clientAddr, Dst: apAddr,
			Payload: []byte("sensor-hints demo payload")}
		seq++
		hintproto.SetMovementBit(f, moving)
		if err := hintproto.AppendTrailer(f, []hintproto.Hint{
			{Type: hintproto.HintMovement, Value: b2f(moving)},
			{Type: hintproto.HintSpeed, Value: 1.4 * b2f(moving)},
		}); err != nil {
			return fmt.Errorf("trailer: %w", err)
		}
		b, err := f.Marshal()
		if err != nil {
			return fmt.Errorf("marshal: %w", err)
		}
		if _, err := conn.Write(b); err != nil {
			// Transient send errors (e.g. the AP restarting) are
			// tolerated; a persistently dead path fails the stream.
			writeErrs++
			if writeErrs >= maxConsecutiveWriteErrs {
				return fmt.Errorf("write: %d consecutive failures, last: %w", writeErrs, err)
			}
			continue
		}
		writeErrs = 0
	}
	fmt.Printf("[client %d] sent %d frames over %v\n", id, seq, total)
	return nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
