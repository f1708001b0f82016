package sensorhints_test

import (
	"net"
	"testing"
	"time"

	"repro/internal/hintserve"
)

// BenchmarkHintServeBatch is the serving plane's hot-path
// micro-benchmark and the anchor of the BENCH_hintserve.json regression
// gate: one op serves one 64-packet batch through a shard's
// decode→ingest→adapt→ack path on the conn-less harness (no sockets, no
// scheduler noise). The allocs/op column doubles as the allocation
// budget in CI trend data — it must stay 0.
func BenchmarkHintServeBatch(b *testing.B) {
	h, err := hintserve.NewBenchHarness(hintserve.Config{BatchSize: 64}, 256)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	packets := 0
	for i := 0; i < b.N; i++ {
		p, _ := h.ServeBatch()
		packets += p
	}
	if packets > 0 {
		b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(packets), "ns/packet")
	}
}

// BenchmarkHintServeUDP is the figure-level measurement: a full serving
// plane on a loopback socket under a closed-loop hintload herd, with
// throughput and ACK latency reported as metrics. It is recorded into
// BENCH_hintserve.json for the trajectory but not gated on ns/op — a
// wall-clock loopback number is too hardware-dependent for a ±25% gate.
func BenchmarkHintServeUDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		conn, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
		if err != nil {
			b.Fatal(err)
		}
		srv := hintserve.New(conn, hintserve.Config{ClientsPerShard: 8192})
		done := make(chan struct{})
		go func() { defer close(done); srv.Serve() }()

		rep, err := hintserve.RunLoad(hintserve.LoadConfig{
			Target:         srv.LocalAddr().String(),
			Clients:        2000,
			Packets:        100000,
			Senders:        4,
			MovingRatio:    0.5,
			TogglePeriod:   32,
			TrailerRatio:   0.5,
			HintFrameRatio: 0.05,
			Timeout:        3 * time.Minute,
		})
		srv.Close()
		<-done
		if err != nil {
			b.Fatal(err)
		}
		if rep.Acked == 0 {
			b.Fatal("loopback serving plane acked nothing")
		}
		b.ReportMetric(rep.PacketsPerSec, "pps")
		b.ReportMetric(float64(rep.P50.Microseconds()), "p50-us")
		b.ReportMetric(float64(rep.P99.Microseconds()), "p99-us")
		b.ReportMetric(rep.AckRatio, "ack-ratio")
	}
}
