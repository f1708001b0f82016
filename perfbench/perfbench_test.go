package main

import (
	"bytes"
	"encoding/json"
	"math"
	"net"
	"os"
	"runtime/pprof"
	"slices"
	"strings"
	"testing"
	"time"
)

func TestPercentileIdxNearestRank(t *testing.T) {
	cases := []struct {
		n    int
		p    float64
		want int
	}{
		{0, 99, 0},
		{1, 99, 0},
		{100, 99, 98}, // the 99th smallest of 100, not the 98th
		{100, 50, 49},
		{50, 99, 49}, // ceil(49.5) = 50th smallest
		{4, 50, 1},
		{5, 50, 2},
		{10, 100, 9},
		{10, 0, 0},
	}
	for _, c := range cases {
		if got := percentileIdx(c.n, c.p); got != c.want {
			t.Errorf("percentileIdx(%d, %g) = %d, want %d", c.n, c.p, got, c.want)
		}
	}
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	if got := percentile(xs, 99); got != 99 {
		t.Errorf("P99 of 1..100 = %g, want 99", got)
	}
	if got := median([]float64{3, 1, 2, 10}); got != 2.5 {
		t.Errorf("median = %g, want 2.5", got)
	}
}

func TestValidName(t *testing.T) {
	for _, ok := range []string{"run_s", "figures.exp.fig3-5_s", "serve.cpu.syscall_s", "9lives", strings.Repeat("a", 64)} {
		if err := validName(ok); err != nil {
			t.Errorf("validName(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{"", ".run", "_x", "-x", "run s", "rtt_µs", "a/b", "a:b", strings.Repeat("a", 65)} {
		if validName(bad) == nil {
			t.Errorf("validName(%q) accepted", bad)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{ID: 0, Parent: -1, Start: 0, End: 100 * ms},
		// Overlapping children count once: 10–50 is covered.
		{ID: 1, Parent: 0, Start: 10 * ms, End: 30 * ms},
		{ID: 2, Parent: 0, Start: 20 * ms, End: 50 * ms},
		// A child outliving its parent is clipped to the parent: 90–100.
		{ID: 3, Parent: 0, Start: 90 * ms, End: 120 * ms},
		// A grandchild is charged to its own parent only.
		{ID: 4, Parent: 2, Start: 25 * ms, End: 45 * ms},
	}
	got := selfTimes(spans)
	want := []time.Duration{50 * ms, 20 * ms, 10 * ms, 30 * ms, 20 * ms}
	if !slices.Equal(got, want) {
		t.Errorf("selfTimes = %v, want %v", got, want)
	}
}

func TestSchedWaitPercentile(t *testing.T) {
	d := &rtDelta{Buckets: []float64{0, 1, 2, 3, math.Inf(1)}, SchedWait: []uint64{0, 98, 1, 1}}
	if got := d.schedWaitP(99); got != 3 {
		t.Errorf("p99 = %g, want 3 (upper edge of the bucket holding rank 99)", got)
	}
	if got := d.schedWaitP(100); got != 3 {
		t.Errorf("p100 = %g, want 3 (lower edge of the open top bucket)", got)
	}
	if got := (&rtDelta{Buckets: []float64{0, 1}, SchedWait: []uint64{0}}).schedWaitP(99); got != 0 {
		t.Errorf("empty histogram p99 = %g, want 0", got)
	}
}

func TestCPUAttribution(t *testing.T) {
	scenarioRun := "repro/internal/scenario.(*engine).run"
	cases := []struct {
		stack         []string
		split         bool
		layer, sublay string
	}{
		// The runtime's allocator counts against its caller in the program.
		{[]string{"runtime.mallocgc", "runtime.newobject", "repro/internal/sim.(*Engine).At", scenarioRun}, false, "sim", "malloc"},
		// A sort's less function is the program's frame; the sort frames
		// above it mark the sample as sorting.
		{[]string{"repro/internal/sim.(*wheel).advance.func1", "sort.insertionSort_func", "sort.Slice", "repro/internal/sim.(*wheel).advance", scenarioRun}, false, "sim", "sort"},
		// The innermost program frame wins over its callers.
		{[]string{"math.Log", "repro/internal/parallel.(*RNG).NormFloat64", "repro/internal/ratesim.Run"}, false, "parallel", ""},
		// An allocation under a callee in another package is not the
		// caller's.
		{[]string{"runtime.mallocgc", "repro/internal/scenario.newClient", "repro/internal/sim.(*Engine).Run"}, false, "scenario", "malloc"},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, false, "gc", ""},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, false, "other", ""},
		{[]string{"runtime.futex", "runtime.notesleep", "runtime.schedule"}, true, "syscall", ""},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall6", "syscall.sendto", "net.(*UDPConn).Write", "main.(*sender).sendNext"}, true, "syscall", ""},
		{[]string{"internal/runtime/syscall.Syscall6", "syscall.Syscall6", "syscall.sendto", "net.(*UDPConn).Write", "main.(*sender).sendNext"}, false, "bench", ""},
		{[]string{"encoding/binary.bigEndian.Uint32", "main.(*sender).match"}, true, "bench", ""},
	}
	for _, c := range cases {
		l := layerOf(c.stack, c.split)
		if l != c.layer {
			t.Errorf("layerOf(%v, %v) = %q, want %q", c.stack, c.split, l, c.layer)
			continue
		}
		if sub := subLayer(c.stack, l); sub != c.sublay {
			t.Errorf("subLayer(%v, %q) = %q, want %q", c.stack, l, sub, c.sublay)
		}
	}

	got := cpuByLayer([]profSample{
		{Stack: cases[0].stack, Nanos: 3e7},
		{Stack: cases[1].stack, Nanos: 2e7},
		{Stack: cases[2].stack, Nanos: 1e7},
		{Stack: cases[4].stack, Nanos: 1e7},
	}, false, "sim")
	want := map[string]float64{"sim": 0.05, "sim_malloc": 0.03, "sim_sort": 0.02, "parallel": 0.01, "gc": 0.01}
	if len(got) != len(want) {
		t.Fatalf("cpuByLayer = %v, want %v", got, want)
	}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("cpuByLayer[%q] = %g, want %g", k, got[k], v)
		}
	}
}

//go:noinline
func busyLoop(d time.Duration) (x float64) {
	for end := time.Now().Add(d); time.Now().Before(end); {
		for i := 0; i < 1000; i++ {
			x += math.Sqrt(float64(i))
		}
	}
	return x
}

func TestParseProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skipf("CPU profiling unavailable: %v", err)
	}
	busyLoop(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total, inLoop int64
	for _, s := range samples {
		total += s.Nanos
		if slices.ContainsFunc(s.Stack, func(f string) bool { return strings.HasSuffix(f, ".busyLoop") }) {
			inLoop += s.Nanos
		}
	}
	if inLoop == 0 || inLoop > total {
		t.Fatalf("busyLoop charged %d ns of %d ns sampled over %d samples", inLoop, total, len(samples))
	}
	if _, err := parseProfile([]byte("not a profile")); err == nil {
		t.Error("parseProfile accepted garbage")
	}
}

func TestAckMatching(t *testing.T) {
	s, err := newSender(1, 0, 100, 4) // clients 100..103
	if err != nil {
		t.Fatal(err)
	}
	inflight := func(i int, seq uint16) {
		c := &s.clients[i]
		c.busy, c.outSeq, c.stamp = true, seq, 5*time.Microsecond
	}
	s.lat = make([]time.Duration, 0, 8)
	inflight(1, 7)
	if !s.match(clientAddr(101), 7, 25*time.Microsecond) {
		t.Fatal("ACK for the frame in flight rejected")
	}
	if s.match(clientAddr(101), 7, 30*time.Microsecond) {
		t.Error("duplicate ACK accepted")
	}
	inflight(1, 8)
	if s.match(clientAddr(101), 7, 35*time.Microsecond) {
		t.Error("stale ACK (older sequence) accepted")
	}
	if s.match(clientAddr(104), 8, 35*time.Microsecond) || s.match(clientAddr(99), 8, 35*time.Microsecond) {
		t.Error("ACK for a client the sender does not own accepted")
	}
	if !s.match(clientAddr(101), 8, 45*time.Microsecond) {
		t.Error("ACK for the newer frame rejected")
	}
	if s.acked != 2 || s.unmatched != 4 {
		t.Errorf("acked %d, unmatched %d; want 2 and 4", s.acked, s.unmatched)
	}
	if !slices.Equal(s.lat, []time.Duration{20 * time.Microsecond, 40 * time.Microsecond}) {
		t.Errorf("latencies %v, want [20µs 40µs]", s.lat)
	}
	inflight(2, 3)
	if n := s.writeOff(); n != 1 || s.match(clientAddr(102), 3, 0) {
		t.Errorf("writeOff gave up %d frames and left the frame matchable", n)
	}
}

func TestSenderSteadyStateAllocFree(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer sink.Close()
	s, err := newSender(1, 0, 0, 64)
	if err != nil {
		t.Fatal(err)
	}
	if s.conn, err = net.DialUDP("udp", nil, sink.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	defer s.conn.Close()
	s.origin = time.Now()
	s.lat = make([]time.Duration, 0, 4096)
	allocs := testing.AllocsPerRun(1000, func() {
		if err := s.sendNext(false); err != nil {
			t.Fatal(err)
		}
		c := &s.clients[(s.cursor+len(s.clients)-1)%len(s.clients)]
		s.match(c.addr, c.outSeq, time.Since(s.origin))
	})
	if allocs != 0 {
		t.Errorf("send + match allocates %.1f times per frame, want 0", allocs)
	}
	if s.acked == 0 || s.unmatched != 0 {
		t.Errorf("acked %d, unmatched %d", s.acked, s.unmatched)
	}
}

// TestBenchmarkJSON checks the repository's BENCHMARK.json against the
// metrics this program prints.
func TestBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skipf("no BENCHMARK.json beside the benchmark: %v", err)
	}
	type m struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var b struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []m `json:"end_to_end"`
		PerLayer   []m `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range b.Workloads {
		names = append(names, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	if !slices.Equal(names, workloads) {
		t.Errorf("workloads %v, want %v", names, workloads)
	}
	check := func(kind string, got []m, want []metric, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics, want %d", kind, len(got), len(want))
			return
		}
		for i, g := range got {
			if g.Name != want[i].Name || g.Unit != want[i].Unit {
				t.Errorf("%s[%d] = %s %s, want %s %s", kind, i, g.Name, g.Unit, want[i].Name, want[i].Unit)
			}
			if err := validName(g.Name); err != nil {
				t.Error(err)
			}
			if g.Better != "lower" && g.Better != "higher" {
				t.Errorf("%s: better %q", g.Name, g.Better)
			}
			if bounded != (g.Bound != nil) || bounded && (*g.Bound <= 0 || *g.Bound > 0.25) {
				t.Errorf("%s: bound %v", g.Name, g.Bound)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd, true)
	check("per_layer", b.PerLayer, perLayer, false)
	for _, e := range b.EndToEnd {
		if e.Name == "setup_s" {
			for _, o := range b.EndToEnd {
				if *o.Bound > *e.Bound {
					t.Errorf("setup_s bound %g is not the largest (%s: %g)", *e.Bound, o.Name, *o.Bound)
				}
			}
		}
	}
}

// A frame that is never ACKed is written off after ackTimeout and
// counted, and the closed loop still finishes its quota.
func TestUnackedFramesWrittenOff(t *testing.T) {
	sink, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("no loopback UDP: %v", err)
	}
	defer sink.Close()
	s, err := newSender(1, 0, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if s.conn, err = net.DialUDP("udp", nil, sink.LocalAddr().(*net.UDPAddr)); err != nil {
		t.Fatal(err)
	}
	defer s.conn.Close()
	s.origin = time.Now()
	if err := s.run(3, 2, true); err != nil {
		t.Fatal(err)
	}
	if s.dataSent != 3 || s.writtenOff != 3 || s.acked != 0 {
		t.Errorf("sent %d, written off %d, acked %d; want 3, 3, 0", s.dataSent, s.writtenOff, s.acked)
	}
}

// A report that differs between passes at one seed makes the run
// incorrect, and is a failed operation where experiment runs are the
// operations (figures) but not where shape checks are (city).
func TestVerdictReportDigests(t *testing.T) {
	for _, c := range []struct {
		mode       string
		ops        int
		wantFailed int
	}{{"figures", 2, 1}, {"city", 10, 0}} {
		v := &verdict{}
		v.add(&childRun{res: passResult{Mode: c.mode, Ops: c.ops, Digests: map[string]string{"a": "1", "b": "2"}}})
		v.add(&childRun{res: passResult{Mode: c.mode, Ops: c.ops, Digests: map[string]string{"a": "1", "b": "3"}}})
		if v.attempted != 2*c.ops || v.failed != c.wantFailed {
			t.Errorf("%s: attempted %d, failed %d; want %d, %d", c.mode, v.attempted, v.failed, 2*c.ops, c.wantFailed)
		}
		if want := []string{c.mode + " b: report differs between passes at one seed"}; !slices.Equal(v.problems, want) {
			t.Errorf("%s: problems %q, want %q", c.mode, v.problems, want)
		}
	}
}
