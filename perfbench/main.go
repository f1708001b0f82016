// Command perfbench is the repository's benchmark. It times the four
// paths a user runs: the paper's figures (figures), the shard fleet
// (fleet), the city-scale scenario engine (city) and the hint-serving
// plane (serve).
//
// Usage:
//
//	perfbench --workload figures|fleet|city|serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it runs passes of the named workload, each in a fresh
// child process, for S seconds (another pass starts while at least half
// of one still fits), and prints the end-to-end metrics (medians over
// passes) with the operations attempted and failed and a correctness
// verdict. With --trace 1 it makes one
// untraced and one traced pass of every workload, prints the per-layer
// metrics, span self times, CPU attribution and tracing overhead, and
// writes each traced pass's spans as Chrome trace-event JSON under
// .bench_build/traces/. The last line of standard output is always
// the JSON result. See README.md.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"
)

// metric is one reported figure and its unit.
type metric struct {
	Name, Unit string
}

// endToEnd are the metrics every untraced run prints, for every
// workload.
var endToEnd = []metric{
	{"setup_s", "s"}, {"run_s", "s"}, {"cpu_s", "s"}, {"peak_rss_mb", "MB"},
}

// extras are the workload-specific end-to-end figures printed by name
// beside endToEnd; the traced run reports each as a per-layer metric
// too.
var extras = map[string][]metric{
	"fleet": {{"campaign_s", "s"}},
	"serve": {{"ack_kpps", "kpps"}, {"ack_p99_us", "us"}, {"rtt_p50_us", "us"}, {"rtt_p99_us", "us"}},
}

// timedExps are the experiments each in-process workload times on its
// own in a traced pass (figures sums the rest), and cpuLayers the layers
// whose CPU each traced pass reports.
var (
	timedExps = map[string][]string{
		"figures": {"fig3-5", "fig3-6", "fig3-7", "fig3-8", "fig4-3", "sec5-1", "table5-1"},
		"fleet":   {"fig3-5", "fig3-7", "fig4-6"},
		"city":    {"city-grid", "city-handoff", "city-contend"},
	}
	cpuLayers = map[string][]string{
		"figures": {"parallel", "vehicular", "rate", "ratesim", "channel", "trace", "probing", "gc"},
		"fleet":   {"cluster", "stats", "experiments"},
		"city":    {"scenario", "sim", "sim_malloc", "sim_sort", "parallel", "gc"},
		"serve":   {"syscall", "gen", "hintserve", "rate", "dot11", "hintproto"},
	}
)

// perLayer are the metrics the traced run prints.
var perLayer = func() []metric {
	var m []metric
	add := func(unit string, names ...string) {
		for _, n := range names {
			m = append(m, metric{n, unit})
		}
	}
	for _, wl := range workloads {
		for _, id := range timedExps[wl] {
			add("s", wl+".exp."+id+"_s")
		}
		switch wl {
		case "figures":
			add("s", "figures.exp.rest_s")
		case "fleet":
			add("s", "fleet.report_s", "fleet.drain_s")
			add("count", "fleet.assigned", "fleet.stolen", "fleet.discarded")
			add("ratio", "fleet.useful_ratio", "fleet.vs_inprocess")
			add("s", "fleet.campaign_s", "fleet.campaign_drain_s")
			add("count", "fleet.campaign_stolen")
		case "city":
			add("count", "city.events")
			add("ns", "city.ns_per_event")
			add("count", "city.allocs_per_event")
			add("B", "city.bytes_per_event")
		case "serve":
			add("kpps", "serve.ack_kpps")
			add("us", "serve.ack_p99_us", "serve.rtt_p50_us", "serve.rtt_p99_us")
			add("count", "serve.sat.pkts_per_batch", "serve.light.pkts_per_batch")
			add("ns", "serve.path_ns_per_pkt")
			add("us", "serve.cpu_us_per_pkt")
			add("us", "serve.sched_wait_p99_us")
			add("count", "serve.switches", "serve.bad_frames", "serve.rejected")
		}
		for _, l := range cpuLayers[wl] {
			add("s", wl+".cpu."+l+"_s")
		}
		if wl == "figures" {
			add("MB", "figures.alloc_mb")
			add("count", "figures.gc_cycles")
			add("ratio", "figures.cpu_util")
		}
		add("ratio", wl+".cpu.named_share")
		add("s", wl+".trace_overhead_s")
	}
	return m
}()

var workloads = []string{"figures", "fleet", "city", "serve"}

// setupOnlyRuns is how many extra children per run only set up, so
// set-up time is a median even when few passes fit in the run.
const setupOnlyRuns = 3

// runLimit bounds a whole invocation; children still running at the
// limit are killed and the run fails.
const runLimit = 170 * time.Second

func main() {
	workload := flag.String("workload", "", "workload: figures, fleet, city or serve")
	seed := flag.Int64("seed", 42, "seed the workload's inputs derive from")
	seconds := flag.Int("seconds", 20, "how long the untraced passes may run")
	trace := flag.Int("trace", 0, "1 for the traced run of every workload")
	child := flag.String("child", "", "internal: run one pass of this mode")
	setupOnly := flag.Bool("setup-only", false, "internal: stop the pass after set-up")
	traceOut := flag.String("trace-out", "", "internal: trace the pass and write its spans here")
	flag.Parse()

	if *child != "" {
		os.Exit(childMain(*child, *seed, *setupOnly, *traceOut))
	}
	if !slices.Contains(workloads, *workload) || *seconds < 1 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload figures|fleet|city|serve --seed N --seconds S --trace 0|1")
		os.Exit(2)
	}
	ctx, cancel := context.WithTimeout(context.Background(), runLimit)
	defer cancel()
	var err error
	if *trace == 1 {
		err = tracedRun(ctx, *seed)
	} else {
		err = untracedRun(ctx, *workload, *seed, time.Duration(*seconds)*time.Second)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		cancel()
		os.Exit(1)
	}
}

// childRun is one finished child: its result and, measured here, the
// time from starting it to its ready line, less its benchmark-side
// preparation.
type childRun struct {
	res    passResult
	setupS float64
}

// runChild runs one pass in a child process of this binary.
func runChild(ctx context.Context, mode string, seed int64, setupOnly bool, traceOut string) (*childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"--child", mode, "--seed", strconv.FormatInt(seed, 10)}
	if setupOnly {
		args = append(args, "--setup-only")
	}
	if traceOut != "" {
		args = append(args, "--trace-out", traceOut)
	}
	cmd := exec.CommandContext(ctx, self, args...)
	cmd.Stderr = os.Stderr
	out, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cr := &childRun{}
	var last string
	var readErr error
	sc := bufio.NewScanner(out)
	sc.Buffer(make([]byte, 0, 64<<10), 16<<20)
	for sc.Scan() {
		line := sc.Text()
		if ns, ok := strings.CutPrefix(line, "ready "); ok {
			prep, err := strconv.ParseInt(ns, 10, 64)
			if err != nil {
				readErr = fmt.Errorf("bad ready line %q", line)
			}
			cr.setupS = (time.Since(start) - time.Duration(prep)).Seconds()
			continue
		}
		last = line
	}
	if err := sc.Err(); err != nil {
		readErr = err
		// Keep the pipe drained so the child can finish writing and exit.
		_, _ = io.Copy(io.Discard, out)
	}
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("%s pass: %w", mode, errors.Join(err, ctx.Err()))
	}
	if readErr != nil {
		return nil, fmt.Errorf("%s pass: %w", mode, readErr)
	}
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return nil, fmt.Errorf("%s pass: bad result %q: %w", mode, last, err)
	}
	return cr, nil
}

// verdict accumulates operations and correctness over a run's passes.
type verdict struct {
	attempted, failed int
	problems, notes   []string
	digests           map[string]string // "mode experiment" → first digest seen
	ref               map[string]string // fleet job → reference digest
}

func (v *verdict) add(cr *childRun) {
	r := &cr.res
	v.attempted += r.Ops
	v.failed += r.Failed
	for _, n := range r.Notes {
		if !slices.Contains(v.notes, n) {
			v.notes = append(v.notes, n)
		}
	}
	v.problems = append(v.problems, r.Problems...)
	for _, id := range slices.Sorted(maps.Keys(r.Digests)) {
		if v.digests == nil {
			v.digests = map[string]string{}
		}
		key := r.Mode + " " + id
		if d, ok := v.digests[key]; !ok {
			v.digests[key] = r.Digests[id]
		} else if d != r.Digests[id] {
			v.problems = append(v.problems, fmt.Sprintf("%s %s: report differs between passes at one seed", r.Mode, id))
			if runOps[r.Mode] {
				v.failed++
			}
		}
	}
	for _, j := range r.Jobs {
		if j.Phase == "ref" {
			continue
		}
		v.attempted++
		switch {
		case j.Err != "":
			v.failed++
			v.problems = append(v.problems, fmt.Sprintf("fleet job %s (phase %s): %s", j.ID, j.Phase, j.Err))
		case j.Digest != v.ref[j.ID]:
			v.failed++
			v.problems = append(v.problems, fmt.Sprintf("fleet job %s (phase %s): report differs from the in-process run", j.ID, j.Phase))
		}
	}
}

// setRef records the fleet reference's report digests.
func (v *verdict) setRef(cr *childRun) {
	v.ref = map[string]string{}
	for _, j := range cr.res.Jobs {
		v.ref[j.ID] = j.Digest
	}
}

// print writes the operation counts, failed checks and verdict lines.
func (v *verdict) print() {
	fmt.Printf("operations: attempted %d, failed %d\n", v.attempted, v.failed)
	for _, n := range v.notes {
		fmt.Println("  " + n)
	}
	for _, p := range v.problems {
		fmt.Println("  incorrect: " + p)
	}
	if len(v.problems) == 0 {
		fmt.Println("verdict: correct")
	} else {
		fmt.Println("verdict: INCORRECT")
	}
}

type result struct {
	Correct   bool                      `json:"correct"`
	Attempted int                       `json:"attempted"`
	Failed    int                       `json:"failed"`
	Metrics   map[string]map[string]any `json:"metrics"`
}

func emit(v *verdict, ms []metric, values map[string]float64) error {
	r := result{Correct: len(v.problems) == 0, Attempted: v.attempted, Failed: v.failed, Metrics: map[string]map[string]any{}}
	for _, m := range ms {
		if err := validName(m.Name); err != nil {
			return err
		}
		x, ok := values[m.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", m.Name)
		}
		r.Metrics[m.Name] = map[string]any{"value": x, "unit": m.Unit}
	}
	out, err := json.Marshal(r)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// untracedRun measures one workload.
func untracedRun(ctx context.Context, wl string, seed int64, budget time.Duration) error {
	nproc := runtime.NumCPU()
	v := &verdict{}
	var setups []float64
	for i := 0; i < setupOnlyRuns; i++ {
		cr, err := runChild(ctx, wl, seed, true, "")
		if err != nil {
			return err
		}
		setups = append(setups, cr.setupS)
	}
	if wl == "fleet" {
		ref, err := runChild(ctx, "fleet-ref", seed, false, "")
		if err != nil {
			return err
		}
		v.setRef(ref)
	}
	// Start another pass while at least half of one (at the last
	// pass's length) still fits in the budget.
	var passes []*childRun
	start := time.Now()
	var last time.Duration
	for len(passes) == 0 || time.Since(start)+last/2 < budget {
		t := time.Now()
		cr, err := runChild(ctx, wl, seed, false, "")
		if err != nil {
			return err
		}
		last = time.Since(t)
		passes = append(passes, cr)
		setups = append(setups, cr.setupS)
		v.add(cr)
	}

	col := func(f func(*childRun) float64) []float64 {
		xs := make([]float64, len(passes))
		for i, p := range passes {
			xs[i] = f(p)
		}
		return xs
	}
	samples := map[string][]float64{
		"setup_s":     setups,
		"run_s":       col(func(c *childRun) float64 { return c.res.RunS }),
		"cpu_s":       col(func(c *childRun) float64 { return c.res.CPUS }),
		"peak_rss_mb": col(func(c *childRun) float64 { return c.res.PeakRSSMB }),
	}
	for _, m := range extras[wl] {
		samples[m.Name] = col(func(c *childRun) float64 { return c.res.Values[m.Name] })
	}
	fmt.Printf("perfbench %s: seed %d, %d CPUs, %d passes in %.1f s, %d set-ups\n",
		wl, seed, nproc, len(passes), time.Since(start).Seconds(), len(setups))
	values := map[string]float64{}
	for _, m := range append(slices.Clone(endToEnd), extras[wl]...) {
		xs := samples[m.Name]
		values[m.Name] = median(xs)
		fmt.Printf("  %-12s %12.4f %-5s median of %d (min %.4f, max %.4f)\n", m.Name, values[m.Name], m.Unit, len(xs), slices.Min(xs), slices.Max(xs))
	}
	if wl == "serve" {
		p := passes[len(passes)/2].res.Values
		fmt.Printf("  latency samples per pass: %.0f saturated, %.0f light\n", p["sat_samples"], p["light_samples"])
	}
	v.print()
	return emit(v, endToEnd, values)
}

// tracedRun makes one untraced and one traced pass of every workload
// and reports the per-layer metrics.
func tracedRun(ctx context.Context, seed int64) error {
	nproc := runtime.NumCPU()
	v := &verdict{}
	values := map[string]float64{}
	for _, wl := range workloads {
		var ref *childRun
		if wl == "fleet" {
			var err error
			if ref, err = runChild(ctx, "fleet-ref", seed, false, ""); err != nil {
				return err
			}
			v.setRef(ref)
		}
		u, err := runChild(ctx, wl, seed, false, "")
		if err != nil {
			return err
		}
		out := filepath.Join(".bench_build", "traces", fmt.Sprintf("%s-seed%d.json", wl, seed))
		t, err := runChild(ctx, wl, seed, false, out)
		if err != nil {
			return err
		}
		v.add(u)
		v.add(t)

		// Per-layer figures come from the traced pass, except those the
		// untraced pass also measures: those are taken with tracing off.
		for k, x := range t.res.Values {
			values[k] = x
		}
		for k, x := range u.res.Values {
			if strings.HasPrefix(k, wl+".") {
				values[k] = x
			}
		}
		values[wl+".trace_overhead_s"] = t.res.RunS - u.res.RunS
		switch wl {
		case "figures":
			values["figures.cpu_util"] = u.res.CPUS / (u.res.RunS * float64(nproc))
		case "fleet":
			values["fleet.vs_inprocess"] = u.res.RunS / ref.res.RunS
			values["fleet.campaign_s"] = u.res.Values["campaign_s"]
		case "city":
			ev := u.res.Values["events"]
			values["city.events"] = ev
			values["city.ns_per_event"] = u.res.CPUS * 1e9 / ev
		case "serve":
			for _, m := range extras["serve"] {
				values["serve."+m.Name] = u.res.Values[m.Name]
			}
		}

		fmt.Printf("== %s: untraced run_s %.4f s, traced run_s %.4f s, tracing overhead %+.4f s; spans in %s\n",
			wl, u.res.RunS, t.res.RunS, t.res.RunS-u.res.RunS, out)
		for _, l := range t.res.Lines {
			fmt.Println("  " + l)
		}
		for _, m := range perLayer {
			if strings.HasPrefix(m.Name, wl+".") {
				fmt.Printf("  %-34s %14.4f %s\n", m.Name, values[m.Name], m.Unit)
			}
		}
	}
	v.print()
	return emit(v, perLayer, values)
}
