package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

// The tracer records spans around the calls the benchmark makes into
// the program's public functions. Spans live in memory and are written
// out once, as Chrome trace-event JSON, when the pass ends. A nil
// *tracer records nothing, so untraced passes run the same code with
// tracing off.

// rtNames are the runtime/metrics read at the boundaries of spans that
// ask for them; rtHist is the one histogram among them.
var rtNames = []string{
	"/gc/cycles/total:gc-cycles",
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/sched/latencies:seconds",
}

const (
	rtGCCycles = iota
	rtAllocBytes
	rtAllocObjects
	rtHist
)

// rtDelta is what the runtime did while a span was open.
type rtDelta struct {
	GCCycles, AllocBytes, AllocObjects uint64
	// SchedWait holds the per-bucket counts of goroutine scheduling
	// latencies observed inside the span; Buckets are the histogram's
	// boundaries (len(Buckets) == len(SchedWait)+1).
	SchedWait []uint64
	Buckets   []float64
}

// schedWaitP returns the nearest-rank p-th percentile of the span's
// scheduling latencies in seconds, read as the upper boundary of the
// bucket that holds it; 0 when none were observed.
func (d *rtDelta) schedWaitP(p float64) float64 {
	var n uint64
	for _, c := range d.SchedWait {
		n += c
	}
	if n == 0 {
		return 0
	}
	rank := uint64(percentileIdx(int(n), p)) + 1
	var seen uint64
	for i, c := range d.SchedWait {
		seen += c
		if seen >= rank {
			// The top bucket is open-ended; its lower edge is the
			// tightest finite bound.
			if math.IsInf(d.Buckets[i+1], 1) {
				return d.Buckets[i]
			}
			return d.Buckets[i+1]
		}
	}
	return 0
}

// span is one recorded interval. Parent is the id of the enclosing
// span, -1 for a root.
type span struct {
	ID, Parent int
	Name       string
	Label      string
	Start, End time.Duration // since the tracer's origin
	RT         *rtDelta
	rtStart    []metrics.Sample
}

// tracer collects the spans of one pass. Safe for concurrent use:
// campaign.Run calls Emit from the coordinator's goroutine while the
// enclosing span is open on the caller's.
type tracer struct {
	run    string
	origin time.Time

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer {
	return &tracer{run: run, origin: time.Now()}
}

// begin opens a span under parent (-1 for none) and returns its id.
// With rt set it also snapshots the runtime metrics, which costs a few
// microseconds; leave it off for spans around sub-millisecond calls.
func (t *tracer) begin(name, label string, parent int, rt bool) int {
	if t == nil {
		return -1
	}
	var rs []metrics.Sample
	if rt {
		rs = readRT()
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans), Parent: parent, Name: name, Label: label, Start: now, rtStart: rs})
	return len(t.spans) - 1
}

// end closes span id.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.origin)
	t.mu.Lock()
	rs := t.spans[id].rtStart
	t.mu.Unlock()
	var d *rtDelta
	if rs != nil {
		d = rtDiff(rs, readRT())
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id]
	s.End, s.RT, s.rtStart = now, d, nil
}

func readRT() []metrics.Sample {
	s := make([]metrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	metrics.Read(s)
	return s
}

func rtDiff(a, b []metrics.Sample) *rtDelta {
	d := &rtDelta{
		GCCycles:     b[rtGCCycles].Value.Uint64() - a[rtGCCycles].Value.Uint64(),
		AllocBytes:   b[rtAllocBytes].Value.Uint64() - a[rtAllocBytes].Value.Uint64(),
		AllocObjects: b[rtAllocObjects].Value.Uint64() - a[rtAllocObjects].Value.Uint64(),
	}
	ha, hb := a[rtHist].Value.Float64Histogram(), b[rtHist].Value.Float64Histogram()
	d.Buckets = hb.Buckets
	d.SchedWait = make([]uint64, len(hb.Counts))
	for i := range hb.Counts {
		d.SchedWait[i] = hb.Counts[i] - ha.Counts[i]
	}
	return d
}

// selfTimes returns each span's self time: its duration minus the part
// of it covered by the union of its direct children's intervals
// (clipped to the span, so a child that outlives its parent is charged
// only for the overlap).
func selfTimes(spans []span) []time.Duration {
	kids := make([][]int, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			kids[s.Parent] = append(kids[s.Parent], s.ID)
		}
	}
	out := make([]time.Duration, len(spans))
	for i, s := range spans {
		type iv struct{ a, b time.Duration }
		var ivs []iv
		for _, k := range kids[i] {
			a, b := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
			if b > a {
				ivs = append(ivs, iv{a, b})
			}
		}
		slices.SortFunc(ivs, func(x, y iv) int { return int(x.a - y.a) })
		var covered, reach time.Duration
		reach = s.Start
		for _, v := range ivs {
			if v.b <= reach {
				continue
			}
			covered += v.b - max(v.a, reach)
			reach = v.b
		}
		out[i] = s.End - s.Start - covered
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON ("X"
// complete events on one track), which Perfetto and chrome://tracing
// open directly.
func (t *tracer) writeChrome(w io.Writer) error {
	type event struct {
		Name string         `json:"name"`
		Cat  string         `json:"cat"`
		Ph   string         `json:"ph"`
		Ts   float64        `json:"ts"`
		Dur  float64        `json:"dur"`
		Pid  int            `json:"pid"`
		Tid  int            `json:"tid"`
		Args map[string]any `json:"args"`
	}
	evs := make([]event, 0, len(t.spans))
	for _, s := range t.spans {
		name := s.Name
		if s.Label != "" {
			name += " " + s.Label
		}
		args := map[string]any{"id": s.ID, "parent": s.Parent, "run": t.run}
		if s.RT != nil {
			args["gc_cycles"] = s.RT.GCCycles
			args["alloc_bytes"] = s.RT.AllocBytes
			args["alloc_objects"] = s.RT.AllocObjects
		}
		evs = append(evs, event{
			Name: name, Cat: "perfbench", Ph: "X",
			Ts:  float64(s.Start) / 1e3,
			Dur: float64(s.End-s.Start) / 1e3,
			Pid: 1, Tid: 1, Args: args,
		})
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "displayTimeUnit": "ms"})
}

// selfTable renders total and self time per span name and label,
// in first-seen order.
func selfTable(spans []span) []string {
	self := selfTimes(spans)
	type row struct {
		key         string
		n           int
		total, self time.Duration
	}
	var rows []*row
	byKey := map[string]*row{}
	for i, s := range spans {
		key := s.Name
		if s.Label != "" {
			key += "[" + s.Label + "]"
		}
		r := byKey[key]
		if r == nil {
			r = &row{key: key}
			byKey[key] = r
			rows = append(rows, r)
		}
		r.n++
		r.total += s.End - s.Start
		r.self += self[i]
	}
	out := []string{fmt.Sprintf("%-34s %8s %12s %12s", "span", "calls", "total_s", "self_s")}
	for _, r := range rows {
		out = append(out, fmt.Sprintf("%-34s %8d %12.4f %12.4f", r.key, r.n, r.total.Seconds(), r.self.Seconds()))
	}
	return out
}
