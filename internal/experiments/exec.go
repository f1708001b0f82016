package experiments

import (
	"fmt"
	"sort"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file is the shard-aware trial engine every experiment routes
// through. An experiment is written in two phases:
//
//   - Trial phase: one or more cfg.trials(label, n, fn) loops. fn(i, em)
//     computes trial i (seeding itself from the experiment's SeedStream
//     by the global index i) and emits its contributions to named
//     collectors — scalar samples, histogram counts, series points.
//   - Finish phase: builds the Report reading *only* the collectors
//     (cfg.acc / cfg.hist / cfg.seriesCol) and deterministic
//     inputs. Between the phases every experiment bails out with
//     `if cfg.collecting() { return nil }`.
//
// The split is what lets one experiment run three ways with
// bit-identical output:
//
//   - in-process (mode run): trials fan out across the worker pool and
//     their emissions are absorbed in trial-index order; finish runs on
//     the same collectors.
//   - shard worker (mode collect): only the shard's contiguous slice of
//     each trial range runs; per-trial emissions are recorded, not
//     absorbed, and the finish phase is skipped.
//   - coordinator (mode replay): the recorded per-trial emissions of
//     all shards are absorbed in global trial-index order — the exact
//     absorb sequence of the in-process run, float-op for float-op —
//     and the trial loops become no-ops feeding the same finish phase.
//
// Loop records keep per-trial granularity (not per-shard aggregates)
// because some merges are order-sensitive float reductions (for
// example Histogram.sum): absorbing trial-by-trial reproduces the
// in-process grouping of additions exactly, where pre-merged shard
// aggregates would regroup them and could flip low-order bits.

// shardMode selects how the trial engine executes.
type shardMode int

const (
	// modeRun executes every trial and the finish phase in-process.
	modeRun shardMode = iota
	// modeCollect executes one shard's slice of every trial range and
	// records per-trial emissions; the finish phase is skipped.
	modeCollect
	// modeReplay skips every trial loop (collectors were pre-filled by
	// MergeShards) and runs only the finish phase.
	modeReplay
)

// shardExec carries the engine state of one experiment run. It is
// created per run (by the register wrapper, RunShardStream or
// MergeShards), and all mutation happens on the caller's goroutine —
// per-trial emitters are the only state workers touch, and each trial
// owns its emitter exclusively.
type shardExec struct {
	mode  shardMode
	shard parallel.Shard
	cols  colSet
	// emit receives each completed loop record in execution order
	// (modeCollect): a cluster worker sends it to the coordinator while
	// later loops still run. Records are handed off, never retained
	// here, so a streaming worker holds one loop at a time. An emit
	// error aborts the run via an emitAbort panic that RunShardStream
	// converts back into an error.
	emit func(*LoopPartial) error
	// loops maps loop label → declared trial count, for validating
	// that replayed partials match the experiment's structure and that
	// no label is used twice.
	loops map[string]int
	// replayed marks the partial loops the experiment consumed in
	// modeReplay; MergeShards turns leftovers into an error (a shard
	// with loops the experiment never runs is from a different build).
	replayed map[string]bool
	// owner maps collector name → loop label, so a collector written
	// by two different loops (whose absorb order would then be
	// mode-dependent) fails loudly instead of silently diverging.
	owner map[string]string
}

func newExec(mode shardMode) *shardExec {
	return &shardExec{
		mode:     mode,
		cols:     newColSet(),
		loops:    map[string]int{},
		owner:    map[string]string{},
		replayed: map[string]bool{},
	}
}

// claim registers a loop label and the collector names its trials
// emitted, panicking on structural misuse (reused label or collector).
func (sh *shardExec) claim(label string, n int, ems []*Emitter) {
	if _, dup := sh.loops[label]; dup {
		panic(fmt.Sprintf("experiments: trial loop label %q used twice", label))
	}
	sh.loops[label] = n
	for _, em := range ems {
		for _, name := range em.names() {
			if prev, ok := sh.owner[name]; ok && prev != label {
				panic(fmt.Sprintf("experiments: collector %q written by loops %q and %q", name, prev, label))
			}
			sh.owner[name] = label
		}
	}
}

// Emitter collects one trial's contributions to the experiment's named
// collectors. Every trial owns its emitter exclusively; the engine
// absorbs emitters in trial-index order, which is what keeps reports
// independent of scheduling. Within a trial, per-name emission order is
// preserved.
type Emitter struct {
	accs   map[string][]float64
	hists  map[string]*stats.Histogram
	series map[string][]stats.Point
}

func newEmitter() *Emitter {
	return &Emitter{}
}

// Add appends scalar samples to the named accumulator collector.
func (e *Emitter) Add(name string, xs ...float64) {
	if e.accs == nil {
		e.accs = map[string][]float64{}
	}
	e.accs[name] = append(e.accs[name], xs...)
}

// Hist counts samples into the named histogram collector. The width
// must be identical across every trial that touches the collector.
func (e *Emitter) Hist(name string, width float64, xs ...float64) {
	if e.hists == nil {
		e.hists = map[string]*stats.Histogram{}
	}
	h := e.hists[name]
	if h == nil {
		h = stats.NewHistogram(width)
		e.hists[name] = h
	}
	for _, x := range xs {
		h.Add(x)
	}
}

// Point appends one point to the named series collector. Points
// accumulate in emission order within the trial and trial order across
// trials; any sorting belongs in the finish phase.
func (e *Emitter) Point(name string, x, y float64) {
	if e.series == nil {
		e.series = map[string][]stats.Point{}
	}
	e.series[name] = append(e.series[name], stats.Point{X: x, Y: y})
}

// names returns every collector name the emitter touched (sorted, for
// deterministic wire output).
func (e *Emitter) names() []string {
	var out []string
	for n := range e.accs {
		out = append(out, n)
	}
	for n := range e.hists {
		out = append(out, n)
	}
	for n := range e.series {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// empty reports whether the trial emitted nothing.
func (e *Emitter) empty() bool {
	return len(e.accs) == 0 && len(e.hists) == 0 && len(e.series) == 0
}

// colSet is the mutable collector state a finish phase reads.
type colSet struct {
	accs   map[string]*stats.Accumulator
	hists  map[string]*stats.Histogram
	series map[string]*stats.Series
}

func newColSet() colSet {
	return colSet{
		accs:   map[string]*stats.Accumulator{},
		hists:  map[string]*stats.Histogram{},
		series: map[string]*stats.Series{},
	}
}

// absorb merges one trial's emissions. Collectors with distinct names
// are independent, so the map iteration order here cannot influence
// any collector's final state; within a name, slices preserve emission
// order and the histogram merge performs the same additions in the
// same sequence in every mode.
func (c *colSet) absorb(e *Emitter) {
	for name, xs := range e.accs {
		acc := c.accs[name]
		if acc == nil {
			acc = &stats.Accumulator{}
			c.accs[name] = acc
		}
		acc.Add(xs...)
	}
	for name, h := range e.hists {
		dst := c.hists[name]
		if dst == nil {
			dst = stats.NewHistogram(h.Width)
			c.hists[name] = dst
		}
		dst.Merge(h)
	}
	for name, pts := range e.series {
		s := c.series[name]
		if s == nil {
			s = &stats.Series{Name: name}
			c.series[name] = s
		}
		s.Points = append(s.Points, pts...)
	}
}

// trials runs fn(i, em) for the trials of [0, n) this execution mode
// assigns to the process, fanning them across cfg.workers() goroutines.
// label names the loop on the shard wire format and must be unique
// within the experiment; n must be the full trial-range size in every
// mode (a shard worker restricts the range itself). fn must derive all
// randomness from the global trial index i and must not call
// cfg.trials recursively.
func (c Config) trials(label string, n int, fn func(i int, em *Emitter)) {
	sh := c.sh
	if sh == nil {
		panic("experiments: Config.trials outside a registered runner")
	}
	switch sh.mode {
	case modeReplay:
		// Mismatches here mean the partials came from a different build
		// of the experiment; the panics are converted to errors by
		// MergeShards' recover.
		want, ok := sh.loops[label]
		if !ok {
			panic(replayMismatch(fmt.Sprintf("replay has no partials for trial loop %q", label)))
		}
		if want != n {
			panic(replayMismatch(fmt.Sprintf("trial loop %q has %d trials, partials carry %d", label, n, want)))
		}
		sh.replayed[label] = true
		return
	case modeCollect:
		lo, hi := sh.shard.Range(n)
		ems := parallel.Map(c.workers(), hi-lo, func(j int) *Emitter {
			em := newEmitter()
			fn(lo+j, em)
			return em
		})
		sh.claim(label, n, ems)
		if err := sh.emit(encodeLoop(label, n, lo, ems)); err != nil {
			panic(emitAbort{err})
		}
	default:
		ems := parallel.Map(c.workers(), n, func(i int) *Emitter {
			em := newEmitter()
			fn(i, em)
			return em
		})
		sh.claim(label, n, ems)
		for _, em := range ems {
			sh.cols.absorb(em)
		}
	}
}

// collecting reports whether this run is a shard worker, in which case
// the experiment must return nil instead of building a report: the
// collectors hold only this shard's trials and the finish phase would
// compute nonsense from them.
func (c Config) collecting() bool {
	return c.sh != nil && c.sh.mode == modeCollect
}

// acc returns the named accumulator collector, or an empty one if no
// trial emitted to it, so finish phases stay total.
func (c Config) acc(name string) *stats.Accumulator {
	if a := c.sh.cols.accs[name]; a != nil {
		return a
	}
	return &stats.Accumulator{}
}

// val returns the single value of a one-sample collector (0 if absent),
// the common shape for deterministic single-trial emissions.
func (c Config) val(name string) float64 {
	a := c.sh.cols.accs[name]
	if a == nil || a.N() == 0 {
		return 0
	}
	return a.Values()[0]
}

// hist returns the named histogram collector, or an empty unit-width
// histogram if no trial emitted to it.
func (c Config) hist(name string) *stats.Histogram {
	if h := c.sh.cols.hists[name]; h != nil {
		return h
	}
	return stats.NewHistogram(1)
}

// seriesCol returns the named series collector (points in trial order,
// then emission order), renamed for display. The returned series is
// the collector itself; finish phases may sort or rescale it in place.
func (c Config) seriesCol(name, displayName string) *stats.Series {
	s := c.sh.cols.series[name]
	if s == nil {
		s = &stats.Series{}
	}
	s.Name = displayName
	return s
}
