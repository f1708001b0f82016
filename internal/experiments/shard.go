package experiments

import (
	"encoding/binary"
	"fmt"
	"sort"

	"repro/internal/parallel"
	"repro/internal/stats"
)

// This file defines the records of sharded experiment execution and
// the two entry points around them:
//
//	RunShardStream — worker side: run one shard's slice of every trial
//	                 range and stream each loop's partial, unmerged
//	                 per-trial collector state as the loop finishes.
//	MergeShards    — coordinator side: validate the loop records of K
//	                 shards, absorb their trials in global trial-index
//	                 order, and run the experiment's finish phase over
//	                 the merged collectors.
//
// Workers stream the loop records to a coordinator inside the cluster
// protocol's JSON messages; the per-collector payloads inside them are
// the bit-exact binary codecs from internal/stats, base64-wrapped by
// encoding/json. A report produced by MergeShards is byte-identical to
// the single-process report for any shard count — the golden test in
// determinism_test.go enforces this for every registered experiment.

// LoopPartial is one trial loop's shard slice.
type LoopPartial struct {
	// Label names the loop (unique within the experiment).
	Label string `json:"label"`
	// N is the full trial-range size; every shard of a run must agree.
	N int `json:"n"`
	// Lo is the first global trial index of this shard's slice; the
	// slice is [Lo, Lo+len(Trials)).
	Lo int `json:"lo"`
	// Trials holds the per-trial emissions in ascending global trial
	// index order.
	Trials []TrialPartial `json:"trials"`
}

// TrialPartial is the serialized emissions of a single trial. Map
// values are internal/stats binary codec payloads (base64 in JSON).
// Trials that emitted nothing serialize as empty objects.
type TrialPartial struct {
	Accs   map[string][]byte `json:"accs,omitempty"`
	Hists  map[string][]byte `json:"hists,omitempty"`
	Series map[string][]byte `json:"series,omitempty"`
}

// encodeLoop serializes one loop's per-trial emitters.
func encodeLoop(label string, n, lo int, ems []*Emitter) *LoopPartial {
	out := &LoopPartial{Label: label, N: n, Lo: lo, Trials: make([]TrialPartial, len(ems))}
	for i, em := range ems {
		out.Trials[i] = encodeTrial(em)
	}
	return out
}

func encodeTrial(em *Emitter) TrialPartial {
	var tp TrialPartial
	if len(em.accs) > 0 {
		tp.Accs = make(map[string][]byte, len(em.accs))
		for name, xs := range em.accs {
			var a stats.Accumulator
			a.Add(xs...)
			tp.Accs[name] = mustMarshal(a.MarshalBinary())
		}
	}
	if len(em.hists) > 0 {
		tp.Hists = make(map[string][]byte, len(em.hists))
		for name, h := range em.hists {
			tp.Hists[name] = mustMarshal(h.MarshalBinary())
		}
	}
	if len(em.series) > 0 {
		tp.Series = make(map[string][]byte, len(em.series))
		for name, pts := range em.series {
			s := &stats.Series{Name: name, Points: pts}
			tp.Series[name] = mustMarshal(s.MarshalBinary())
		}
	}
	return tp
}

// mustMarshal panics on encode errors: the binary codecs only fail on
// structurally impossible inputs (a series name over 4 GiB).
func mustMarshal(b []byte, err error) []byte {
	if err != nil {
		panic(fmt.Sprintf("experiments: encoding shard partial: %v", err))
	}
	return b
}

// decodeTrial rebuilds a trial's emitter from the wire form.
func decodeTrial(tp TrialPartial) (*Emitter, error) {
	em := newEmitter()
	for name, blob := range tp.Accs {
		var a stats.Accumulator
		if err := a.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("accumulator %q: %w", name, err)
		}
		em.Add(name, a.Values()...)
	}
	for name, blob := range tp.Hists {
		var h stats.Histogram
		if err := h.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("histogram %q: %w", name, err)
		}
		if em.hists == nil {
			em.hists = map[string]*stats.Histogram{}
		}
		em.hists[name] = &h
	}
	for name, blob := range tp.Series {
		var s stats.Series
		if err := s.UnmarshalBinary(blob); err != nil {
			return nil, fmt.Errorf("series %q: %w", name, err)
		}
		for _, p := range s.Points {
			em.Point(name, p.X, p.Y)
		}
	}
	return em, nil
}

// CanonicalLoops serializes a shard result (the loop records streamed
// for one shard, in execution order) into a canonical byte string: two
// results encode to the same bytes iff they carry the same loops in the
// same order with the same labels, ranges, and bit-identical collector
// payloads. The campaign verification mode compares a re-executed shard
// against the first result with it — the determinism contract makes any
// difference a hard fault, so the encoding must be injective (a
// tampering worker must not be able to craft a different result with
// the same bytes) and order-stable. Layout, all fields
// stats.AppendFrame-framed: the loop count; then per loop its label and
// a fixed-width header carrying N, Lo and the trial count; then per
// trial a kind+name frame and payload frame per collector in sorted
// name order, closed by an empty frame. The explicit counts pin every
// frame's role — a decoder always knows whether the next frame is a
// label, a header, a collector tag, a payload, or a terminator — so no
// concatenation of one result can alias another.
func CanonicalLoops(loops []*LoopPartial) ([]byte, error) {
	var out []byte
	var ferr error
	app := func(payload []byte) {
		if ferr == nil {
			out, ferr = stats.AppendFrame(out, payload)
		}
	}
	appNamed := func(kind byte, name string, payload []byte) {
		tag := make([]byte, 0, 1+len(name))
		app(append(append(tag, kind), name...))
		app(payload)
	}
	var count [8]byte
	binary.LittleEndian.PutUint64(count[:], uint64(len(loops)))
	app(count[:])
	for _, loop := range loops {
		app([]byte(loop.Label))
		var hdr [24]byte
		binary.LittleEndian.PutUint64(hdr[0:8], uint64(loop.N))
		binary.LittleEndian.PutUint64(hdr[8:16], uint64(loop.Lo))
		binary.LittleEndian.PutUint64(hdr[16:24], uint64(len(loop.Trials)))
		app(hdr[:])
		for _, tp := range loop.Trials {
			for _, name := range sortedKeys(tp.Accs) {
				appNamed('a', name, tp.Accs[name])
			}
			for _, name := range sortedKeys(tp.Hists) {
				appNamed('h', name, tp.Hists[name])
			}
			for _, name := range sortedKeys(tp.Series) {
				appNamed('s', name, tp.Series[name])
			}
			app(nil) // trial terminator
		}
	}
	return out, ferr
}

func sortedKeys(m map[string][]byte) []string {
	if len(m) == 0 {
		return nil
	}
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// emitAbort carries a streaming-sink error out of the trial engine; the
// experiment run is abandoned at the loop boundary where the sink broke
// (there is no point computing trials nobody can receive).
type emitAbort struct{ err error }

// RunShardStream executes one shard of the experiment's trial space:
// every cfg.trials loop runs only the shard's contiguous slice (trial
// seeds still derive from the global trial index, so each trial
// computes exactly what it would in a single-process run) and the
// finish phase is skipped. emit receives each trial loop's record as
// soon as the loop finishes, while later loops are still running — a
// cluster worker forwards them to its coordinator, holding one loop in
// memory at a time instead of the whole shard. The engine hands records
// off and does not retain them. Shard {0, 1} covers the whole trial
// space. If emit returns an error, the run stops at that loop boundary
// and the error is returned.
func RunShardStream(id string, cfg Config, shard parallel.Shard, emit func(*LoopPartial) error) (err error) {
	if emit == nil {
		return fmt.Errorf("experiments: RunShardStream needs a sink")
	}
	r, ok := ByID(id)
	if !ok {
		return fmt.Errorf("experiments: unknown experiment %q", id)
	}
	if !shard.Valid() {
		return fmt.Errorf("experiments: invalid shard %v", shard)
	}
	sh := newExec(modeCollect)
	sh.shard = shard
	sh.emit = emit
	cfg.sh = sh
	defer func() {
		if v := recover(); v != nil {
			ab, ok := v.(emitAbort)
			if !ok {
				panic(v)
			}
			err = fmt.Errorf("experiments: streaming shard %v of %s: %w", shard, id, ab.err)
		}
	}()
	r.Run(cfg)
	return nil
}

// MergeShards merges the loop records of a complete shard set of
// experiment id, run at cfg's scale and seed, and builds the finished
// report. shards[k] holds shard k of len(shards)'s records in execution
// order, exactly as RunShardStream emitted them, and every shard must
// agree on every trial loop. Trials are absorbed in global trial-index
// order — the same absorb sequence as a single-process run — so the
// report is byte-identical to it.
func MergeShards(id string, cfg Config, shards [][]*LoopPartial) (*Report, error) {
	if len(shards) == 0 {
		return nil, fmt.Errorf("experiments: no shards to merge")
	}
	r, ok := ByID(id)
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q", id)
	}
	k, first := len(shards), shards[0]
	for i, loops := range shards {
		if len(loops) != len(first) {
			return nil, fmt.Errorf("experiments: shard %d/%d records %d trial loops, shard 0 records %d",
				i, k, len(loops), len(first))
		}
	}

	sh := newExec(modeReplay)
	for li, ref := range first {
		covered := 0
		for i, loops := range shards {
			loop := loops[li]
			if loop.Label != ref.Label || loop.N != ref.N {
				return nil, fmt.Errorf("experiments: shard %d/%d loop %d is %q (%d trials), shard 0 has %q (%d trials)",
					i, k, li, loop.Label, loop.N, ref.Label, ref.N)
			}
			lo, hi := parallel.Shard{Index: i, Count: k}.Range(loop.N)
			if loop.Lo != lo || len(loop.Trials) != hi-lo {
				return nil, fmt.Errorf("experiments: loop %q shard %d/%d carries [%d,%d), plan assigns [%d,%d)",
					loop.Label, i, k, loop.Lo, loop.Lo+len(loop.Trials), lo, hi)
			}
			// Shards are in index order and ranges are contiguous, so
			// this absorbs trials in exactly global trial-index order.
			for ti := range loop.Trials {
				em, err := decodeTrial(loop.Trials[ti])
				if err != nil {
					return nil, fmt.Errorf("experiments: loop %q trial %d: %w", loop.Label, lo+ti, err)
				}
				for _, name := range em.names() {
					if prev, ok := sh.owner[name]; ok && prev != ref.Label {
						return nil, fmt.Errorf("experiments: collector %q written by loops %q and %q", name, prev, ref.Label)
					}
					sh.owner[name] = ref.Label
				}
				sh.cols.absorb(em)
				covered++
			}
		}
		if covered != ref.N {
			return nil, fmt.Errorf("experiments: loop %q merged %d of %d trials", ref.Label, covered, ref.N)
		}
		sh.loops[ref.Label] = ref.N
	}

	cfg.sh = sh
	rep, err := replayRun(r, cfg)
	if err != nil {
		return nil, err
	}
	if rep == nil {
		return nil, fmt.Errorf("experiments: %s produced no report on replay", id)
	}
	for label := range sh.loops {
		if !sh.replayed[label] {
			return nil, fmt.Errorf("experiments: shards carry trial loop %q that %s never runs (stale partials from a different build?)",
				label, id)
		}
	}
	return rep, nil
}

// replayMismatch tags the replay-engine panics that mean "these loop
// records describe a different build of the experiment", so replayRun
// can convert exactly those into errors while letting genuine bugs
// crash loudly.
type replayMismatch string

// replayRun executes the experiment's finish phase over merged
// collectors, converting structural-mismatch panics into errors: a
// coordinator fed records from a different build must fail cleanly,
// not crash.
func replayRun(r Runner, cfg Config) (rep *Report, err error) {
	defer func() {
		if v := recover(); v != nil {
			if m, ok := v.(replayMismatch); ok {
				err = fmt.Errorf("experiments: partials do not match %s's trial structure: %s (stale partials from a different build?)",
					r.ID, string(m))
				return
			}
			panic(v)
		}
	}()
	return r.Run(cfg), nil
}
