// Package experiments contains one runner per table and figure in the
// paper's evaluation, producing reports with the same rows/series the
// paper presents plus automated shape checks (who wins, by roughly what
// factor, where crossovers fall). The cmd/hintbench binary prints these
// reports; the test suite and the root-level benchmarks assert their
// checks.
package experiments

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/parallel"
	"repro/internal/phy"
	"repro/internal/stats"
)

// Config controls experiment scale so the same runner serves quick tests
// and full reproductions.
type Config struct {
	// Scale multiplies trace counts and durations; 1.0 reproduces the
	// paper's scale, smaller values run faster. Values ≤ 0 mean 1.0.
	Scale float64
	// Seed makes runs deterministic.
	Seed int64
	// Workers bounds the goroutines an experiment fans its independent
	// trials across; ≤ 0 means one per CPU. The report is bit-identical
	// for any value: every trial derives its own seed from Seed by trial
	// index (see Config.stream) and per-trial results merge in trial
	// order, never in completion order.
	Workers int

	// sh is the shard-aware trial engine state (see exec.go). The
	// register wrapper installs the in-process engine when a caller
	// leaves it nil; RunShardStream and MergeShards install the worker
	// and coordinator engines.
	sh *shardExec
}

// workers returns the effective worker count.
func (c Config) workers() int {
	return parallel.Workers(c.Workers, 1<<30)
}

// stream returns the experiment-labelled seed stream; trials must take
// their seeds from it by trial index so that runs are reproducible
// regardless of scheduling.
func (c Config) stream(label string) parallel.SeedStream {
	return parallel.NewSeedStream(c.Seed).Derive(label)
}

func (c Config) scale() float64 {
	if c.Scale <= 0 {
		return 1
	}
	return c.Scale
}

// scaleInt scales n, keeping at least min.
func (c Config) scaleInt(n, min int) int {
	v := int(float64(n) * c.scale())
	if v < min {
		v = min
	}
	return v
}

// Check is one automated shape assertion of a report.
type Check struct {
	Name   string
	OK     bool
	Detail string
}

// Row is one table row: a label and named values in column order.
type Row struct {
	Label  string
	Values []float64
}

// Report is the output of one experiment.
type Report struct {
	// ID matches the DESIGN.md experiment index ("fig3-5", "table5-1").
	ID string
	// Title describes the artifact being reproduced.
	Title string
	// Paper states the expectation from the paper, for side-by-side
	// reading.
	Paper string
	// Columns names the value columns of Rows.
	Columns []string
	Rows    []Row
	// Series carries figure curves.
	Series []*stats.Series
	// Notes carries free-form observations.
	Notes []string
	// Checks carries the automated shape assertions.
	Checks []Check
}

// AddCheck records a shape assertion.
func (r *Report) AddCheck(name string, ok bool, format string, args ...any) {
	r.Checks = append(r.Checks, Check{Name: name, OK: ok, Detail: fmt.Sprintf(format, args...)})
}

// Failed returns the names of failed checks.
func (r *Report) Failed() []string {
	var out []string
	for _, c := range r.Checks {
		if !c.OK {
			out = append(out, c.Name+": "+c.Detail)
		}
	}
	return out
}

// String renders the report for the terminal.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	if r.Paper != "" {
		fmt.Fprintf(&b, "paper: %s\n", r.Paper)
	}
	if len(r.Rows) > 0 {
		fmt.Fprintf(&b, "%-28s", "")
		for _, c := range r.Columns {
			fmt.Fprintf(&b, "%14s", c)
		}
		b.WriteString("\n")
		for _, row := range r.Rows {
			fmt.Fprintf(&b, "%-28s", row.Label)
			for _, v := range row.Values {
				fmt.Fprintf(&b, "%14.4g", v)
			}
			b.WriteString("\n")
		}
	}
	for _, s := range r.Series {
		if s.Len() > 0 {
			fmt.Fprintf(&b, "-- series: %s (%d points)\n", s.Name, s.Len())
		}
	}
	if len(r.Series) > 0 {
		b.WriteString(stats.Chart(100, 18, r.Series...))
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	for _, c := range r.Checks {
		mark := "PASS"
		if !c.OK {
			mark = "FAIL"
		}
		fmt.Fprintf(&b, "check [%s] %s: %s\n", mark, c.Name, c.Detail)
	}
	return b.String()
}

// Runner is a named experiment entry point. Run returns the finished
// report — or nil when the Config carries a shard-worker engine
// (RunShardStream is the only caller that sets one up and it discards
// the nil).
type Runner struct {
	ID   string
	Run  func(Config) *Report
	Desc string
	// Frames lists the frame payload sizes (phy LUT keys) the
	// experiment's hot loops read; nil means phy.DefaultFrameBytes. A
	// benchmark warms exactly these tables before timing the experiment
	// (see Registry.FrameSizes), instead of guessing from a fixed list.
	Frames []int
	// Tags group experiments for bulk selection (Registry.ByTag,
	// hintbench -tag): the chapter ("ch3", "ch5"), the workload family
	// ("rate", "probing", "scenario"), the scale ("city").
	Tags []string
}

// HasTag reports whether the runner carries the tag.
func (r Runner) HasTag(tag string) bool {
	for _, t := range r.Tags {
		if t == tag {
			return true
		}
	}
	return false
}

// Registry is an ordered, ID-unique collection of experiments. The
// package-level Default registry collects every init-time registration;
// tests build private registries to exercise tooling against synthetic
// experiment sets. All lookup methods are read-only and safe for
// concurrent use after registration finishes.
type Registry struct {
	runners []Runner
	index   map[string]int
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: map[string]int{}}
}

// Register validates and adds one experiment. The stored Run is wrapped
// to install the in-process trial engine when the caller did not set
// one up, so plain Runner.Run keeps working unchanged while
// RunShardStream and MergeShards can substitute the worker and
// coordinator engines.
func (g *Registry) Register(r Runner) error {
	if r.ID == "" {
		return fmt.Errorf("experiments: Register with empty ID")
	}
	if r.Run == nil {
		return fmt.Errorf("experiments: Register(%q) with nil Run", r.ID)
	}
	if _, dup := g.index[r.ID]; dup {
		return fmt.Errorf("experiments: Register(%q): id already registered", r.ID)
	}
	run := r.Run
	r.Run = func(cfg Config) *Report {
		if cfg.sh == nil {
			cfg.sh = newExec(modeRun)
		}
		return run(cfg)
	}
	g.index[r.ID] = len(g.runners)
	g.runners = append(g.runners, r)
	return nil
}

// MustRegister is Register for init-time use; registration errors are
// programming errors there.
func (g *Registry) MustRegister(r Runner) {
	if err := g.Register(r); err != nil {
		panic(err)
	}
}

// All returns every registered experiment sorted by id.
func (g *Registry) All() []Runner {
	out := append([]Runner(nil), g.runners...)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ByID returns the experiment with the given id.
func (g *Registry) ByID(id string) (Runner, bool) {
	i, ok := g.index[id]
	if !ok {
		return Runner{}, false
	}
	return g.runners[i], true
}

// ByTag returns the experiments carrying the tag, sorted by id.
func (g *Registry) ByTag(tag string) []Runner {
	var out []Runner
	for _, r := range g.runners {
		if r.HasTag(tag) {
			out = append(out, r)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// IDs returns every registered id, sorted.
func (g *Registry) IDs() []string {
	out := make([]string, 0, len(g.runners))
	for _, r := range g.runners {
		out = append(out, r.ID)
	}
	sort.Strings(out)
	return out
}

// Tags returns the sorted distinct tags across the registry.
func (g *Registry) Tags() []string {
	set := map[string]bool{}
	for _, r := range g.runners {
		for _, t := range r.Tags {
			set[t] = true
		}
	}
	out := make([]string, 0, len(set))
	for t := range set {
		out = append(out, t)
	}
	sort.Strings(out)
	return out
}

// FrameSizes returns the sorted, deduplicated union of the frame
// payload sizes the named experiments declare (phy.DefaultFrameBytes
// for experiments that declare none, and for ids not in the registry) —
// the exact table set to phy.Warm before timing them. With no ids it
// covers the whole registry.
func (g *Registry) FrameSizes(ids ...string) []int {
	set := map[int]bool{}
	add := func(r Runner) {
		if len(r.Frames) == 0 {
			set[phy.DefaultFrameBytes] = true
			return
		}
		for _, b := range r.Frames {
			set[b] = true
		}
	}
	if len(ids) == 0 {
		for _, r := range g.runners {
			add(r)
		}
	}
	for _, id := range ids {
		r, ok := g.ByID(id)
		if !ok {
			set[phy.DefaultFrameBytes] = true
			continue
		}
		add(r)
	}
	out := make([]int, 0, len(set))
	for b := range set {
		out = append(out, b)
	}
	sort.Ints(out)
	return out
}

// Default is the registry every init-time registration lands in and the
// one the CLIs, the campaign engine, and the cluster fleet consume.
var Default = NewRegistry()

// runnerOpt customises a registration beyond (id, desc, run).
type runnerOpt func(*Runner)

// frames declares the frame payload sizes the experiment's trials hit
// (see Runner.Frames). Experiments that leave it out default to
// phy.DefaultFrameBytes.
func frames(sizes ...int) runnerOpt {
	return func(r *Runner) { r.Frames = sizes }
}

// tags labels the experiment for bulk selection.
func tags(ts ...string) runnerOpt {
	return func(r *Runner) { r.Tags = ts }
}

// register adds an experiment to the Default registry (called from each
// experiment file's init).
func register(id, desc string, run func(Config) *Report, opts ...runnerOpt) {
	r := Runner{ID: id, Run: run, Desc: desc}
	for _, opt := range opts {
		opt(&r)
	}
	Default.MustRegister(r)
}

// All returns every experiment in the Default registry sorted by id.
func All() []Runner { return Default.All() }

// ByID looks up an experiment in the Default registry.
func ByID(id string) (Runner, bool) { return Default.ByID(id) }
