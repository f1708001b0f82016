package main

import (
	"fmt"
	"runtime"
	"slices"
	"sort"
	"strings"

	"repro/internal/experiments"
	"repro/internal/phy"
)

// The in-process workloads run registered experiments through
// Runner.Run, as hintbench does: figures runs every paper-tagged
// experiment at paper scale, city the three city-scale runs, and
// fleet-ref the fleet's nine jobs (the reference the fleet's reports
// must match byte for byte).

// cityScale sizes the city so client state overflows the caches: tens
// of thousands of clients on hundreds of APs (36,000 on 361 at 0.6).
const cityScale = 0.6

// fleetJobs are the fleet workload's jobs, in submission order.
var fleetJobs = []string{"fig3-5", "fig3-6", "fig3-7", "table5-1", "fig4-3", "sec5-1", "fig4-4", "fig4-5", "fig4-6"}

// runOps marks the workloads whose operation is an experiment run, not
// a shape check. The paper's shape checks are statistical claims, and
// several do not hold at every seed (README.md, "Findings to cite"), so
// they cannot be operations of a workload on which none may fail; they
// are still evaluated and every one that does not hold is named.
var runOps = map[string]bool{"figures": true}

func runFigures(p *pass) error {
	return runExperiments(p, "figures", experiments.Default.ByTag("paper"), 1)
}

func runCity(p *pass) error {
	var rs []experiments.Runner
	for _, id := range timedExps["city"] {
		r, ok := experiments.Default.ByID(id)
		if !ok {
			return fmt.Errorf("experiment %s is not registered", id)
		}
		rs = append(rs, r)
	}
	return runExperiments(p, "city", rs, cityScale, "sim")
}

// runExperiments warms the phy tables the runners read (the set-up),
// then runs each runner once at the given scale with one worker per CPU
// (the timed region). Every shape check is an operation, or, for the
// runOps workloads, every experiment run. A traced pass
// times the workload's timedExps on their own and sums the rest, and
// breaks out the allocation and sorting time of the layers in splits.
func runExperiments(p *pass, prefix string, rs []experiments.Runner, scale float64, splits ...string) error {
	if len(rs) == 0 {
		return fmt.Errorf("no experiments to run")
	}
	ids := make([]string, len(rs))
	for i, r := range rs {
		ids[i] = r.ID
	}
	phy.Warm(experiments.Default.FrameSizes(ids...)...)
	p.ready(0)
	if p.setupOnly {
		return nil
	}
	cfg := experiments.Config{Scale: scale, Seed: p.seed, Workers: runtime.NumCPU()}
	reps := make([]*experiments.Report, len(rs))
	spans := make([]int, len(rs))
	root := -1
	err := p.timed(func() error {
		root = p.tr.begin(prefix, "", -1, true)
		for i, r := range rs {
			spans[i] = p.tr.begin("Runner.Run", r.ID, root, true)
			reps[i] = r.Run(cfg)
			p.tr.end(spans[i])
		}
		p.tr.end(root)
		return nil
	})
	if err != nil {
		return err
	}

	var events float64
	var checks int
	var unheld []string
	p.res.Digests = map[string]string{}
	for _, rep := range reps {
		p.res.Digests[rep.ID] = digest(rep.String())
		checks += len(rep.Checks)
		for _, f := range rep.Failed() {
			unheld = append(unheld, rep.ID+" "+f)
		}
		for _, row := range rep.Rows {
			if row.Label == "packet events" {
				events += row.Values[0]
			}
		}
	}
	if runOps[prefix] {
		// The parent fails a run whose report differs from the same
		// experiment's report in an earlier pass at this seed.
		p.res.Ops = len(reps)
		p.res.Notes = append(p.res.Notes, fmt.Sprintf("shape checks (not operations): %d evaluated, %d do not hold at seed %d", checks, len(unheld), p.seed))
		for _, u := range unheld {
			p.res.Notes = append(p.res.Notes, "shape check does not hold: "+u)
		}
	} else {
		p.res.Ops, p.res.Failed = checks, len(unheld)
		for _, u := range unheld {
			p.res.Notes = append(p.res.Notes, "shape check failed: "+u)
		}
	}
	if events > 0 {
		p.set("events", events)
	}
	if p.tr == nil {
		return nil
	}

	var rest float64
	for i, r := range rs {
		d := p.tr.spans[spans[i]]
		s := (d.End - d.Start).Seconds()
		if slices.Contains(timedExps[prefix], r.ID) {
			p.set(prefix+".exp."+r.ID+"_s", s)
		} else {
			rest += s
		}
	}
	if len(timedExps[prefix]) < len(rs) {
		p.set(prefix+".exp.rest_s", rest)
	}
	rt := p.tr.spans[root].RT
	p.set(prefix+".alloc_mb", float64(rt.AllocBytes)/(1<<20))
	p.set(prefix+".gc_cycles", float64(rt.GCCycles))
	if events > 0 {
		p.set(prefix+".allocs_per_event", float64(rt.AllocObjects)/events)
		p.set(prefix+".bytes_per_event", float64(rt.AllocBytes)/events)
	}
	return p.attribute(prefix, false, nil, splits...)
}

func runFleetRef(p *pass) error {
	phy.Warm(experiments.Default.FrameSizes(fleetJobs...)...)
	p.ready(0)
	if p.setupOnly {
		return nil
	}
	cfg := experiments.Config{Scale: 1, Seed: p.seed, Workers: runtime.NumCPU()}
	return p.timed(func() error {
		for _, id := range fleetJobs {
			r, ok := experiments.Default.ByID(id)
			if !ok {
				return fmt.Errorf("experiment %s is not registered", id)
			}
			rep := r.Run(cfg)
			p.res.Jobs = append(p.res.Jobs, jobResult{Phase: "ref", ID: id, Digest: digest(rep.String())})
		}
		return nil
	})
}

// attribute charges the traced pass's CPU profile to layers: it sets
// <prefix>.cpu.<layer>_s for each of the workload's cpuLayers and
// <prefix>.cpu.named_share, the share of CPU charged to a named layer
// (anything but "other" and the benchmark's own code), and adds the
// whole split to the pass's table. rename maps attribution layers to
// reported ones.
func (p *pass) attribute(prefix string, splitSyscall bool, rename map[string]string, splits ...string) error {
	by, err := p.cpuByLayer(splitSyscall, splits...)
	if err != nil || by == nil {
		return err
	}
	for from, to := range rename {
		if v, ok := by[from]; ok {
			delete(by, from)
			by[to] += v
		}
	}
	var total, named float64
	type kv struct {
		k string
		v float64
	}
	var rows []kv
	for k, v := range by {
		rows = append(rows, kv{k, v})
		if strings.Contains(k, "_") {
			continue // a sub-layer, already inside its layer's total
		}
		total += v
		if k != "other" && k != "bench" {
			named += v
		}
	}
	for _, l := range cpuLayers[prefix] {
		p.set(prefix+".cpu."+l+"_s", by[l])
	}
	if total > 0 {
		p.set(prefix+".cpu.named_share", named/total)
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].v > rows[j].v })
	p.res.Lines = append(p.res.Lines, fmt.Sprintf("%-34s %12s %8s", "cpu layer", "cpu_s", "share"))
	for _, r := range rows {
		p.res.Lines = append(p.res.Lines, fmt.Sprintf("%-34s %12.4f %7.1f%%", r.k, r.v, 100*r.v/total))
	}
	return nil
}
