package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/campaign"
	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/phy"
)

// The fleet workload runs the nine fleetJobs on an in-process fleet of
// one worker per CPU, each worker running one trial goroutine, each job
// split into fleetShards shards with stealing on. Phase (a), the timed
// run, gives each job a fresh fleet of its own, as a single hintshard
// run does; phase (b) runs all nine as one campaign on one fleet.

const fleetShards = 4

// fleet is one in-process fleet; close stops it and waits for every
// worker goroutine to return.
type fleet struct {
	cluster.Transport
	wg sync.WaitGroup
}

func newFleet(workers int) *fleet {
	f := &fleet{}
	f.wg.Add(workers)
	f.Transport = cluster.NewInProcess(workers, func(i int, c cluster.Conn) {
		defer f.wg.Done()
		// A worker's error is its connection closing under it, which
		// the coordinator has already accounted for.
		_ = cluster.Serve(c, cluster.ServeOptions{Name: fmt.Sprintf("w%d", i), Workers: 1})
	})
	return f
}

func (f *fleet) close() {
	f.Close()
	f.wg.Wait()
}

// runCampaign runs jobs on a fresh fleet under a span labelled label,
// with a span around each Emit, and returns each job's Emit time (since
// the call), the wall time, and the fleet's dispatch counts.
func (p *pass) runCampaign(phase, label string, parent int, ids []string) ([]time.Duration, time.Duration, cluster.RunStats, error) {
	jobs := make([]campaign.Job, len(ids))
	for i, id := range ids {
		jobs[i] = campaign.Job{Experiment: id, Scale: 1, Seed: p.seed, Shards: fleetShards}
	}
	emits := make([]time.Duration, len(ids))
	f := newFleet(runtime.NumCPU())
	defer f.close()
	sp := p.tr.begin("campaign.Run", label, parent, true)
	start := time.Now()
	res, stats, err := campaign.Run(f, jobs, campaign.Options{
		ShardWorkers: 1,
		Emit: func(i int, j campaign.Job, rep *experiments.Report) error {
			e := p.tr.begin("Emit", j.Experiment, sp, false)
			emits[i] = time.Since(start)
			p.tr.end(e)
			return nil
		},
	})
	wall := time.Since(start)
	p.tr.end(sp)
	for i, id := range ids {
		jr := jobResult{Phase: phase, ID: id}
		switch {
		case err != nil:
			jr.Err = err.Error()
		case res[i].Report == nil:
			jr.Err = "no report"
		default:
			jr.Digest = digest(res[i].Report.String())
		}
		p.res.Jobs = append(p.res.Jobs, jr)
	}
	return emits, wall, stats, err
}

func runFleet(p *pass) error {
	phy.Warm(experiments.Default.FrameSizes(fleetJobs...)...)
	p.ready(0)
	if p.setupOnly {
		return nil
	}
	var report, drain time.Duration
	var sum cluster.RunStats
	exp := map[string]time.Duration{}
	root := -1
	err := p.timed(func() error {
		root = p.tr.begin("fleet.one-job-runs", "", -1, true)
		defer p.tr.end(root)
		for _, id := range fleetJobs {
			emits, wall, st, err := p.runCampaign("a", id, root, []string{id})
			if err != nil {
				continue // recorded in the job's result
			}
			report += emits[0]
			drain += wall - emits[0]
			exp[id] = wall
			sum.Assigned += st.Assigned
			sum.Stolen += st.Stolen
			sum.Discarded += st.Discarded
		}
		return nil
	})
	if err != nil {
		return err
	}

	camp := p.tr.begin("fleet.campaign", "", -1, true)
	emits, wall, cst, _ := p.runCampaign("b", "all", camp, fleetJobs)
	p.tr.end(camp)
	p.set("campaign_s", wall.Seconds())
	if p.tr == nil {
		return nil
	}
	p.set("fleet.report_s", report.Seconds())
	p.set("fleet.drain_s", drain.Seconds())
	for _, id := range timedExps["fleet"] {
		p.set("fleet.exp."+id+"_s", exp[id].Seconds())
	}
	p.set("fleet.assigned", float64(sum.Assigned))
	p.set("fleet.stolen", float64(sum.Stolen))
	p.set("fleet.discarded", float64(sum.Discarded))
	if n := sum.Assigned + sum.Stolen; n > 0 {
		p.set("fleet.useful_ratio", float64(sum.Assigned)/float64(n))
	}
	var last time.Duration
	for _, e := range emits {
		last = max(last, e)
	}
	p.set("fleet.campaign_drain_s", (wall - last).Seconds())
	p.set("fleet.campaign_stolen", float64(cst.Stolen))
	return p.attribute("fleet", false, nil)
}
