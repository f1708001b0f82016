package campaign

import (
	"errors"
	"fmt"
	"runtime"
	"strings"
	"testing"

	"repro/internal/cluster"
	"repro/internal/experiments"
	"repro/internal/parallel"
)

// testJobs is the canonical small campaign the golden tests run: three
// cheap experiments with differing scales and seeds, so interleaving
// mixes genuinely different jobs (and the second job is larger than the
// third, so submission-order emission has something to gate).
func testJobs() []Job {
	return []Job{
		{Experiment: "fig2-2", Scale: 0.1, Seed: 42, Shards: 3},
		{Experiment: "fig3-1", Scale: 0.1, Seed: 42, Shards: 5},
		{Experiment: "fig2-2", Scale: 0.1, Seed: 7, Shards: 2},
	}
}

// standalone computes the single-process report each campaign job must
// reproduce byte for byte.
func standalone(t *testing.T, j Job) string {
	t.Helper()
	exp, ok := experiments.ByID(j.Experiment)
	if !ok {
		t.Fatalf("experiment %q not registered", j.Experiment)
	}
	return exp.Run(experiments.Config{Scale: j.Scale, Seed: j.Seed, Workers: 1}).String()
}

// startTransport builds one of the two transports with the given
// worker count. With killSecond, worker 0 dies on its second assignment
// — mid-campaign, after contributing real work to the first job — and
// no other worker sends its hello before that assignment is out:
// otherwise the other workers can drain the whole campaign before the
// killer's second assignment, and the kill never happens.
func startTransport(t *testing.T, kind string, workers int, killSecond bool) cluster.Transport {
	t.Helper()
	killed := make(chan struct{})
	if !killSecond {
		close(killed)
	}
	serve := func(i int, c cluster.Conn) {
		so := cluster.ServeOptions{Name: fmt.Sprintf("w%d", i), Workers: 1}
		if killSecond && i == 0 {
			seen := 0
			so.OnAssign = func(cluster.Assign) error {
				if seen++; seen == 2 {
					close(killed)
					return errors.New("injected mid-campaign death")
				}
				return nil
			}
		}
		cluster.Serve(c, so)
	}
	switch kind {
	case "inproc":
		return cluster.NewInProcess(workers, func(i int, c cluster.Conn) {
			if i > 0 {
				<-killed
			}
			serve(i, c)
		})
	case "tcp":
		lt, err := cluster.ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		for i := 0; i < workers; i++ {
			go func(i int) {
				if i > 0 {
					<-killed
				}
				c, err := cluster.DialTCP(lt.Addr())
				if err != nil {
					return
				}
				serve(i, c)
			}(i)
		}
		return lt
	}
	t.Fatalf("unknown transport %q", kind)
	return nil
}

// TestCampaignReportsIdenticalAcrossTransportsAndWorkers is the
// campaign golden test: a three-job campaign through one fleet must
// reproduce every job's standalone single-process report byte for byte,
// for every transport × worker count, with reports emitted in
// submission order — whatever interleaving, stealing, or speculative
// duplication happened underneath.
func TestCampaignReportsIdenticalAcrossTransportsAndWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	jobs := testJobs()
	var bases []string
	for _, j := range jobs {
		bases = append(bases, standalone(t, j))
	}
	transports := []string{"inproc", "tcp"}
	workerCounts := []int{1, 2, runtime.NumCPU()}
	if underRace {
		workerCounts = []int{2}
	}
	seen := map[int]bool{}
	var counts []int
	for _, w := range workerCounts {
		if !seen[w] {
			seen[w] = true
			counts = append(counts, w)
		}
	}
	for _, transport := range transports {
		for _, workers := range counts {
			t.Run(fmt.Sprintf("%s/workers=%d", transport, workers), func(t *testing.T) {
				var emitted []int
				tr := startTransport(t, transport, workers, false)
				results, _, err := Run(tr, jobs, Options{
					ShardWorkers: 1,
					Retries:      3,
					Emit: func(ji int, _ Job, rep *experiments.Report) error {
						emitted = append(emitted, ji)
						return nil
					},
				})
				if err != nil {
					t.Fatalf("campaign run: %v", err)
				}
				for ji, res := range results {
					if got := res.Report.String(); got != bases[ji] {
						t.Errorf("job %d (%s) differs from standalone run:\n--- standalone ---\n%s\n--- campaign ---\n%s",
							ji, res.Job.Experiment, bases[ji], got)
					}
				}
				for i, ji := range emitted {
					if i != ji {
						t.Fatalf("reports emitted out of submission order: %v", emitted)
					}
				}
				if len(emitted) != len(jobs) {
					t.Fatalf("emitted %d of %d reports", len(emitted), len(jobs))
				}
			})
		}
	}
}

// TestCampaignWithWorkerKilledMidCampaign completes the golden matrix's
// failure leg: one worker dies on its second assignment — inside the
// campaign, holding a shard — on every transport, and every report must
// still match the standalone run byte for byte.
func TestCampaignWithWorkerKilledMidCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	jobs := testJobs()
	var bases []string
	for _, j := range jobs {
		bases = append(bases, standalone(t, j))
	}
	transports := []string{"inproc", "tcp"}
	if underRace {
		transports = []string{"inproc"}
	}
	for _, transport := range transports {
		t.Run(transport, func(t *testing.T) {
			tr := startTransport(t, transport, 2, true)
			results, stats, err := Run(tr, jobs, Options{ShardWorkers: 1, Retries: 3})
			if err != nil {
				t.Fatalf("campaign run with killed worker: %v", err)
			}
			for ji, res := range results {
				if got := res.Report.String(); got != bases[ji] {
					t.Errorf("job %d (%s) differs after mid-campaign kill via %s:\n--- standalone ---\n%s\n--- campaign ---\n%s",
						ji, res.Job.Experiment, transport, bases[ji], got)
				}
			}
			// The dead worker's shard is recovered by requeue or steal.
			if stats.Requeued+stats.Stolen < 1 {
				t.Errorf("%s: killed worker's shard was neither requeued nor stolen (stats %+v)", transport, stats)
			}
		})
	}
}

// TestCampaignSubTrialJobsSurviveWorkerDeath: a campaign of two heavy
// experiments (one trace-grid runner, one per-curve tracker loop) with
// a worker dying on its second assignment — mid-shard from the
// campaign's point of view. The requeued shard must regenerate its
// traces and replay to byte-identical reports.
func TestCampaignSubTrialJobsSurviveWorkerDeath(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	jobs := []Job{
		{Experiment: "fig3-7", Scale: 0.1, Seed: 42, Shards: 4},
		{Experiment: "fig4-6", Scale: 0.1, Seed: 42, Shards: 4},
	}
	var bases []string
	for _, j := range jobs {
		bases = append(bases, standalone(t, j))
	}
	tr := startTransport(t, "inproc", 3, true)
	results, stats, err := Run(tr, jobs, Options{ShardWorkers: 1, Retries: 3})
	if err != nil {
		t.Fatalf("heavy campaign with killed worker: %v", err)
	}
	for ji, res := range results {
		if got := res.Report.String(); got != bases[ji] {
			t.Errorf("job %d (%s) differs after mid-shard kill:\n--- standalone ---\n%s\n--- campaign ---\n%s",
				ji, res.Job.Experiment, bases[ji], got)
		}
	}
	if stats.Requeued+stats.Stolen < 1 {
		t.Errorf("killed worker's shard was neither requeued nor stolen (stats %+v)", stats)
	}
	if stats.Assigned < 2 {
		t.Errorf("campaign dispatched only %d assignments; shards are not spreading", stats.Assigned)
	}
}

// TestVerificationPassesCleanCampaign: with full verification on and
// honest workers, every sampled shard re-executes and byte-matches, the
// campaign completes, and the reports still match the standalone runs.
func TestVerificationPassesCleanCampaign(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	jobs := testJobs()
	tr := startTransport(t, "inproc", 2, false)
	results, stats, err := Run(tr, jobs, Options{ShardWorkers: 1, Retries: 3, Verify: 1})
	if err != nil {
		t.Fatalf("verified campaign: %v", err)
	}
	var want int
	for _, j := range jobs {
		want += j.Shards
	}
	if stats.Verified != want {
		t.Errorf("stats.Verified = %d, want %d (full sample)", stats.Verified, want)
	}
	for ji, res := range results {
		if got := res.Report.String(); got != standalone(t, res.Job) {
			t.Errorf("job %d differs under verification:\n%s", ji, got)
		}
	}
}

// runShard collects the loop records of one assigned shard, in the
// order an honest worker streams them.
func runShard(a *cluster.Assign) ([]*experiments.LoopPartial, error) {
	var loops []*experiments.LoopPartial
	err := experiments.RunShardStream(a.Experiment, experiments.Config{Scale: a.Scale, Seed: a.Seed, Workers: 1},
		parallel.Shard{Index: a.Shard, Count: a.Shards}, func(lp *experiments.LoopPartial) error {
			loops = append(loops, lp)
			return nil
		})
	return loops, err
}

// corruptOnceServe is a worker that silently corrupts the first shard
// result with anything in it — it blanks one trial's emissions — and
// behaves honestly afterwards (a shard whose slice of the trial space
// is empty has nothing to corrupt and is passed through). Without
// verification this would poison the report; with it, the re-run must
// expose the divergence as a hard fault. corrupted reports whether the
// sabotage happened.
func corruptOnceServe(c cluster.Conn, corrupted *bool) {
	if err := cluster.Handshake(c, "corrupt", ""); err != nil {
		return
	}
	for {
		m, err := c.Recv()
		if err != nil {
			return
		}
		switch a := m.(type) {
		case *cluster.Stop:
			return
		case *cluster.Assign:
			loops, err := runShard(a)
			if err != nil {
				c.Send(&cluster.ShardError{Job: a.Job, Shard: a.Shard, Msg: err.Error()})
				continue
			}
			if !*corrupted {
			corrupt:
				for _, lp := range loops {
					for ti := range lp.Trials {
						tp := &lp.Trials[ti]
						if len(tp.Accs) > 0 || len(tp.Hists) > 0 || len(tp.Series) > 0 {
							lp.Trials[ti] = experiments.TrialPartial{}
							*corrupted = true
							break corrupt
						}
					}
				}
			}
			for _, lp := range loops {
				if err := c.Send(&cluster.LoopResult{Job: a.Job, Shard: a.Shard, Loop: lp}); err != nil {
					return
				}
			}
			if err := c.Send(&cluster.ShardDone{Job: a.Job, Shard: a.Shard}); err != nil {
				return
			}
		}
	}
}

// TestVerificationDetectsCorruptPartial is the acceptance test of the
// verification mode: a worker that corrupts one shard result must be
// caught by the byte-compare of the re-executed shard, aborting the
// campaign with a *cluster.VerifyError instead of publishing a report
// built from the corrupt partial.
func TestVerificationDetectsCorruptPartial(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	jobs := []Job{{Experiment: "fig2-2", Scale: 0.1, Seed: 42, Shards: 2}}
	corrupted := false
	tr := cluster.NewInProcess(1, func(i int, c cluster.Conn) {
		corruptOnceServe(c, &corrupted)
	})
	_, _, err := Run(tr, jobs, Options{ShardWorkers: 1, Retries: 3, Verify: 1})
	if !corrupted {
		t.Fatal("fault injection never fired: no shard had a non-empty trial to corrupt")
	}
	if err == nil {
		t.Fatal("campaign with a corrupt worker and full verification succeeded")
	}
	var ve *cluster.VerifyError
	if !errors.As(err, &ve) {
		t.Fatalf("error %v is not a VerifyError", err)
	}
	if ve.Experiment != "fig2-2" || ve.Job != 0 {
		t.Errorf("fault names job %d (%s), want job 0 (fig2-2)", ve.Job, ve.Experiment)
	}
	if !strings.Contains(err.Error(), "verification failed") {
		t.Errorf("error %q does not describe the verification failure", err)
	}
}

// TestVerifySampleDeterministicAndNonEmpty pins the sampling policy
// behind Options.Verify (cluster.VerifySample): pure function of (job,
// index, fraction), at least one shard whenever the fraction is
// positive, everything at 1, nothing at 0.
func TestVerifySampleDeterministicAndNonEmpty(t *testing.T) {
	j := Job{Experiment: "fig3-1", Scale: 0.2, Seed: 42, Shards: 12}
	a := cluster.VerifySample(j, 1, 0.25)
	b := cluster.VerifySample(j, 1, 0.25)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Errorf("sample not deterministic: %v vs %v", a, b)
	}
	if len(a) == 0 {
		t.Errorf("positive fraction sampled nothing")
	}
	for _, k := range a {
		if k < 0 || k >= j.Shards {
			t.Errorf("sample %v contains out-of-range shard %d", a, k)
		}
	}
	if got := cluster.VerifySample(j, 1, 1); len(got) != j.Shards {
		t.Errorf("fraction 1 sampled %d of %d shards", len(got), j.Shards)
	}
	if got := cluster.VerifySample(j, 1, 0); got != nil {
		t.Errorf("fraction 0 sampled %v", got)
	}
	if got := cluster.VerifySample(Job{Experiment: "x", Seed: 1, Shards: 3}, 0, 0.01); len(got) != 1 {
		t.Errorf("tiny fraction over 3 shards sampled %v, want exactly one forced pick", got)
	}
	// Different jobs draw different samples (decorrelation smoke check).
	other := cluster.VerifySample(Job{Experiment: "fig3-1", Scale: 0.2, Seed: 43, Shards: 12}, 1, 0.25)
	if fmt.Sprint(a) == fmt.Sprint(other) && len(a) == len(other) {
		// Identical small samples can collide; only flag the pathological
		// full match of every index at a larger fraction.
		big := cluster.VerifySample(j, 2, 0.5)
		bigOther := cluster.VerifySample(Job{Experiment: "fig3-1", Scale: 0.2, Seed: 43, Shards: 12}, 2, 0.5)
		if fmt.Sprint(big) == fmt.Sprint(bigOther) {
			t.Logf("note: seed-42 and seed-43 samples coincide (%v); not failing, but suspicious", big)
		}
	}
}

// TestRunValidatesJobs covers the campaign-level input checks.
func TestRunValidatesJobs(t *testing.T) {
	tr := cluster.NewInProcess(0, nil)
	if _, _, err := Run(tr, nil, Options{}); err == nil {
		t.Error("empty campaign accepted")
	}
	if _, _, err := Run(tr, []Job{{Experiment: "no-such", Shards: 2}}, Options{}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Errorf("unknown experiment accepted: %v", err)
	}
	if _, _, err := Run(tr, []Job{{Experiment: "fig2-2", Scale: 0.1}}, Options{}); err == nil || !strings.Contains(err.Error(), "no shard count") {
		t.Errorf("zero shard count accepted: %v", err)
	}
	if _, _, err := Run(tr, []Job{{Experiment: "fig2-2", Shards: 1}}, Options{Verify: 1.5}); err == nil || !strings.Contains(err.Error(), "verification fraction") {
		t.Errorf("out-of-range verification fraction accepted: %v", err)
	}
}
