package cluster

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// startTransport builds one of the two transports with the given
// worker count for the experiment runs in these tests. With killFirst,
// worker 0 dies abruptly on its first assignment (the shard is assigned
// and never answered), and no other worker sends its hello before that
// assignment is out: otherwise a fast experiment can finish on the
// other workers before the killer joins, and the kill never happens.
func startTransport(t *testing.T, kind string, workers int, killFirst bool) Transport {
	t.Helper()
	killed := make(chan struct{})
	if !killFirst {
		close(killed)
	}
	serve := func(i int, c Conn) {
		so := ServeOptions{Name: fmt.Sprintf("w%d", i), Workers: 1}
		if killFirst && i == 0 {
			so.OnAssign = func(Assign) error {
				close(killed)
				return errors.New("injected worker death")
			}
		}
		Serve(c, so)
	}
	switch kind {
	case "inproc":
		return NewInProcess(workers, func(i int, c Conn) {
			if i > 0 {
				<-killed
			}
			serve(i, c)
		})
	case "tcp":
		lt, err := ListenTCP("127.0.0.1:0")
		if err != nil {
			t.Fatalf("listen: %v", err)
		}
		for i := 0; i < workers; i++ {
			go func(i int) {
				if i > 0 {
					<-killed
				}
				c, err := DialTCP(lt.Addr())
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

// runOne runs a one-job Run and returns the job's report.
func runOne(tr Transport, j Job, o Options) (*experiments.Report, RunStats, error) {
	res, stats, err := Run(tr, []Job{j}, o)
	if err != nil {
		return nil, stats, err
	}
	return res[0].Report, stats, nil
}

// recvAssign reads a hand-rolled worker's conn up to its next
// assignment, skipping the warm-up Prepare every worker is sent and
// answering heartbeats on the way.
func recvAssign(c Conn) (*Assign, error) {
	for {
		m, err := c.Recv()
		if err != nil {
			return nil, err
		}
		switch m := m.(type) {
		case *Assign:
			return m, nil
		case *Ping:
			c.Send(&Pong{Seq: m.Seq})
		case *Prepare:
		default:
			return nil, fmt.Errorf("got %T, want an assignment", m)
		}
	}
}

func clusterRun(t *testing.T, kind, id string, workers, shards int, killFirst bool) (*experiments.Report, RunStats) {
	t.Helper()
	tr := startTransport(t, kind, workers, killFirst)
	rep, stats, err := runOne(tr, Job{Experiment: id, Seed: 42, Scale: 0.1, Shards: shards}, Options{
		ShardWorkers: 1,
		Retries:      3,
	})
	if err != nil {
		t.Fatalf("cluster.Run(%s, %s, workers=%d, shards=%d, kill=%v): %v", kind, id, workers, shards, killFirst, err)
	}
	return rep, stats
}

// TestRunRefusesShardsAboveCap: a job asking for more than MaxShards
// shards is refused at admission, before the coordinator sizes any
// per-shard state and before any worker receives an assignment.
func TestRunRefusesShardsAboveCap(t *testing.T) {
	var assigned atomic.Bool
	served := make(chan struct{})
	tr := NewInProcess(1, func(i int, c Conn) {
		defer close(served)
		Serve(c, ServeOptions{Name: "w", Workers: 1, OnAssign: func(Assign) error {
			assigned.Store(true)
			return errors.New("assignment received")
		}})
	})
	_, _, err := runOne(tr, Job{Experiment: "fig4-6", Seed: 42, Scale: 0.1, Shards: MaxShards + 1}, Options{})
	tr.Close()
	<-served
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("above the cap of %d", MaxShards)) {
		t.Errorf("error %v, want the shard cap refusal", err)
	}
	if assigned.Load() {
		t.Error("a worker received an assignment of the oversized job")
	}
	if _, _, err := runOne(NewInProcess(0, nil), Job{Experiment: "fig4-6", Seed: 42, Scale: 0.1, Shards: MaxShards}, Options{}); err == nil || strings.Contains(err.Error(), "above the cap") {
		t.Errorf("a job of exactly MaxShards shards: error %v, want only the stall of an empty fleet", err)
	}
}

// TestWorkerErrorExhaustsRetryBudget drives a shard that fails
// deterministically (its worker answers every assignment with a
// ShardError) into the retry budget and expects a clean abort carrying
// the worker's error.
func TestWorkerErrorExhaustsRetryBudget(t *testing.T) {
	tr := NewInProcess(1, func(i int, c Conn) {
		if err := Handshake(c, "failing", ""); err != nil {
			return
		}
		for {
			a, err := recvAssign(c)
			if err != nil || c.Send(&ShardError{Job: a.Job, Shard: a.Shard, Msg: "injected shard failure"}) != nil {
				return
			}
		}
	})
	_, _, err := runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 2}, Options{
		Retries: 1,
	})
	if err == nil {
		t.Fatal("run whose every shard fails succeeded")
	}
	if !strings.Contains(err.Error(), "injected shard failure") || !strings.Contains(err.Error(), "failed 2 times") {
		t.Errorf("error %q does not describe the exhausted retry budget", err)
	}
}

// TestAllWorkersGoneAborts: with a generous retry budget but no workers
// left (and none able to arrive), the coordinator must abort rather
// than wait forever.
func TestAllWorkersGoneAborts(t *testing.T) {
	tr := NewInProcess(1, func(i int, c Conn) {
		so := ServeOptions{Name: "dying", Workers: 1}
		so.OnAssign = func(Assign) error { return errors.New("always dies") }
		Serve(c, so)
	})
	_, _, err := runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 2}, Options{
		Retries: 100,
	})
	if err == nil {
		t.Fatal("run with no surviving workers succeeded")
	}
	if !strings.Contains(err.Error(), "all workers gone") && !strings.Contains(err.Error(), "shards incomplete") {
		t.Errorf("error %q does not describe the stall", err)
	}
}

// TestProtocolViolatorDroppedRunCompletes: a worker answering with the
// wrong shard id is dropped, its shard is salvaged, and the run
// completes byte-identically on the remaining worker. The honest
// worker joins only once the liar's connection is gone, so no steal
// can cover the liar's shard first: the requeue is certain.
func TestProtocolViolatorDroppedRunCompletes(t *testing.T) {
	exp, _ := experiments.ByID("fig2-2")
	base := exp.Run(experiments.Config{Scale: 0.1, Seed: 42, Workers: 1}).String()
	dropped := make(chan struct{})
	tr := NewInProcess(2, func(i int, c Conn) {
		if i == 0 {
			defer close(dropped)
			// Liar: claims completion of a shard it was never assigned.
			Handshake(c, "liar", "")
			if a, err := recvAssign(c); err == nil {
				c.Send(&ShardDone{Shard: a.Shard + 1})
			}
			for {
				if _, err := c.Recv(); err != nil {
					return
				}
			}
		}
		<-dropped
		Serve(c, ServeOptions{Name: "honest", Workers: 1})
	})
	rep, stats, err := runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 3}, Options{
		Retries: 3,
	})
	if err != nil {
		t.Fatalf("run with a protocol violator: %v", err)
	}
	if got := rep.String(); got != base {
		t.Errorf("report differs after dropping the violator:\n%s\nvs\n%s", base, got)
	}
	if stats.Requeued < 1 {
		t.Errorf("violator's shard not requeued (Requeued = %d)", stats.Requeued)
	}
}

// TestRunValidatesOptions covers the coordinator's own input checks,
// all made before any worker is contacted.
func TestRunValidatesOptions(t *testing.T) {
	tr := NewInProcess(0, nil)
	good := Job{Experiment: "fig2-2", Shards: 1}
	for _, c := range []struct {
		name string
		jobs []Job
		o    Options
		want string
	}{
		{"no jobs", nil, Options{}, "no jobs"},
		{"empty experiment", []Job{{Shards: 1}}, Options{}, "unknown experiment"},
		{"unknown experiment", []Job{good, {Experiment: "no-such", Shards: 2}}, Options{}, "job 1 names unknown experiment"},
		{"zero shards", []Job{{Experiment: "fig2-2"}}, Options{}, "no shard count"},
		{"verify above 1", []Job{good}, Options{Verify: 1.5}, "verification fraction"},
		{"verify NaN", []Job{good}, Options{Verify: math.NaN()}, "verification fraction"},
	} {
		if _, _, err := Run(tr, c.jobs, c.o); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %v, want mention of %q", c.name, err, c.want)
		}
	}
}

// TestSpeculativeCopyCoversDyingWorker: once a straggling shard has
// been stolen, the original holder's death must not charge the failure
// budget — the live copy completes the shard even with -retries 0. The
// thief first completes the other shard, so the job has a median
// shard time for the silent holder to overrun. The hello/assign/steal/
// death order is forced by channels, so the scenario is exact, not
// probabilistic.
func TestSpeculativeCopyCoversDyingWorker(t *testing.T) {
	exp, _ := experiments.ByID("fig2-2")
	base := exp.Run(experiments.Config{Scale: 0.1, Seed: 42, Workers: 1}).String()
	w0assigned := make(chan struct{})
	stolen := make(chan struct{})
	tr := NewInProcess(2, func(i int, c Conn) {
		if i == 0 {
			// Takes shard 0, then dies — but only after worker 1 has
			// stolen a copy of it.
			Handshake(c, "doomed", "")
			if a, err := recvAssign(c); err != nil || a.Shard != 0 {
				t.Errorf("doomed worker: assignment %+v, %v; want shard 0", a, err)
				return
			}
			close(w0assigned)
			<-stolen
			return // connection drops mid-shard
		}
		// Joins only after shard 0 is held: it runs shard 1, and its
		// next assignment is necessarily a stolen copy of shard 0.
		<-w0assigned
		so := ServeOptions{Name: "thief", Workers: 1}
		so.OnAssign = func(a Assign) error {
			if a.Shard == 0 {
				close(stolen)
			}
			return nil
		}
		Serve(c, so)
	})
	rep, stats, err := runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 2}, Options{
		Retries: 0, // any charged failure would abort
	})
	if err != nil {
		t.Fatalf("run failed although a live copy covered the death: %v", err)
	}
	if got := rep.String(); got != base {
		t.Errorf("report differs:\n%s\nvs\n%s", base, got)
	}
	if stats.Stolen < 1 {
		t.Errorf("stats.Stolen = %d, want ≥ 1", stats.Stolen)
	}
	if stats.Requeued != 0 {
		t.Errorf("stats.Requeued = %d, want 0 (death was covered by the copy)", stats.Requeued)
	}
}

// TestHungStragglerCutOffAfterDrainTimeout: a worker that hangs forever
// on a shard another worker already completed must not block the run —
// the drain deadline cuts it off and Run returns the merged report. The
// other worker first completes shard 1, so the hung holder of shard 0
// crosses the straggler threshold and is stolen from.
func TestHungStragglerCutOffAfterDrainTimeout(t *testing.T) {
	exp, _ := experiments.ByID("fig2-2")
	base := exp.Run(experiments.Config{Scale: 0.1, Seed: 42, Workers: 1}).String()
	w0assigned := make(chan struct{})
	hang := make(chan struct{})
	defer close(hang)
	tr := NewInProcess(2, func(i int, c Conn) {
		if i == 0 {
			Handshake(c, "hung", "")
			if _, err := recvAssign(c); err != nil {
				return
			}
			close(w0assigned)
			<-hang // never answers, never dies
			return
		}
		<-w0assigned
		Serve(c, ServeOptions{Name: "worker", Workers: 1})
	})
	done := make(chan struct{})
	var rep *experiments.Report
	var runErr error
	go func() {
		defer close(done)
		rep, _, runErr = runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 2}, Options{
			Retries:      0,
			DrainTimeout: 200 * time.Millisecond,
		})
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("Run blocked on a hung straggler")
	}
	if runErr != nil {
		t.Fatalf("run failed: %v", runErr)
	}
	if got := rep.String(); got != base {
		t.Errorf("report differs:\n%s\nvs\n%s", base, got)
	}
}

// TestStragglerStolenLoserDiscarded: worker B holds shard 0 and
// computes nothing; worker A completes shard 1, steals shard 0 once B's
// copy has run past the straggler threshold, and completes it too. The
// report goes out on A's copy; B answers only after that, and its
// result for the completed shard is discarded and charges nothing. Run
// returns as soon as B answers, with the drain timeout an hour away.
func TestStragglerStolenLoserDiscarded(t *testing.T) {
	exp, _ := experiments.ByID("fig2-2")
	base := exp.Run(experiments.Config{Scale: 0.1, Seed: 42, Workers: 1}).String()
	bHolds := make(chan struct{})
	delivered := make(chan struct{})
	tr := NewInProcess(2, func(i int, c Conn) {
		if i == 1 {
			// Joins only after B holds shard 0, so it runs shard 1.
			<-bHolds
			Serve(c, ServeOptions{Name: "A", Workers: 1})
			return
		}
		Handshake(c, "B", "")
		a, err := recvAssign(c)
		if err != nil || a.Shard != 0 {
			t.Errorf("B: assignment %+v, %v; want shard 0", a, err)
			return
		}
		close(bHolds)
		quit := make(chan struct{})
		defer close(quit)
		go func() {
			select {
			case <-delivered:
				c.Send(&ShardDone{Job: a.Job, Shard: a.Shard})
			case <-quit:
			}
		}()
		for {
			m, err := c.Recv()
			if err != nil {
				return
			}
			switch m := m.(type) {
			case *Ping:
				c.Send(&Pong{Seq: m.Seq})
			case *Stop:
				return
			}
		}
	})
	done := make(chan struct{})
	var rep *experiments.Report
	var stats RunStats
	var err error
	go func() {
		defer close(done)
		rep, stats, err = runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 2}, Options{
			Retries:      0, // any charged failure would abort
			DrainTimeout: time.Hour,
			Emit: func(int, Job, *experiments.Report) error {
				close(delivered)
				return nil
			},
		})
	}()
	select {
	case <-done:
	case <-time.After(time.Minute):
		t.Fatal("Run did not return once the losing copy answered")
	}
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if got := rep.String(); got != base {
		t.Errorf("report differs:\n%s\nvs\n%s", base, got)
	}
	if stats.Stolen != 1 || stats.Requeued != 0 || stats.Discarded != 1 {
		t.Errorf("stolen=%d requeued=%d discarded=%d, want 1/0/1", stats.Stolen, stats.Requeued, stats.Discarded)
	}
}

// TestHungVerifierSpeculativelyCovered: a worker that receives a
// verification re-run and hangs forever must not stall the campaign —
// the re-run is speculatively duplicated to another worker (the verify
// analogue of stealing) and the hung straggler is cut off at the drain
// deadline. The hello/assign/verify-dispatch order is forced by
// channels, so the scenario is exact.
func TestHungVerifierSpeculativelyCovered(t *testing.T) {
	exp, _ := experiments.ByID("fig2-2")
	base := exp.Run(experiments.Config{Scale: 0.1, Seed: 42, Workers: 1}).String()
	w0assigned := make(chan struct{})
	w1helloed := make(chan struct{})
	hang := make(chan struct{})
	defer close(hang)
	tr := NewInProcess(2, func(i int, c Conn) {
		if i == 1 {
			// Joins only after w0 holds the only fresh shard; its first
			// assignment is therefore the verification re-run (fresh
			// queue empty, stealing disabled), which it never answers.
			<-w0assigned
			if err := Handshake(c, "hung-verifier", ""); err != nil {
				return
			}
			close(w1helloed)
			if _, err := recvAssign(c); err != nil {
				return
			}
			<-hang
			return
		}
		so := ServeOptions{Name: "honest", Workers: 1}
		fired := false
		so.OnAssign = func(Assign) error {
			if !fired {
				fired = true
				close(w0assigned)
				// Hold the shard until the hung verifier is enrolled, so
				// its hello is enqueued before this shard's completion.
				<-w1helloed
			}
			return nil
		}
		Serve(c, so)
	})
	rep, stats, err := runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 1}, Options{
		ShardWorkers: 1,
		Retries:      0, // any charged failure would abort
		NoSteal:      true,
		Verify:       1,
		DrainTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatalf("campaign with a hung verifier: %v", err)
	}
	if got := rep.String(); got != base {
		t.Errorf("report differs:\n%s\nvs\n%s", base, got)
	}
	if stats.Verified != 1 {
		t.Errorf("stats.Verified = %d, want 1", stats.Verified)
	}
}

// failingTransport is a Transport whose Accept fails at once, as a
// listener whose socket broke would.
type failingTransport struct{}

func (failingTransport) Accept() (Conn, error) {
	return nil, errors.New("accept: injected transport failure")
}
func (failingTransport) Close() error { return nil }

// TestAcceptFailureSurfacesInStallError: when the transport cannot
// produce workers at all, the abort error must carry the transport's
// failure, not just the generic stall.
func TestAcceptFailureSurfacesInStallError(t *testing.T) {
	_, _, err := runOne(failingTransport{}, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 1}, Options{})
	if err == nil {
		t.Fatal("run with a failing transport succeeded")
	}
	if !strings.Contains(err.Error(), "injected transport failure") {
		t.Errorf("stall error %q does not surface the accept failure", err)
	}
}
