package cluster

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// gatedTransport delays worker arrival until gate is closed, so tests
// can mutate a running campaign while the scheduler is provably
// quiescent (no dispatch can race the mutation: there is nobody to
// dispatch to).
type gatedTransport struct {
	inner Transport
	gate  chan struct{}
}

func (g *gatedTransport) Accept() (Conn, error) {
	<-g.gate
	return g.inner.Accept()
}

func (g *gatedTransport) Close() error { return g.inner.Close() }

// waitSnapshot polls the control's snapshot feed until cond holds; the
// loop publishes after every event, so anything acknowledged through a
// mutation reply becomes visible promptly.
func waitSnapshot(t *testing.T, ctl *Control, what string, cond func(*Snapshot) bool) *Snapshot {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if s := ctl.Snapshot(); s != nil && cond(s) {
			return s
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("snapshot never showed %s (last: %+v)", what, ctl.Snapshot())
	return nil
}

// TestControlSubmitCancelLifecycle drives the full mutation surface
// against a live campaign: validation rejections, a successful submit
// and cancel while no worker has connected yet, then — after the fleet
// is released — completion with the cancelled job never emitted, and
// ErrNotRunning for every mutation after the end.
func TestControlSubmitCancelLifecycle(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	inner := NewInProcess(2, func(i int, c Conn) {
		Serve(c, ServeOptions{Name: fmt.Sprintf("w%d", i), Workers: 1})
	})
	gate := make(chan struct{})
	tr := &gatedTransport{inner: inner, gate: gate}
	ctl := NewControl()

	jobs := []Job{{Experiment: "fig2-2", Scale: 0.1, Seed: 42, Shards: 3}}
	type emit struct {
		ji  int
		exp string
		rep string
	}
	var emits []emit
	var stats RunStats
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, stats, runErr = Run(tr, jobs, Options{
			ShardWorkers: 1,
			Retries:      3,
			Control:      ctl,
			Emit: func(ji int, j Job, rep *experiments.Report) error {
				emits = append(emits, emit{ji, j.Experiment, rep.String()})
				return nil
			},
		})
	}()

	// Validation rejections answer through the loop without changing it.
	if _, err := ctl.Submit(Job{Experiment: "no-such", Shards: 2}); err == nil || !strings.Contains(err.Error(), "unknown experiment") {
		t.Fatalf("unknown experiment submit: %v", err)
	}
	if _, err := ctl.Submit(Job{Experiment: "fig2-2", Scale: 0.1, Seed: 7}); err == nil || !strings.Contains(err.Error(), "shard count") {
		t.Fatalf("zero-shard submit: %v", err)
	}
	if _, err := ctl.Submit(Job{Experiment: "fig2-2", Scale: 0.1, Seed: 7, Shards: MaxShards + 1}); err == nil || !strings.Contains(err.Error(), "above the cap") {
		t.Fatalf("oversized submit: %v", err)
	}
	if _, err := ctl.Submit(Job{Experiment: "fig2-2", Scale: math.Inf(1), Seed: 7, Shards: 2}); err == nil || !strings.Contains(err.Error(), "invalid scale +Inf") {
		t.Fatalf("non-finite scale submit: %v", err)
	}
	if err := ctl.Cancel(5); err == nil || !strings.Contains(err.Error(), "no job 5") {
		t.Fatalf("cancel of unknown job: %v", err)
	}

	// Real mutations: one job admitted, a second admitted then
	// withdrawn, all before any worker exists.
	ji, err := ctl.Submit(Job{Experiment: "fig3-1", Scale: 0.1, Seed: 42, Shards: 2})
	if err != nil || ji != 1 {
		t.Fatalf("submit = (%d, %v), want job 1", ji, err)
	}
	ji, err = ctl.Submit(Job{Experiment: "fig2-2", Scale: 0.1, Seed: 7, Shards: 2})
	if err != nil || ji != 2 {
		t.Fatalf("second submit = (%d, %v), want job 2", ji, err)
	}
	if err := ctl.Cancel(2); err != nil {
		t.Fatalf("cancel job 2: %v", err)
	}
	if err := ctl.Cancel(2); err == nil || !strings.Contains(err.Error(), "already cancelled") {
		t.Fatalf("double cancel: %v", err)
	}

	snap := waitSnapshot(t, ctl, "3 jobs with job 2 cancelled", func(s *Snapshot) bool {
		return len(s.Jobs) == 3 && s.Jobs[2].State == "cancelled"
	})
	if snap.Stats.Submitted != 2 || snap.Stats.Cancelled != 1 {
		t.Errorf("live stats submitted=%d cancelled=%d, want 2/1", snap.Stats.Submitted, snap.Stats.Cancelled)
	}
	if snap.Jobs[1].State != "queued" || snap.Jobs[1].Queued != 2 {
		t.Errorf("submitted job not queued in snapshot: %+v", snap.Jobs[1])
	}

	// Release the fleet; the campaign must now run jobs 0 and 1 to
	// completion and never emit the cancelled job 2.
	close(gate)
	<-done
	if runErr != nil {
		t.Fatalf("campaign: %v", runErr)
	}
	if len(emits) != 2 || emits[0].ji != 0 || emits[1].ji != 1 || emits[1].exp != "fig3-1" {
		t.Fatalf("emitted %+v, want jobs 0 and 1 in order", emits)
	}
	for _, e := range emits {
		var j Job
		if e.ji == 0 {
			j = jobs[0]
		} else {
			j = Job{Experiment: "fig3-1", Scale: 0.1, Seed: 42, Shards: 2}
		}
		want := referenceReport(t, j.Experiment, j.Scale, j.Seed)
		if e.rep != want {
			t.Errorf("job %d report differs from standalone run", e.ji)
		}
	}
	if stats.Submitted != 2 || stats.Cancelled != 1 {
		t.Errorf("final stats submitted=%d cancelled=%d, want 2/1", stats.Submitted, stats.Cancelled)
	}

	// The control is now a closed valve: Done fired, the final snapshot
	// is marked, and every further mutation fails fast.
	select {
	case <-ctl.Done():
	default:
		t.Error("Done() not closed after the campaign finished")
	}
	final := ctl.Snapshot()
	if final == nil || !final.Done {
		t.Errorf("final snapshot not marked done: %+v", final)
	}
	if final.Jobs[0].State != "done" || final.Jobs[1].State != "done" || final.Jobs[2].State != "cancelled" {
		t.Errorf("final job states %q %q %q, want done/done/cancelled",
			final.Jobs[0].State, final.Jobs[1].State, final.Jobs[2].State)
	}
	if _, err := ctl.Submit(Job{Experiment: "fig2-2", Scale: 0.1, Seed: 1, Shards: 1}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("submit after end: %v, want ErrNotRunning", err)
	}
	if err := ctl.Cancel(0); !errors.Is(err, ErrNotRunning) {
		t.Errorf("cancel after end: %v, want ErrNotRunning", err)
	}

	// A Control binds to exactly one campaign.
	if _, _, err := Run(NewInProcess(0, nil), jobs, Options{ShardWorkers: 1, Control: ctl}); err == nil || !strings.Contains(err.Error(), "already attached") {
		t.Errorf("control reuse: %v, want attach error", err)
	}
}

// TestControlUnattachedMutationsDoNotHang pins the failure mode of a
// control plane wired to a campaign that already exited (or never
// started): mutations must fail fast once finish ran, not block on the
// unserviced request channel.
func TestControlUnattachedMutationsDoNotHang(t *testing.T) {
	ctl := NewControl()
	ctl.finish()
	if _, err := ctl.Submit(Job{Experiment: "fig2-2", Shards: 1}); !errors.Is(err, ErrNotRunning) {
		t.Errorf("submit on finished control: %v", err)
	}
	if err := ctl.Cancel(0); !errors.Is(err, ErrNotRunning) {
		t.Errorf("cancel on finished control: %v", err)
	}
	if ctl.Snapshot() != nil {
		t.Error("unattached control has a snapshot")
	}
}

// loopTracker wraps a transport so that every loop partial the
// coordinator receives carries a finalizer; got and freed count, per
// job, the partials received and the partials collected.
type loopTracker struct {
	Transport
	got, freed []atomic.Int64
}

func (t *loopTracker) Accept() (Conn, error) {
	c, err := t.Transport.Accept()
	if err != nil {
		return nil, err
	}
	return &trackedConn{Conn: c, t: t}, nil
}

type trackedConn struct {
	Conn
	t *loopTracker
}

func (c *trackedConn) Recv() (Message, error) {
	m, err := c.Conn.Recv()
	if lr, ok := m.(*LoopResult); ok && lr.Job < len(c.t.got) {
		c.t.got[lr.Job].Add(1)
		freed := &c.t.freed[lr.Job]
		runtime.SetFinalizer(lr.Loop, func(*experiments.LoopPartial) { freed.Add(1) })
	}
	return m, err
}

// TestLongRunningCoordinatorReleasesFinishedJobs: a coordinator fed
// jobs through its Control must not keep the results of jobs it has
// delivered. Fifty jobs are submitted to one run; when the last one is
// emitted — the run still live — the report and every loop partial of
// each earlier submitted job must be collectable.
func TestLongRunningCoordinatorReleasesFinishedJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	const submitted = 50
	tracker := &loopTracker{
		Transport: NewInProcess(1, func(i int, c Conn) {
			Serve(c, ServeOptions{Name: "w", Workers: 1})
		}),
		got:   make([]atomic.Int64, submitted+1),
		freed: make([]atomic.Int64, submitted+1),
	}
	gate := make(chan struct{})
	ctl := NewControl()
	job := Job{Experiment: "fig2-2", Scale: 0.1, Seed: 42, Shards: 1}

	var reportsFreed atomic.Int64
	// released reports whether every earlier submitted job's report and
	// partials have been collected; checked from the last job's Emit.
	released := func() bool {
		if reportsFreed.Load() != submitted-1 {
			return false
		}
		for ji := 1; ji < submitted; ji++ {
			if n := tracker.got[ji].Load(); n == 0 || tracker.freed[ji].Load() != n {
				return false
			}
		}
		return true
	}
	var freedWhileLive bool
	var runErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, runErr = Run(&gatedTransport{inner: tracker, gate: gate}, []Job{job}, Options{
			ShardWorkers: 1,
			Control:      ctl,
			Emit: func(ji int, _ Job, rep *experiments.Report) error {
				if ji == 0 {
					return nil
				}
				runtime.SetFinalizer(rep, func(*experiments.Report) { reportsFreed.Add(1) })
				if ji < submitted {
					return nil
				}
				for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(5 * time.Millisecond) {
					runtime.GC()
					if freedWhileLive = released(); freedWhileLive {
						break
					}
				}
				return nil
			},
		})
	}()
	for k := 1; k <= submitted; k++ {
		j := job
		j.Seed = int64(k)
		if ji, err := ctl.Submit(j); err != nil || ji != k {
			t.Fatalf("submit %d = (%d, %v)", k, ji, err)
		}
	}
	close(gate)
	<-done
	if runErr != nil {
		t.Fatalf("run: %v", runErr)
	}
	if !freedWhileLive {
		var kept []int
		for ji := 1; ji < submitted; ji++ {
			if tracker.freed[ji].Load() != tracker.got[ji].Load() {
				kept = append(kept, ji)
			}
		}
		t.Errorf("after the last emit, %d of %d earlier reports were collected; jobs %v still hold loop partials",
			reportsFreed.Load(), submitted-1, kept)
	}
}
