package cluster

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/experiments"
)

// chaosCoordPlan is the coordinator-side fault schedule the golden
// chaos matrix injects on every accepted connection's outbound frames:
// a mix of every fault kind, with the kill budget capped so the run
// converges well inside the retry budget.
func chaosCoordPlan(seed int64, conns, kills int) *FaultPlan {
	return &FaultPlan{
		Seed:           seed,
		Corrupt:        0.02,
		Drop:           0.02,
		Dup:            0.02,
		Delay:          0.15,
		DelayBy:        time.Millisecond,
		PartitionAfter: 25,
		Conns:          conns,
		MaxKills:       kills,
	}
}

// chaosServeTCP runs count workers against addr with reconnect enabled;
// worker 0's outbound frames additionally run under a corrupt-frame
// plan, so the coordinator's checksum path sees real corruption from a
// real worker. Returns a join function bounded by the workers'
// reconnect budgets.
func chaosServeTCP(addr string, count int) func() {
	wplan := &FaultPlan{Seed: 99, Corrupt: 0.05, MaxKills: 2}
	var wg sync.WaitGroup
	for i := 0; i < count; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			do := DialOptions{Attempts: 8, BaseDelay: 10 * time.Millisecond, MaxDelay: 100 * time.Millisecond}
			if i == 0 {
				do.Wrap = func(c Conn) Conn {
					InjectFaults(c, wplan.conn())
					return c
				}
			}
			// Errors are expected here: a worker whose final Stop was
			// eaten by a fault dials a closed listener until its budget
			// runs out. The coordinator's report is the arbiter.
			ServeTCP(addr, ServeOptions{Name: fmt.Sprintf("chaos-w%d", i), Workers: 1}, do)
		}(i)
	}
	return wg.Wait
}

// TestChaosReportsByteIdentical is the golden chaos matrix: for every
// registered experiment, a run whose transport injects drops, delays,
// duplicates, corruption, and partitions — healed by checksum-driven
// conn drops, shard requeue, and (on TCP) worker reconnect — must
// produce the byte-identical report of the clean single-process run.
// The clean legs of the same matrix are TestReportsIdenticalAcross-
// TransportsAndWorkers; this test is their adversarial complement.
func TestChaosReportsByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	const workers, shards = 3, 5
	for _, exp := range experiments.All() {
		exp := exp
		t.Run(exp.ID, func(t *testing.T) {
			t.Parallel()
			base := referenceReport(t, exp.ID, 0.1, 42)

			// Faults on both directions, partitions healed by reconnect.
			// The short heartbeat bounds how long a dropped frame's chain
			// break stays undetected.
			lt, err := ListenTCP("127.0.0.1:0")
			if err != nil {
				t.Fatalf("listen: %v", err)
			}
			join := chaosServeTCP(lt.Addr(), workers)
			job := Job{Experiment: exp.ID, Seed: 42, Scale: 0.1, Shards: shards}
			rep, stats, err := runOne(WithChaos(lt, chaosCoordPlan(7, 2, 3)), job, Options{
				ShardWorkers:      1,
				Retries:           30,
				HeartbeatInterval: 100 * time.Millisecond,
				HeartbeatMisses:   10,
			})
			if err != nil {
				t.Fatalf("chaotic tcp run: %v (stats %+v)", err, stats)
			}
			if got := rep.String(); got != base {
				t.Errorf("tcp report differs under chaos (stats %+v):\n--- clean ---\n%s\n--- chaotic ---\n%s", stats, base, got)
			}
			join()

			// In-process leg: worker 0's outbound frames, which carry the
			// loop results, run under a mixed plan. An in-process worker
			// cannot reconnect, so worker 0 serves alone until its
			// connection dies, and the others then absorb the requeued
			// shards; their unanswered challenges outlive its solo run
			// under the long heartbeat budget. Alone, it streams at least a
			// loop record and a done per shard, 11 frames with its hello,
			// so if no other fault has fired by the 11th the partition
			// does.
			wplan := &FaultPlan{
				Seed:           11,
				Corrupt:        0.05,
				Drop:           0.05,
				Dup:            0.05,
				Delay:          0.1,
				DelayBy:        time.Millisecond,
				PartitionAfter: 10,
				MaxKills:       1,
			}
			w0gone := make(chan struct{})
			inproc := NewInProcess(workers, func(i int, c Conn) {
				if i == 0 {
					defer close(w0gone)
					InjectFaults(c, wplan.conn())
				} else {
					<-w0gone
				}
				Serve(c, ServeOptions{Name: fmt.Sprintf("chaos-inproc-%d", i), Workers: 1})
			})
			rep, stats, err = runOne(inproc, job, Options{
				ShardWorkers:      1,
				Retries:           30,
				HeartbeatInterval: 100 * time.Millisecond,
				HeartbeatMisses:   600,
			})
			if err != nil {
				t.Fatalf("chaotic in-process run: %v (stats %+v)", err, stats)
			}
			if kills := wplan.kills.Load(); kills < 1 {
				t.Errorf("no fault killed worker 0's connection in process (stats %+v) — the leg proved nothing", stats)
			}
			if got := rep.String(); got != base {
				t.Errorf("in-process report differs under chaos (stats %+v):\n--- clean ---\n%s\n--- chaotic ---\n%s", stats, base, got)
			}
		})
	}
}

// TestChaosCampaignPartitionHealedByReconnect forces hard mid-campaign
// partitions on both initial worker connections and requires the
// campaign to finish byte-identically because the workers reconnect
// (fresh conns run clean under the plan's conn limit) and the
// coordinator requeues whatever the severed conns were holding.
func TestChaosCampaignPartitionHealedByReconnect(t *testing.T) {
	if testing.Short() {
		t.Skip("experiments are slow")
	}
	jobs := []Job{
		{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 4},
		{Experiment: "fig3-1", Seed: 7, Scale: 0.1, Shards: 3},
	}
	bases := make([]string, len(jobs))
	for ji, j := range jobs {
		bases[ji] = referenceReport(t, j.Experiment, j.Scale, j.Seed)
	}

	// The campaign's conns carry few frames (challenge, a handful of
	// assigns, stop), so the partition threshold sits right past the
	// handshake exemption to guarantee it actually fires.
	plan := &FaultPlan{Seed: 3, PartitionAfter: 4, Conns: 2, MaxKills: 2}
	lt, err := ListenTCP("127.0.0.1:0")
	if err != nil {
		t.Fatalf("listen: %v", err)
	}
	var dials atomic.Int32
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			ServeTCP(lt.Addr(), ServeOptions{Name: fmt.Sprintf("part-w%d", i), Workers: 1}, DialOptions{
				Attempts:  8,
				BaseDelay: 10 * time.Millisecond,
				MaxDelay:  100 * time.Millisecond,
				Wrap: func(c Conn) Conn {
					dials.Add(1)
					return c
				},
			})
		}(i)
	}
	defer wg.Wait()

	got := make([]string, len(jobs))
	_, stats, err := Run(WithChaos(lt, plan), jobs, Options{
		ShardWorkers:      1,
		Retries:           10,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   20,
		Emit: func(ji int, _ Job, rep *experiments.Report) error {
			got[ji] = rep.String()
			return nil
		},
	})
	if err != nil {
		t.Fatalf("partitioned campaign: %v (stats %+v)", err, stats)
	}
	for ji := range jobs {
		if got[ji] != bases[ji] {
			t.Errorf("job %d report differs after partitions (stats %+v):\n--- clean ---\n%s\n--- chaotic ---\n%s", ji, stats, bases[ji], got[ji])
		}
	}
	if kills := plan.kills.Load(); kills < 1 {
		t.Errorf("no partition actually fired (kills %d) — the test proved nothing", kills)
	}
	if d := dials.Load(); d <= 2 {
		t.Errorf("dials = %d, want > 2 (no worker ever reconnected)", d)
	}
}

// TestCorruptFrameDetectedAndSalvaged scripts the integrity failure
// end to end, deterministically. Worker 0 runs alone and owns both
// shards; its outbound frames are Hello(1), shard 0's Loop(2) and
// Done(3) — all inside the handshake exemption — and then shard 1's
// Loop as frame 4, the first faultable frame, which the Corrupt=1 plan
// flips. The coordinator must classify it as a checksum failure (typed
// stats.ErrChecksum → CorruptFrames), drop the peer, requeue shard 1,
// and finish byte-identically on worker 1, which only dials in after
// worker 0 dies.
func TestCorruptFrameDetectedAndSalvaged(t *testing.T) {
	base := referenceReport(t, "fig3-1", 0.1, 42)
	plan := &FaultPlan{Seed: 1, Corrupt: 1, MaxKills: 1}
	w0dead := make(chan struct{})
	w0err := make(chan error, 1)
	tr := NewInProcess(2, func(i int, c Conn) {
		if i == 0 {
			InjectFaults(c, plan.conn())
			w0err <- Serve(c, ServeOptions{Name: "corruptor", Workers: 1})
			close(w0dead)
			return
		}
		<-w0dead
		Serve(c, ServeOptions{Name: "honest", Workers: 1})
	})
	rep, stats, err := runOne(tr, Job{Experiment: "fig3-1", Seed: 42, Scale: 0.1, Shards: 2}, Options{
		ShardWorkers:      1,
		Retries:           2,
		HeartbeatInterval: -1, // no pings: worker 0's frame order is exact
	})
	if err != nil {
		t.Fatalf("run with a corrupting worker: %v (stats %+v)", err, stats)
	}
	if got := rep.String(); got != base {
		t.Errorf("report differs after corrupt frame (stats %+v):\n--- clean ---\n%s\n--- cluster ---\n%s", stats, base, got)
	}
	if stats.CorruptFrames < 1 {
		t.Errorf("stats.CorruptFrames = %d, want ≥ 1 (checksum failure was not classified)", stats.CorruptFrames)
	}
	if stats.Requeued < 1 {
		t.Errorf("stats.Requeued = %d, want ≥ 1 (corrupted shard was not salvaged)", stats.Requeued)
	}
	// The corruptor's own session ends with the coordinator hanging up.
	if werr := <-w0err; werr == nil {
		t.Error("corrupting worker finished cleanly; its conn should have been dropped")
	}
}

// TestUnauthenticatedWorkerRejected: with a token set on the
// coordinator, a worker holding the wrong token is refused with a typed
// rejection and counted, while the authenticated worker completes the
// run byte-identically. The authenticated worker says hello only once
// the intruder's session is over: otherwise the run can end before the
// intruder reads its rejection, and closing the transport hands it a
// closed pipe instead.
func TestUnauthenticatedWorkerRejected(t *testing.T) {
	base := referenceReport(t, "fig2-2", 0.1, 42)
	intruderErr := make(chan error, 1)
	intruderGone := make(chan struct{})
	tr := NewInProcess(2, func(i int, c Conn) {
		if i == 0 {
			defer close(intruderGone)
			intruderErr <- Serve(c, ServeOptions{Name: "intruder", Workers: 1, Token: "wrong"})
			return
		}
		<-intruderGone
		Serve(c, ServeOptions{Name: "trusted", Workers: 1, Token: "s3cret"})
	})
	rep, stats, err := runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 2}, Options{
		ShardWorkers: 1,
		Retries:      2,
		Token:        "s3cret",
	})
	if err != nil {
		t.Fatalf("run with an intruder: %v", err)
	}
	if got := rep.String(); got != base {
		t.Errorf("report differs:\n--- clean ---\n%s\n--- cluster ---\n%s", base, got)
	}
	if stats.Rejected != 1 {
		t.Errorf("stats.Rejected = %d, want 1", stats.Rejected)
	}
	if stats.Workers != 1 {
		t.Errorf("stats.Workers = %d, want 1 (only the trusted worker)", stats.Workers)
	}
	var rej *RejectedError
	if werr := <-intruderErr; !errors.As(werr, &rej) {
		t.Errorf("intruder's error = %v, want a *RejectedError", werr)
	}
}

// TestWedgedWorkerConvertedToRetry is the hung-worker regression test:
// a worker that accepts a shard and then goes silent — connection open,
// no frames, no pongs — must be reaped by the heartbeat budget and its
// shard re-dispatched, with the report unchanged. Before heartbeats,
// exactly this scenario stalled the coordinator until the drain
// deadline of a run that could never finish.
func TestWedgedWorkerConvertedToRetry(t *testing.T) {
	base := referenceReport(t, "fig2-2", 0.1, 42)
	assigned := make(chan struct{})
	unwedge := make(chan struct{})
	defer close(unwedge)
	tr := NewInProcess(2, func(i int, c Conn) {
		if i == 0 {
			// Wedged: handshakes, accepts its assignment, then consumes
			// frames forever without ever sending one.
			if err := Handshake(c, "wedged", ""); err != nil {
				return
			}
			for {
				m, err := c.Recv()
				if err != nil {
					return
				}
				if _, ok := m.(*Assign); ok {
					select {
					case <-assigned:
					default:
						close(assigned)
					}
				}
			}
		}
		<-assigned
		Serve(c, ServeOptions{Name: "healthy", Workers: 1})
	})
	// One shard: a job with no completed shard is never copied, so the
	// requeue, not a steal, must recover it.
	rep, stats, err := runOne(tr, Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1, Shards: 1}, Options{
		ShardWorkers:      1,
		Retries:           1,
		HeartbeatInterval: 25 * time.Millisecond,
		HeartbeatMisses:   8,
	})
	if err != nil {
		t.Fatalf("run with a wedged worker: %v (stats %+v)", err, stats)
	}
	if got := rep.String(); got != base {
		t.Errorf("report differs after wedged worker (stats %+v):\n--- clean ---\n%s\n--- cluster ---\n%s", stats, base, got)
	}
	if stats.Hung < 1 {
		t.Errorf("stats.Hung = %d, want ≥ 1 (the wedge was never classified)", stats.Hung)
	}
	if stats.Requeued < 1 {
		t.Errorf("stats.Requeued = %d, want ≥ 1 (the wedged shard was not re-dispatched)", stats.Requeued)
	}
}
