package cluster

import (
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
)

// script drives a scheduler by hand on a virtual clock: a test connects
// workers, speaks for them, and moves time forward. Every message the
// scheduler sends lands in its worker's inbox, except pings, which a
// worker answers at once (the real worker's reader goroutine answers
// them even mid-shard); merges wait for merge.
type script struct {
	t      *testing.T
	s      *scheduler
	now    time.Time
	inbox  [][]Message
	closed []bool
	merges []effect
}

func newScript(t *testing.T, o Options, jobs ...Job) *script {
	t.Helper()
	c := &script{t: t, now: time.Unix(1_000_000, 0)}
	s, err := newScheduler(jobs, o, c.now)
	if err != nil {
		t.Fatalf("newScheduler: %v", err)
	}
	c.s = s
	return c
}

// route takes the effects of the last input.
func (c *script) route() {
	var pongs []effect
	out := c.s.out
	c.s.out = nil
	for _, e := range out {
		switch {
		case e.parts != nil:
			c.merges = append(c.merges, e)
		case e.msg == nil:
			c.closed[e.worker] = true
		default:
			if p, ok := e.msg.(*Ping); ok {
				pongs = append(pongs, effect{worker: e.worker, msg: &Pong{Seq: p.Seq}})
				continue
			}
			c.inbox[e.worker] = append(c.inbox[e.worker], e.msg)
		}
	}
	for _, p := range pongs {
		c.recv(p.worker, p.msg)
	}
}

// connect opens a connection that has not said hello yet.
func (c *script) connect() int {
	id := c.s.accept(c.now, fmt.Sprint("nonce", len(c.inbox)))
	c.inbox = append(c.inbox, nil)
	c.closed = append(c.closed, false)
	c.route()
	return id
}

// hello answers connection id's challenge as worker name.
func (c *script) hello(id int, name string) {
	c.recv(id, &Hello{Version: ProtoVersion, Name: name, MAC: helloMAC(c.s.o.Token, fmt.Sprint("nonce", id), name)})
}

// join connects a worker and completes its handshake.
func (c *script) join(name string) int {
	id := c.connect()
	c.hello(id, name)
	return id
}

func (c *script) recv(id int, m Message) {
	c.s.recv(c.now, id, m)
	c.route()
}

// assignment reads worker id's inbox up to its next assignment.
func (c *script) assignment(id int) *Assign {
	c.t.Helper()
	for len(c.inbox[id]) > 0 {
		m := c.inbox[id][0]
		c.inbox[id] = c.inbox[id][1:]
		if a, ok := m.(*Assign); ok {
			return a
		}
	}
	c.t.Fatalf("worker %d holds no assignment", id)
	return nil
}

// complete streams a's real loop partials from worker id, then its done.
func (c *script) complete(id int, a *Assign) {
	c.t.Helper()
	err := experiments.RunShardStream(a.Experiment, experiments.Config{Scale: a.Scale, Seed: a.Seed, Workers: 1},
		parallel.Shard{Index: a.Shard, Count: a.Shards}, func(lp *experiments.LoopPartial) error {
			c.recv(id, &LoopResult{Job: a.Job, Shard: a.Shard, Loop: lp})
			return nil
		})
	if err != nil {
		c.t.Fatalf("running %s shard %d/%d: %v", a.Experiment, a.Shard, a.Shards, err)
	}
	c.recv(id, &ShardDone{Job: a.Job, Shard: a.Shard})
}

// merge finishes every merge the scheduler has started.
func (c *script) merge() {
	for len(c.merges) > 0 {
		e := c.merges[0]
		c.merges = c.merges[1:]
		j := c.s.states[e.job].job
		rep, err := experiments.MergeShards(j.Experiment, experiments.Config{Scale: j.Scale, Seed: j.Seed}, e.parts)
		c.s.merged(c.now, e.job, rep, err)
		c.route()
	}
}

// advance moves the clock d forward, waking the scheduler at every
// deadline it asks for on the way.
func (c *script) advance(d time.Duration) {
	c.t.Helper()
	end := c.now.Add(d)
	for n := 0; ; n++ {
		at := c.s.next()
		if at.IsZero() || at.After(end) {
			break
		}
		if n > 10000 {
			c.t.Fatalf("the scheduler keeps asking to be woken at %v", at.Sub(c.now))
		}
		if at.After(c.now) {
			c.now = at
		}
		c.s.wake(c.now)
		c.route()
	}
	c.now = end
}

var fig22 = Job{Experiment: "fig2-2", Seed: 42, Scale: 0.1}

// TestHungStragglerCutOffAfterDrainTimeout: a worker that hangs forever
// (still answering pings) on a shard another worker already completed
// must not block the run — the drain deadline cuts it off and the run
// ends with the merged report. The other worker first completes shard
// 1, so the hung holder of shard 0 crosses the straggler threshold and
// is stolen from.
func TestHungStragglerCutOffAfterDrainTimeout(t *testing.T) {
	base := referenceReport(t, "fig2-2", 0.1, 42)
	job := fig22
	job.Shards = 2
	c := newScript(t, Options{Retries: 0}, job)
	hung := c.join("hung")
	if a := c.assignment(hung); a.Shard != 0 {
		t.Fatalf("hung worker got shard %d, want 0", a.Shard)
	}
	w := c.join("worker")
	a := c.assignment(w)
	c.advance(time.Second)
	c.complete(w, a)
	// The hung copy crosses 2× the 1 s median at 2 s.
	c.advance(1500 * time.Millisecond)
	a = c.assignment(w)
	if a.Shard != 0 || c.s.stats.Stolen != 1 {
		t.Fatalf("after the threshold: worker got shard %d, stolen %d; want a copy of shard 0", a.Shard, c.s.stats.Stolen)
	}
	c.advance(time.Second)
	c.complete(w, a)
	c.merge()
	if c.s.over() {
		t.Fatal("run over while the hung worker still holds a shard, before the drain cut-off")
	}
	c.advance(drainTimeout)
	if !c.s.over() || !c.closed[hung] {
		t.Fatal("run blocked on a hung straggler past the drain cut-off")
	}
	if c.s.err != nil {
		t.Fatalf("run failed: %v", c.s.err)
	}
	if got := c.s.results[0].Report.String(); got != base {
		t.Errorf("report differs:\n%s\nvs\n%s", base, got)
	}
}

// TestHungVerifierSpeculativelyCovered: a worker that receives a
// verification re-run and hangs forever must not stall the campaign —
// the re-run is speculatively duplicated to another worker (the verify
// analogue of stealing) and the hung straggler is cut off at the drain
// deadline.
func TestHungVerifierSpeculativelyCovered(t *testing.T) {
	base := referenceReport(t, "fig2-2", 0.1, 42)
	job := fig22
	job.Shards = 1
	c := newScript(t, Options{ShardWorkers: 1, Retries: 0, Verify: 1}, job)
	honest := c.join("honest")
	a := c.assignment(honest)
	// Joins while the only fresh shard is held: it parks, and its first
	// assignment is the verification re-run, which it never answers.
	hv := c.join("hung-verifier")
	c.advance(time.Second)
	c.complete(honest, a)
	if v := c.assignment(hv); v.Shard != 0 {
		t.Fatalf("hung verifier got shard %d, want the re-run of shard 0", v.Shard)
	}
	c.merge()
	// The re-run crosses 2× the 1 s median 2 s after it went out.
	c.advance(2500 * time.Millisecond)
	a = c.assignment(honest)
	c.advance(time.Second)
	c.complete(honest, a)
	c.advance(drainTimeout)
	if !c.s.over() || c.s.err != nil {
		t.Fatalf("campaign with a hung verifier: over %v, err %v", c.s.over(), c.s.err)
	}
	if got := c.s.results[0].Report.String(); got != base {
		t.Errorf("report differs:\n%s\nvs\n%s", base, got)
	}
	if c.s.stats.Verified != 1 {
		t.Errorf("stats.Verified = %d, want 1", c.s.stats.Verified)
	}
}

// TestSecondHelloDropsWorkerAndSalvagesShard: a worker that says hello
// again mid-session broke the protocol; it is dropped and the shard it
// held goes to the next worker.
func TestSecondHelloDropsWorkerAndSalvagesShard(t *testing.T) {
	job := fig22
	job.Shards = 1
	c := newScript(t, Options{Retries: 1}, job)
	w := c.join("twice")
	c.assignment(w)
	c.hello(w, "twice")
	if !c.closed[w] || c.s.stats.Requeued != 1 {
		t.Fatalf("after a second hello: closed %v, requeued %d; want the worker dropped and its shard requeued", c.closed[w], c.s.stats.Requeued)
	}
	if a := c.assignment(c.join("next")); a.Shard != 0 {
		t.Errorf("next worker got shard %d, want the salvaged shard 0", a.Shard)
	}
}

// TestUnexpectedMessageIsViolation: a message type a worker never sends
// is a protocol violation, handled like any other: drop and salvage.
func TestUnexpectedMessageIsViolation(t *testing.T) {
	job := fig22
	job.Shards = 1
	c := newScript(t, Options{Retries: 1}, job)
	w := c.join("confused")
	a := c.assignment(w)
	c.recv(w, a)
	if !c.closed[w] || c.s.stats.Requeued != 1 {
		t.Fatalf("after an unexpected %T: closed %v, requeued %d; want the worker dropped and its shard requeued", a, c.closed[w], c.s.stats.Requeued)
	}
}

// TestSilentConnectionReapedAsRejected: a connection that never says
// hello is dropped at the heartbeat cutoff and counted as refused in
// the handshake, not as a hung worker.
func TestSilentConnectionReapedAsRejected(t *testing.T) {
	job := fig22
	job.Shards = 1
	c := newScript(t, Options{HeartbeatInterval: time.Second, HeartbeatMisses: 3}, job)
	id := c.connect()
	c.advance(3 * time.Second)
	if c.closed[id] {
		t.Fatal("connection dropped within the cutoff")
	}
	c.advance(time.Second)
	if !c.closed[id] || c.s.stats.Rejected != 1 || c.s.stats.Hung != 0 {
		t.Errorf("after the cutoff: closed %v, rejected %d, hung %d; want dropped, 1, 0", c.closed[id], c.s.stats.Rejected, c.s.stats.Hung)
	}
}

// TestControlRefusals: the Control's refusals that depend on the
// run's progress. A submit once all work is done could never dispatch;
// a job whose merge has started can no longer be cancelled; and a
// cancel must name an existing job.
func TestControlRefusals(t *testing.T) {
	job := fig22
	job.Shards = 1
	c := newScript(t, Options{}, job)
	if err := c.s.cancel(c.now, 1); err == nil || !strings.Contains(err.Error(), "no job 1") {
		t.Errorf("cancel past the last job: %v, want no job 1", err)
	}
	w := c.join("w")
	c.complete(w, c.assignment(w))
	if len(c.merges) != 1 {
		t.Fatalf("%d merges started, want 1", len(c.merges))
	}
	if _, err := c.s.submit(c.now, job); err == nil || !strings.Contains(err.Error(), "campaign already draining") {
		t.Errorf("submit after all work is done: %v, want campaign already draining", err)
	}
	if err := c.s.cancel(c.now, 0); err == nil || !strings.Contains(err.Error(), "already completed") {
		t.Errorf("cancel while merging: %v, want already completed", err)
	}
}
