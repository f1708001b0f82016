package cluster

import (
	"io"
	"strings"
	"testing"
	"time"
)

// Tests of each job's task ledger (jobState.tasks and pending), driven
// through the scheduler on the script's virtual clock. In the speculation
// tests one shard completes after 1 s, so its job's straggler threshold
// is 2 s.

// die drops worker id's connection as its reader would report it.
func (c *script) die(id int) {
	c.s.lost(c.now, id, io.EOF)
	c.route()
}

// assigns counts the assignments waiting in worker id's inbox.
func (c *script) assigns(id int) int {
	n := 0
	for _, m := range c.inbox[id] {
		if _, ok := m.(*Assign); ok {
			n++
		}
	}
	return n
}

// status is job 0's row of the snapshot at the script's clock.
func (c *script) status() JobStatus { return c.s.snapshot(c.now, false).Jobs[0] }

// wantStatus checks job 0's shard map and its queued, in-flight and
// completed counts.
func (c *script) wantStatus(states string, queued, inflight, completed int) {
	c.t.Helper()
	st := c.status()
	if st.ShardStates != states || st.Queued != queued || st.InFlight != inflight || st.Completed != completed {
		c.t.Fatalf("status map=%s queued=%d inflight=%d completed=%d, want map=%s queued=%d inflight=%d completed=%d",
			st.ShardStates, st.Queued, st.InFlight, st.Completed, states, queued, inflight, completed)
	}
}

// speculated sets up a 2-shard job whose shard 0 has two live copies:
// a's original, and b's copy, taken once a's had run past the threshold
// that b's 1 s shard 1 set.
func speculated(t *testing.T, o Options) (c *script, a, b int, orig, cp *Assign) {
	job := fig22
	job.Shards = 2
	c = newScript(t, o, job)
	a = c.join("a")
	orig = c.assignment(a)
	b = c.join("b")
	sb := c.assignment(b)
	c.advance(time.Second)
	c.complete(b, sb)
	c.advance(1500 * time.Millisecond)
	cp = c.assignment(b)
	if orig.Shard != 0 || cp.Shard != 0 || c.s.stats.Stolen != 1 {
		t.Fatalf("a holds shard %d, b copied shard %d, stolen %d; want two copies of shard 0", orig.Shard, cp.Shard, c.s.stats.Stolen)
	}
	c.wantStatus("fd", 0, 2, 1)
	return c, a, b, orig, cp
}

// TestLedgerDrainsInOrder: fresh runs are dispatched in shard order, and
// the merge starts only once the last one is done.
func TestLedgerDrainsInOrder(t *testing.T) {
	job := fig22
	job.Shards = 4
	c := newScript(t, Options{}, job)
	w := c.join("w")
	for k := 0; k < 4; k++ {
		if len(c.merges) != 0 {
			t.Fatalf("merge started before shard %d completed", k)
		}
		a := c.assignment(w)
		if a.Shard != k || a.Shards != 4 {
			t.Fatalf("assignment %d is shard %d/%d, want %d/4", k, a.Shard, a.Shards, k)
		}
		c.complete(w, a)
	}
	if len(c.merges) != 1 || c.s.stats.Assigned != 4 {
		t.Fatalf("%d merges and %d assigned after every shard completed, want 1 and 4", len(c.merges), c.s.stats.Assigned)
	}
}

// TestLedgerCompletedAndStates pins the status a snapshot reads off the
// ledger: the q/f/d map, queued runs, live copies (a speculative one
// counts apart) and completed shards. A completed shard stays completed
// while its losing copy computes and when that copy dies; a shard whose
// only copy dies is queued again.
func TestLedgerCompletedAndStates(t *testing.T) {
	job := fig22
	job.Shards = 3
	c := newScript(t, Options{Retries: 1}, job)
	c.wantStatus("qqq", 3, 0, 0)
	if st := c.status(); st.State != "queued" {
		t.Fatalf("state %s before any dispatch, want queued", st.State)
	}
	a := c.join("a")
	c.assignment(a)
	c.wantStatus("fqq", 2, 1, 0)
	b := c.join("b")
	sb := c.assignment(b)
	c.wantStatus("ffq", 1, 2, 0)
	c.advance(time.Second)
	c.complete(b, sb)
	c.assignment(b)
	c.wantStatus("fdf", 0, 2, 1)
	c.die(b)
	c.wantStatus("fdq", 1, 1, 1)
	if st := c.status(); st.Failures != 1 || st.State != "running" {
		t.Fatalf("after shard 2's only copy died: failures %d, state %s; want 1, running", st.Failures, st.State)
	}
	x := c.join("x")
	sx := c.assignment(x)
	y := c.join("y")
	c.advance(1500 * time.Millisecond)
	cp := c.assignment(y)
	if cp.Shard != 0 {
		t.Fatalf("y copied shard %d, want the straggling shard 0", cp.Shard)
	}
	c.wantStatus("fdf", 0, 3, 1)
	c.complete(x, sx)
	c.wantStatus("fdd", 0, 2, 2)
	c.complete(y, cp)
	c.wantStatus("ddd", 0, 1, 3)
	c.die(a)
	c.wantStatus("ddd", 0, 0, 3)
	if st := c.status(); st.Failures != 1 {
		t.Fatalf("failures %d after a done shard's losing copy died, want 1", st.Failures)
	}
}

// TestLedgerRequeueFrontOfLine: a task whose last live copy is lost goes
// to the front of its job's pending tasks, ahead of fresh runs never
// dispatched.
func TestLedgerRequeueFrontOfLine(t *testing.T) {
	job := fig22
	job.Shards = 3
	c := newScript(t, Options{Retries: 1}, job)
	a := c.join("a")
	c.assignment(a)
	c.assignment(c.join("b"))
	c.die(a)
	if got := c.assignment(c.join("x")); got.Shard != 0 {
		t.Fatalf("next worker got shard %d, want the lost shard 0 retried first", got.Shard)
	}
}

// TestLedgerStealSemantics: a task with two live copies gets no third,
// however long both run, and a done task is never copied, though its
// losing copy still computes.
func TestLedgerStealSemantics(t *testing.T) {
	c, _, b, _, cp := speculated(t, Options{})
	x := c.join("x")
	c.advance(10 * time.Second)
	if n := c.assigns(x); n != 0 || c.s.stats.Stolen != 1 {
		t.Fatalf("idle worker got %d assignments beside two live copies, stolen %d; want 0 and 1", n, c.s.stats.Stolen)
	}
	c.complete(b, cp)
	c.advance(10 * time.Second)
	if n := c.assigns(x) + c.assigns(b); n != 0 || c.s.stats.Stolen != 1 {
		t.Fatalf("%d assignments after shard 0 completed, stolen %d; want 0 and 1", n, c.s.stats.Stolen)
	}
	c.wantStatus("dd", 0, 1, 2)
}

// TestLedgerStealSkipsCompleted: with a completed shard's losing copy
// running longest, the straggler rule copies the shard still incomplete.
func TestLedgerStealSkipsCompleted(t *testing.T) {
	job := fig22
	job.Shards = 3
	c := newScript(t, Options{}, job)
	c.assignment(c.join("a"))
	c.assignment(c.join("b"))
	x := c.join("x")
	sx := c.assignment(x)
	c.advance(time.Second)
	c.complete(x, sx)
	c.advance(1500 * time.Millisecond)
	cp := c.assignment(x)
	if cp.Shard != 0 {
		t.Fatalf("x copied shard %d, want shard 0 (a's copy, listed first)", cp.Shard)
	}
	c.advance(time.Second)
	c.complete(x, cp)
	// a's copy of shard 0 and b's of shard 1 both started first; shard 0
	// is done.
	if got := c.assignment(x); got.Shard != 1 || c.s.stats.Stolen != 2 {
		t.Fatalf("x then copied shard %d, stolen %d; want shard 1, the only incomplete one, and 2", got.Shard, c.s.stats.Stolen)
	}
}

// TestLedgerDuplicateCompleteAndLateRequeue: the first completion of a
// task wins and a second is discarded; a late loss of a done task's
// losing copy charges nothing and requeues nothing.
func TestLedgerDuplicateCompleteAndLateRequeue(t *testing.T) {
	t.Run("second completion", func(t *testing.T) {
		c, a, b, orig, cp := speculated(t, Options{})
		c.complete(b, cp)
		c.complete(a, orig)
		if c.s.stats.Discarded != 1 || len(c.merges) != 1 {
			t.Fatalf("discarded %d, merges %d; want the loser's result discarded and one merge", c.s.stats.Discarded, len(c.merges))
		}
	})
	t.Run("late loss", func(t *testing.T) {
		c, a, b, _, cp := speculated(t, Options{Retries: 1})
		c.complete(b, cp)
		c.die(a)
		if st := c.status(); c.s.stats.Requeued != 0 || st.Failures != 0 || st.Queued != 0 {
			t.Fatalf("requeued %d, failures %d, queued %d after a done shard's copy died; want 0, 0, 0", c.s.stats.Requeued, st.Failures, st.Queued)
		}
		if n := c.assigns(c.join("x")); n != 0 {
			t.Fatalf("a new worker got %d assignments, want none: every shard is done", n)
		}
	})
}

// TestLedgerDoubleCompleteKeepsCountsExact: when both copies of a
// speculated task finish, the loser's completion neither counts the
// shard twice nor corrupts the live-copy count.
func TestLedgerDoubleCompleteKeepsCountsExact(t *testing.T) {
	c, a, b, orig, cp := speculated(t, Options{})
	c.complete(b, cp)
	c.wantStatus("dd", 0, 1, 2)
	c.complete(a, orig)
	c.wantStatus("dd", 0, 0, 2)
	if c.s.stats.Discarded != 1 {
		t.Fatalf("discarded %d, want 1", c.s.stats.Discarded)
	}
}

// TestLedgerBothCopiesDieThenRedispatch: a speculated task losing both
// copies is charged once and requeued once, then dispatched once more
// and completed normally.
func TestLedgerBothCopiesDieThenRedispatch(t *testing.T) {
	c, a, b, _, _ := speculated(t, Options{Retries: 1})
	c.die(a)
	c.wantStatus("fd", 0, 1, 1)
	if c.s.stats.Requeued != 0 {
		t.Fatalf("requeued %d while a copy still computes, want 0", c.s.stats.Requeued)
	}
	c.die(b)
	c.wantStatus("qd", 1, 0, 1)
	if st := c.status(); c.s.stats.Requeued != 1 || st.Failures != 1 {
		t.Fatalf("requeued %d, failures %d after both copies died; want 1 and 1", c.s.stats.Requeued, st.Failures)
	}
	x := c.join("x")
	re := c.assignment(x)
	if re.Shard != 0 {
		t.Fatalf("redispatched shard %d, want 0", re.Shard)
	}
	if n := c.assigns(c.join("y")); n != 0 {
		t.Fatalf("a second worker got %d assignments, want none: shard 0 was requeued once", n)
	}
	c.complete(x, re)
	c.merge()
	if c.s.err != nil || c.s.results[0].Report == nil {
		t.Fatalf("run after the redispatch: err %v, report %v", c.s.err, c.s.results[0].Report)
	}
}

// TestLedgerLostRerunRequeuedFront: a verification re-run lost to a
// dying worker goes back to the front of its job's pending tasks, ahead
// of a re-run already waiting, and draws on its shard's budget, which
// the shard's fresh run shares: with one retry, a lost fresh run and a
// lost re-run of the same shard abort the run.
func TestLedgerLostRerunRequeuedFront(t *testing.T) {
	for _, retries := range []int{1, 2} {
		job := fig22
		job.Shards = 2
		c := newScript(t, Options{Retries: retries, Verify: 1}, job)
		early := c.join("early")
		c.assignment(early)
		c.die(early)
		a := c.join("a")
		sa := c.assignment(a)
		b := c.join("b")
		sb := c.assignment(b)
		if sa.Shard != 0 || sb.Shard != 1 {
			t.Fatalf("a got shard %d, b shard %d; want the lost shard 0, then 1", sa.Shard, sb.Shard)
		}
		c.advance(time.Second)
		// Each producer passes its own re-run over once while the other
		// worker is alive: a parks, then takes shard 0's re-run when b's
		// completion offers it again; b passes shard 1's over and parks.
		c.complete(a, sa)
		if n := c.assigns(a); n != 0 {
			t.Fatalf("a got %d assignments after completing shard 0, want none: it passes its re-run over", n)
		}
		c.complete(b, sb)
		if ra := c.assignment(a); ra.Shard != 0 || c.assigns(b) != 0 {
			t.Fatalf("a re-runs shard %d, b holds %d assignments; want shard 0 and none", ra.Shard, c.assigns(b))
		}
		c.die(a)
		if retries == 1 {
			if c.s.err == nil || !strings.Contains(c.s.err.Error(), "verification of shard 0/2 failed 2 times, last:") {
				t.Fatalf("retries 1: err %v, want shard 0's budget spent by its fresh run and its re-run", c.s.err)
			}
			continue
		}
		if st := c.status(); c.s.err != nil || c.s.stats.Requeued != 2 || st.Failures != 2 {
			t.Fatalf("retries 2: err %v, requeued %d, failures %d; want nil, 2, 2", c.s.err, c.s.stats.Requeued, st.Failures)
		}
		rb := c.assignment(b)
		if rb.Shard != 0 {
			t.Fatalf("b got the re-run of shard %d, want the lost re-run of shard 0 first", rb.Shard)
		}
		c.complete(b, rb)
		c.complete(b, c.assignment(b))
		c.merge()
		if c.s.err != nil || c.s.stats.Verified != 2 || c.s.results[0].Report.String() != referenceReport(t, "fig2-2", 0.1, 42) {
			t.Fatalf("retries 2: err %v, verified %d; want the report with both shards verified", c.s.err, c.s.stats.Verified)
		}
	}
}

// TestCancelledJobStatusCountsOnlyKeptResults: a cancelled job's status
// counts only the results it kept. The result of its shard in flight at
// the cancel is discarded, so that shard is neither completed nor mapped
// done, and nothing of its sample was verified.
func TestCancelledJobStatusCountsOnlyKeptResults(t *testing.T) {
	job := fig22
	job.Shards = 2
	c := newScript(t, Options{Verify: 1}, job)
	w := c.join("w")
	c.complete(w, c.assignment(w))
	a := c.assignment(w)
	if a.Shard != 1 {
		t.Fatalf("second assignment is shard %d, want the fresh shard 1 before any re-run", a.Shard)
	}
	if err := c.s.cancel(c.now, 0); err != nil {
		t.Fatalf("cancel: %v", err)
	}
	c.route()
	c.complete(w, a)
	st := c.status()
	if st.State != "cancelled" || st.Completed != 1 || st.ShardStates != "dq" || st.Verified != 0 || st.VerifySampled != 2 || c.s.stats.Discarded != 1 {
		t.Fatalf("cancelled job: state=%s completed=%d map=%s verified=%d/%d discarded=%d; want cancelled, 1, dq, 0/2, 1",
			st.State, st.Completed, st.ShardStates, st.Verified, st.VerifySampled, c.s.stats.Discarded)
	}
}
