package cluster

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"time"

	"repro/internal/experiments"
	istats "repro/internal/stats"
)

// drainTimeout bounds how long a run waits, after the last shard
// completes, for speculative losers to finish their copy and exit the
// protocol cleanly; a worker still busy past it is cut off (its result
// was already discarded).
const drainTimeout = time.Minute

// workerState is the scheduler's view of one connection; id is its
// index in accept order.
type workerState struct {
	id   int
	name string
	// curJob/curTask index the task in flight in its job's ledger, both
	// -1 when the worker holds none.
	curJob  int
	curTask int
	// assignedAt is when the in-flight assignment went out, the start
	// the straggler rule measures from.
	assignedAt time.Time
	loops      []*experiments.LoopPartial
	helloed    bool
	stopped    bool
	dead       bool
	// nonce is the challenge this conn's hello must MAC; lastSeen the
	// time of the conn's most recent frame (any kind), which the
	// heartbeat tick compares against the miss budget.
	nonce    string
	lastSeen time.Time
	pingSeq  int
	// connectedAt, shardsDone, and loopsDone feed the status snapshots:
	// when the connection arrived, how many shard results (of any kind,
	// including discarded speculation losers) it delivered, and how many
	// loop partials it streamed — the worker's throughput history.
	connectedAt time.Time
	shardsDone  int
	loopsDone   int
}

// task is one unit of a job's work: shard's fresh run or, with rerun
// set, its verification re-run; both kinds follow the same rules.
type task struct {
	shard int
	// live counts the copies computing now (at most two); done marks the
	// first completion, which wins.
	live int
	// charges is the shard's failure count, kept on its fresh run and
	// shared with its re-run.
	charges     int
	rerun, done bool
	// ref is a re-run's reference, set when it becomes pending.
	ref *reference
}

// reference is what a re-run is checked against: its shard's first
// result, canonically encoded, and the worker that produced it. The
// re-run passes that worker over once (skipped), not always, so a fleet
// shrunk to it still finishes.
type reference struct {
	first   []byte
	firstID int
	skipped bool
}

// jobState is the per-job half of the coordinator state: the task
// ledger, the completed shards' loop records and the straggler sample.
type jobState struct {
	job Job
	// tasks holds shard k's fresh run at index k, then one re-run per
	// shard of the verification sample, in ascending shard order.
	// pending lists the tasks awaiting a worker, head first: the fresh
	// runs from admission, a re-run once its shard's first result lands,
	// and at the front any task whose last live copy was lost.
	tasks   []task
	pending []int
	// freshLeft counts fresh runs not done (the merge starts at 0), left
	// all tasks not done (the report waits for 0).
	freshLeft, left int
	// loops[k] is shard k's first result, its loop records in execution
	// order. loops is released once the merge starts, and merged once
	// the report is delivered, so a long-running coordinator holds the
	// results of in-flight jobs only.
	loops [][]*experiments.LoopPartial
	// times feeds the straggler rule.
	times        shardTimes
	merged       *experiments.Report
	mergeStarted bool
	// cancelled marks a job withdrawn through the control plane: its
	// shards no longer dispatch, in-flight results are discarded, and
	// report delivery skips it.
	cancelled bool
}

// effect is one action an input queues in out, which the shell carries
// out in order and empties before the next input: with parts set, merge
// job's completed shards; else send msg to worker, or, msg nil, close
// worker's connection (graceful: after the messages queued before it).
type effect struct {
	worker   int
	msg      Message
	graceful bool
	job      int
	parts    [][]*experiments.LoopPartial
}

// scheduler makes every decision of Run, with no goroutines, channels,
// clocks or connections: each input is stamped with the time it
// happened (now, while it is handled), and the same inputs at the same
// times queue the same effects, which lets the simulation tests replay
// thousands of fleet schedules on a virtual clock. results has one entry per job
// the run started with; later ones were submitted through the Control.
type scheduler struct {
	o                  Options
	logf               func(format string, args ...any)
	hbInterval, cutoff time.Duration // both 0 when heartbeats are off
	startedAt, now     time.Time
	states             []*jobState
	results            []Result
	workers            []*workerState
	open, nextEmit     int
	stats              RunStats
	err                error
	acceptDone         bool
	acceptErr          error
	// nextTick is the next heartbeat; drainAt the drain cut-off, zero
	// until no assignable work remains, and drained marks it spent.
	nextTick, drainAt time.Time
	drained           bool
	out               []effect
}

// newScheduler admits jobs, the run's initial list, at time now.
func newScheduler(jobs []Job, o Options, now time.Time) (*scheduler, error) {
	s := &scheduler{o: o, logf: o.Logf, startedAt: now, now: now, results: make([]Result, len(jobs))}
	if s.logf == nil {
		s.logf = func(string, ...any) {}
	}
	interval, misses := o.HeartbeatInterval, o.HeartbeatMisses
	if interval == 0 {
		interval = defaultHeartbeatInterval
	}
	if misses <= 0 {
		misses = defaultHeartbeatMisses
	}
	if interval > 0 {
		s.hbInterval, s.cutoff = interval, interval*time.Duration(misses)
		s.nextTick = now.Add(interval)
	}
	for ji, j := range jobs {
		if _, err := s.admit(j); err != nil {
			return nil, err
		}
		s.results[ji].Job = j
	}
	return s, nil
}

// admit validates a job and queues it behind every earlier one, with
// its verification sample. Jobs given at start and jobs submitted
// through the Control both come in here. open counts the admitted jobs
// neither delivered nor cancelled; only a submitted job is refused when
// it reaches MaxOpenJobs.
func (s *scheduler) admit(j Job) (int, error) {
	ji := len(s.states)
	if err := checkJob(j); err != nil {
		return 0, fmt.Errorf("cluster: job %d %w", ji, err)
	}
	if ji >= len(s.results) && s.open >= MaxOpenJobs {
		return 0, fmt.Errorf("cluster: job %d (%s): %w: %d jobs admitted and not yet delivered", ji, j.Experiment, ErrQueueFull, s.open)
	}
	s.open++
	sample := VerifySample(j, ji, s.o.Verify)
	js := &jobState{
		job:       j,
		tasks:     make([]task, j.Shards, j.Shards+len(sample)),
		pending:   make([]int, j.Shards),
		freshLeft: j.Shards,
		left:      j.Shards + len(sample),
		loops:     make([][]*experiments.LoopPartial, j.Shards),
	}
	for k := range js.pending {
		js.tasks[k].shard, js.pending[k] = k, k
	}
	for _, k := range sample {
		js.tasks = append(js.tasks, task{shard: k, rerun: true})
	}
	s.states = append(s.states, js)
	return ji, nil
}

// accept challenges a new connection and returns its worker id; the
// hello must answer before the heartbeat cutoff or the tick reaps it.
func (s *scheduler) accept(now time.Time, nonce string) int {
	s.now = now
	w := &workerState{id: len(s.workers), curJob: -1, curTask: -1, nonce: nonce, lastSeen: now, connectedAt: now}
	s.workers = append(s.workers, w)
	s.send(w, &Challenge{Version: ProtoVersion, Nonce: nonce, PingMs: int(s.hbInterval / time.Millisecond), CutoffMs: int(s.cutoff / time.Millisecond)})
	return w.id
}

// acceptEnded keeps err, a real accept failure, for the stall diagnosis:
// it is the root cause when no worker ever appears.
func (s *scheduler) acceptEnded(now time.Time, err error) {
	s.now = now
	s.acceptDone = true
	if err != nil {
		s.acceptErr = err
		s.logf("cluster: transport stopped accepting workers: %v", err)
	}
	s.settle()
}

func (s *scheduler) lost(now time.Time, id int, err error) {
	s.now = now
	w := s.workers[id]
	if w.dead {
		return
	}
	if errors.Is(err, istats.ErrChecksum) {
		// The conn's rolling chain broke: a frame was corrupted,
		// dropped, or duplicated in flight. Resynchronizing is
		// impossible, so the peer is dropped like any dead worker and
		// its shard salvaged — the typed count is the audit trail.
		s.stats.CorruptFrames++
		s.logf("cluster: integrity failure on worker %s's connection: %v", w.name, err)
	}
	if t := s.held(w); t != nil {
		s.logf("cluster: worker %s died holding job %d shard %d/%d: %v", w.name, w.curJob, t.shard, s.states[w.curJob].job.Shards, err)
	} else {
		s.logf("cluster: worker %s disconnected: %v", w.name, err)
	}
	s.teardown(w, false)
	s.salvage(w, fmt.Errorf("worker %s died: %w", w.name, err))
	s.settle()
}

func (s *scheduler) recv(now time.Time, id int, msg Message) {
	s.now = now
	w := s.workers[id]
	if w.dead {
		return
	}
	w.lastSeen = now
	switch m := msg.(type) {
	case *Hello:
		if w.helloed {
			s.violation(w, "second hello")
			break
		}
		if !verifyHello(s.o.Token, w.nonce, m) {
			s.stats.Rejected++
			s.logf("cluster: rejecting worker %q: bad or missing token MAC", m.Name)
			s.send(w, &Reject{Reason: "authentication failed"})
			s.teardown(w, true)
			break
		}
		w.helloed = true
		w.name = m.Name
		s.stats.Workers++
		s.logf("cluster: worker %s connected", w.name)
		s.dispatch(w)
	case *Pong:
		// Liveness answer; lastSeen is already refreshed above.
	case *LoopResult:
		if !s.holds(w, "loop result", m.Job, m.Shard) {
			break
		}
		w.loopsDone++
		if !s.states[w.curJob].cancelled {
			w.loops = append(w.loops, m.Loop)
		}
	case *ShardDone:
		if s.holds(w, "done", m.Job, m.Shard) {
			s.shardDone(w)
		}
	case *ShardError:
		if s.holds(w, "error", m.Job, m.Shard) {
			s.salvage(w, fmt.Errorf("worker %s: %s", w.name, m.Msg))
		}
	default:
		s.violation(w, fmt.Sprintf("unexpected %T", msg))
	}
	s.settle()
}

// shardDone takes w's finished task: the first completion wins, and
// every copy of a re-run is byte-compared with its shard's first result.
func (s *scheduler) shardDone(w *workerState) {
	ji, js, t := w.curJob, s.states[w.curJob], s.held(w)
	k, loops, took := t.shard, w.loops, s.now.Sub(w.assignedAt)
	w.curJob, w.curTask, w.loops = -1, -1, nil
	w.shardsDone++
	t.live--
	switch {
	case js.cancelled:
		// The job was withdrawn while this copy was in flight: throw the
		// result away and put the worker back to work.
		s.stats.Discarded++
		s.logf("cluster: discarding result for cancelled job %d shard %d/%d from %s", ji, k, js.job.Shards, w.name)
	case t.rerun:
		enc, err := experiments.CanonicalLoops(loops)
		if err != nil {
			s.abort(fmt.Errorf("cluster: encoding verification re-run of job %d shard %d/%d: %w", ji, k, js.job.Shards, err))
			return
		}
		first := s.workers[t.ref.firstID].name
		if !bytes.Equal(enc, t.ref.first) {
			s.abort(&VerifyError{Job: ji, Experiment: js.job.Experiment, Shard: k, Shards: js.job.Shards, First: first, Second: w.name})
			return
		}
		if t.done {
			s.stats.Discarded++
			s.logf("cluster: discarding duplicate verification of job %d shard %d/%d from %s", ji, k, js.job.Shards, w.name)
			break
		}
		t.done = true
		js.left--
		s.stats.Verified++
		s.logf("cluster: job %d shard %d/%d verified: %s matches %s byte for byte", ji, k, js.job.Shards, w.name, first)
		s.tryEmit()
		s.drain()
	case t.done:
		s.stats.Discarded++
		s.logf("cluster: discarding duplicate result for job %d shard %d/%d from %s", ji, k, js.job.Shards, w.name)
	default:
		t.done = true
		js.freshLeft--
		js.left--
		js.times.add(took)
		js.loops[k] = loops
		if js.freshLeft == 0 {
			s.startMerge(ji)
		}
		s.drain()
		reruns := js.tasks[js.job.Shards:]
		if i, ok := slices.BinarySearchFunc(reruns, k, func(r task, k int) int { return cmp.Compare(r.shard, k) }); ok {
			enc, err := experiments.CanonicalLoops(loops)
			if err != nil {
				s.abort(fmt.Errorf("cluster: encoding job %d shard %d/%d for verification: %w", ji, k, js.job.Shards, err))
				return
			}
			reruns[i].ref = &reference{first: enc, firstID: w.id}
			js.pending = append(js.pending, js.job.Shards+i)
			// The new re-run goes to every parked worker, w among them
			// (it passes w over); w is not offered work twice.
			s.pump()
			return
		}
	}
	s.dispatch(w)
}

func (s *scheduler) merged(now time.Time, job int, rep *experiments.Report, err error) {
	s.now = now
	if err != nil {
		s.abort(fmt.Errorf("cluster: job %d (%s): %w", job, s.states[job].job.Experiment, err))
	} else {
		s.states[job].merged = rep
		s.tryEmit()
	}
}

func (s *scheduler) submit(now time.Time, j Job) (int, error) {
	s.now = now
	if s.allDone() {
		// All existing work is finished and the fleet is stopping (or
		// already stopped): a job admitted now could never dispatch. The
		// operator starts a fresh campaign instead.
		return 0, errors.New("cluster: submit: campaign already draining")
	}
	ji, err := s.admit(j)
	if err != nil {
		return 0, fmt.Errorf("cluster: submit: %w", err)
	}
	s.stats.Submitted++
	s.logf("cluster: control: submitted job %d (%s, %d shards)", ji, j.Experiment, j.Shards)
	s.pump()
	return ji, nil
}

func (s *scheduler) cancel(now time.Time, ji int) error {
	s.now = now
	if ji < 0 || ji >= len(s.states) {
		return fmt.Errorf("cluster: cancel: no job %d", ji)
	}
	js := s.states[ji]
	switch {
	case js.cancelled:
		return fmt.Errorf("cluster: cancel: job %d already cancelled", ji)
	case js.mergeStarted || ji < s.nextEmit:
		return fmt.Errorf("cluster: cancel: job %d (%s) already completed", ji, js.job.Experiment)
	}
	js.cancelled = true
	s.open--
	s.stats.Cancelled++
	s.logf("cluster: control: cancelled job %d (%s)", ji, js.job.Experiment)
	// The cancellation may have been the last thing the campaign was
	// waiting on.
	s.tryEmit()
	s.drain()
	return nil
}

// next is when to wake the scheduler if no input comes first (zero:
// never): the next heartbeat, the drain cut-off until it fires, or, for
// a parked worker, the first instant a live copy is past its straggler
// threshold. Each wake consumes its deadline; none is reported twice.
func (s *scheduler) next() time.Time {
	at := s.nextTick
	if !s.drained {
		at = earliest(at, s.drainAt)
	}
	if slices.ContainsFunc(s.workers, (*workerState).parked) {
		pick, due := pickStraggler(s.now, s.speculable(), s.threshold)
		if pick >= 0 {
			return s.now
		}
		if !due.IsZero() {
			at = earliest(at, due.Add(time.Nanosecond))
		}
	}
	return at
}

// earliest returns the earlier of two deadlines, where zero is none.
func earliest(a, b time.Time) time.Time {
	if a.IsZero() || !b.IsZero() && b.Before(a) {
		return b
	}
	return a
}

// wake runs what next reported, if due; parked workers look every time.
func (s *scheduler) wake(now time.Time) {
	s.now = now
	if !s.nextTick.IsZero() && !now.Before(s.nextTick) {
		s.nextTick = now.Add(s.hbInterval)
		s.tick()
	}
	if !s.drained && !s.drainAt.IsZero() && !now.Before(s.drainAt) {
		s.drained = true
		// Speculative losers had their chance to finish cleanly; a hung
		// straggler cannot hold the (already merged) campaign hostage.
		// Salvaging a discarded copy only returns it: its work is done.
		for _, w := range s.workers {
			if t := s.held(w); t != nil && !w.dead {
				s.logf("cluster: cutting off straggler %s still computing discarded job %d shard %d/%d after drain timeout", w.name, w.curJob, t.shard, s.states[w.curJob].job.Shards)
				s.teardown(w, false)
				s.salvage(w, errors.New("cut off after the drain timeout"))
			}
		}
	}
	s.pump()
	s.settle()
}

// tick reaps every connection silent past the cutoff and pings the rest.
func (s *scheduler) tick() {
	for _, w := range s.workers {
		if w.dead {
			continue
		}
		if silent := s.now.Sub(w.lastSeen); silent > s.cutoff {
			s.teardown(w, false)
			if !w.helloed {
				s.stats.Rejected++
				s.logf("cluster: dropping connection %d: no hello within %v", w.id, s.cutoff)
				continue
			}
			s.stats.Hung++
			s.logf("cluster: worker %s silent for %v (heartbeat budget %v): dropping as hung", w.name, silent, s.cutoff)
			s.salvage(w, fmt.Errorf("worker %s hung: no frames for %v", w.name, silent))
			continue
		}
		if w.helloed && !w.stopped {
			w.pingSeq++
			s.send(w, &Ping{Seq: w.pingSeq})
		}
	}
}

// settle is the stall check, after inputs that can lose a worker: no
// shard can ever complete if every worker is gone and none can arrive.
func (s *scheduler) settle() {
	if s.err != nil || !s.acceptDone || s.alive(false) > 0 || s.allDone() {
		return
	}
	var pend, inflight, completed, total, verLeft int
	for _, js := range s.states {
		if js.cancelled {
			continue
		}
		st := js.status()
		pend += st.Queued
		inflight += st.InFlight
		completed += st.Completed
		total += st.Shards
		verLeft += st.VerifySampled - st.Verified
	}
	stall := fmt.Errorf("cluster: all workers gone with %d of %d shards incomplete (%d queued, %d in flight, %d verifications outstanding)",
		total-completed, total, pend, inflight, verLeft)
	if s.acceptErr != nil {
		stall = fmt.Errorf("%w; transport stopped accepting workers: %w", stall, s.acceptErr)
	}
	s.abort(stall)
}

// over reports whether the run has ended: aborted, or every report
// delivered and no live worker still computing (speculative stragglers
// drain out cleanly rather than seeing their connection vanish
// mid-shard).
func (s *scheduler) over() bool {
	if s.err != nil {
		return true
	}
	if s.nextEmit < len(s.states) {
		return false
	}
	for _, w := range s.workers {
		if !w.dead && w.curTask >= 0 {
			return false
		}
	}
	return true
}

// shutdown stops every worker once the run is over.
func (s *scheduler) shutdown() {
	for _, w := range s.workers {
		s.stopWorker(w)
		s.teardown(w, s.err == nil)
	}
}

func (s *scheduler) send(w *workerState, m Message) {
	if !w.dead {
		s.out = append(s.out, effect{worker: w.id, msg: m})
	}
}

// teardown removes a worker from service. Graceful teardown lets the
// messages queued before it (the Stop) reach the worker before the
// connection closes; abrupt teardown closes it immediately.
func (s *scheduler) teardown(w *workerState, graceful bool) {
	if w.dead {
		return
	}
	w.dead = true
	s.out = append(s.out, effect{worker: w.id, graceful: graceful})
}

// alive counts the live connections, or with helloed the live workers.
func (s *scheduler) alive(helloed bool) int {
	n := 0
	for _, w := range s.workers {
		if !w.dead && (w.helloed || !helloed) {
			n++
		}
	}
	return n
}

func (s *scheduler) abort(err error) {
	if s.err == nil {
		s.err = err
	}
}

// allDone reports whether no further worker-side work can exist: every
// task of every live job is done, fresh runs and re-runs alike
// (cancelled jobs owe nothing). Merges and report delivery may still be
// outstanding.
func (s *scheduler) allDone() bool {
	for _, js := range s.states {
		if !js.cancelled && js.left > 0 {
			return false
		}
	}
	return true
}

// tryEmit delivers merged reports in submission order: the head job
// goes out the moment it is merged and verified, then the next, so a
// late-merging early job is the only thing that can hold a finished
// later report back.
func (s *scheduler) tryEmit() {
	for s.nextEmit < len(s.states) {
		js := s.states[s.nextEmit]
		if js.cancelled {
			// A cancelled job emits nothing; it must not hold later
			// reports back either.
			s.nextEmit++
			continue
		}
		if js.merged == nil || js.left > 0 {
			return
		}
		if s.nextEmit < len(s.results) {
			s.results[s.nextEmit].Report = js.merged
		}
		if s.o.Emit != nil {
			if err := s.o.Emit(s.nextEmit, js.job, js.merged); err != nil {
				s.abort(fmt.Errorf("cluster: delivering job %d (%s) report: %w", s.nextEmit, js.job.Experiment, err))
				return
			}
		}
		js.merged = nil
		s.open--
		s.nextEmit++
	}
}

// startMerge hands job ji's completed shard set to the shell the moment
// its last shard completes, overlapping later jobs' execution and the
// drain of speculative stragglers; the report comes back through
// merged, so delivery happens on the loop, in submission order.
func (s *scheduler) startMerge(ji int) {
	js := s.states[ji]
	if js.mergeStarted {
		return
	}
	js.mergeStarted = true
	for k, t := range js.tasks[:js.job.Shards] {
		if !t.done {
			s.abort(fmt.Errorf("cluster: internal error: job %d merging before shard %d/%d is done", ji, k, js.job.Shards))
			return
		}
	}
	s.out = append(s.out, effect{job: ji, parts: js.loops})
	js.loops = nil
}

// fail returns one lost copy of job ji's task ti. The shard's failure
// budget is charged (and the run aborted once it is spent) only when
// the loss costs progress: the task is not done, its job not cancelled,
// and no other copy is still computing. The task then goes back to the
// front of its job's pending tasks, to retry before any speculation.
func (s *scheduler) fail(ji, ti int, cause error) {
	js := s.states[ji]
	t := &js.tasks[ti]
	t.live--
	what := "shard"
	if t.rerun {
		what = "verification of shard"
	}
	switch {
	case t.done || js.cancelled:
		return
	case t.live > 0:
		s.logf("cluster: a copy of job %d %s %d/%d failed, %d live copies remain: %v", ji, what, t.shard, js.job.Shards, t.live, cause)
		return
	}
	js.pending = slices.Insert(js.pending, 0, ti)
	n := &js.tasks[t.shard].charges
	*n++
	s.stats.Requeued++
	if *n > max(s.o.Retries, 0) {
		s.abort(fmt.Errorf("cluster: job %d (%s): %s %d/%d failed %d times, last: %w", ji, js.job.Experiment, what, t.shard, js.job.Shards, *n, cause))
		return
	}
	s.logf("cluster: requeueing job %d %s %d/%d after failure %d/%d: %v", ji, what, t.shard, js.job.Shards, *n, max(s.o.Retries, 0), cause)
}

func (s *scheduler) stopWorker(w *workerState) {
	if !w.stopped && !w.dead {
		w.stopped = true
		s.send(w, &Stop{})
	}
}

// held is the task w is computing, nil when it holds none.
func (s *scheduler) held(w *workerState) *task {
	if w.curTask < 0 {
		return nil
	}
	return &s.states[w.curJob].tasks[w.curTask]
}

// holds reports whether w is computing job ji's shard k. A worker that
// reports on any other pair, or on any pair while holding none (its -1s
// included), broke the protocol and is dropped.
func (s *scheduler) holds(w *workerState, what string, ji, k int) bool {
	if t := s.held(w); t != nil && ji == w.curJob && k == t.shard {
		return true
	}
	s.violation(w, fmt.Sprintf("%s for job %d shard %d while holding job %d task %d", what, ji, k, w.curJob, w.curTask))
	return false
}

// parked reports whether w waits for work: it said hello, is neither
// stopped nor dead, and holds no task.
func (w *workerState) parked() bool {
	return w.helloed && !w.stopped && !w.dead && w.curTask < 0
}

func (s *scheduler) assign(w *workerState, ji, ti int) {
	js := s.states[ji]
	t := &js.tasks[ti]
	t.live++
	w.curJob, w.curTask = ji, ti
	w.assignedAt = s.now
	w.loops = nil
	s.send(w, &Assign{
		Job:        ji,
		Experiment: js.job.Experiment,
		Seed:       js.job.Seed,
		Scale:      js.job.Scale,
		Workers:    s.o.ShardWorkers,
		Shard:      t.shard,
		Shards:     js.job.Shards,
	})
}

// speculable lists the live copies the straggler rule may duplicate:
// the only live copy of a task not done, in a job not cancelled.
func (s *scheduler) speculable() []liveCopy {
	var out []liveCopy
	for _, w := range s.workers {
		if t := s.held(w); t != nil && !w.dead && t.live == 1 && !t.done && !s.states[w.curJob].cancelled {
			out = append(out, liveCopy{job: w.curJob, task: w.curTask, since: w.assignedAt})
		}
	}
	return out
}

func (s *scheduler) threshold(ji int) (time.Duration, bool) { return s.states[ji].times.threshold() }

// dispatch hands a parked worker its next task: the first pending task
// it may take of the earliest live job, else a speculative copy of a
// straggler; with neither it stays parked. A re-run passes over the
// worker that produced its shard's first result once, while another
// worker that said hello is alive. Job i's pending tasks go before job
// i+1's, so the campaign progresses in submission order while never
// idling a worker that job i can no longer feed.
func (s *scheduler) dispatch(w *workerState) {
	if !w.parked() || s.err != nil {
		return
	}
	if s.allDone() {
		s.stopWorker(w)
		return
	}
	for ji, js := range s.states {
		if js.cancelled {
			continue
		}
		for pi, ti := range js.pending {
			t := &js.tasks[ti]
			if t.rerun && t.ref.firstID == w.id && !t.ref.skipped && s.alive(true) > 1 {
				t.ref.skipped = true
				continue
			}
			if pi == 0 {
				js.pending = js.pending[1:]
			} else {
				js.pending = slices.Delete(js.pending, pi, pi+1)
			}
			if t.rerun {
				s.logf("cluster: worker %s re-executing job %d shard %d/%d for verification (first by %s)", w.name, ji, t.shard, js.job.Shards, s.workers[t.ref.firstID].name)
			} else {
				s.stats.Assigned++
			}
			s.assign(w, ji, ti)
			return
		}
	}
	// Speculation: a second copy of a task whose only live copy has run
	// past its job's straggler threshold; the first result wins and the
	// other copy's is discarded (a re-run's is still compared). For a
	// re-run this is a liveness mechanism (a hung verifier cannot stall
	// the campaign), and any worker qualifies.
	copies := s.speculable()
	if pick, _ := pickStraggler(s.now, copies, s.threshold); pick >= 0 {
		c := copies[pick]
		js, t := s.states[c.job], &s.states[c.job].tasks[c.task]
		s.stats.Stolen++
		s.logf("cluster: worker %s speculating on job %d shard %d/%d (verify=%v): its copy has run %v, over %d× the job's median shard time",
			w.name, c.job, t.shard, js.job.Shards, t.rerun, s.now.Sub(c.since).Round(time.Millisecond), stragglerFactor)
		s.assign(w, c.job, c.task)
	}
}

// pump offers work to every parked worker, in id order, after an input
// that added work or freed a worker. Each is asked, not just up to the
// first that stays parked: a re-run passes over its first result's
// worker.
func (s *scheduler) pump() {
	for _, w := range s.workers {
		s.dispatch(w)
	}
}

// salvage recovers the task a worker abandoned (death, protocol
// violation or error reply) and offers work to the parked workers, w
// among them after an error reply.
func (s *scheduler) salvage(w *workerState, cause error) {
	if w.curTask < 0 {
		return
	}
	ji, ti := w.curJob, w.curTask
	w.curJob, w.curTask = -1, -1
	s.fail(ji, ti, cause)
	s.pump()
}

// violation drops a worker that broke the protocol and salvages its
// assignment.
func (s *scheduler) violation(w *workerState, why string) {
	s.logf("cluster: dropping worker %s: %s", w.name, why)
	s.teardown(w, false)
	s.salvage(w, fmt.Errorf("worker %s dropped: %s", w.name, why))
}

// drain stops every idle worker once no assignable work remains, and
// arms the cut-off for speculative stragglers still computing a copy.
func (s *scheduler) drain() {
	if !s.allDone() {
		return
	}
	for _, w := range s.workers {
		if !w.dead && w.curTask < 0 {
			s.stopWorker(w)
		}
	}
	if s.drainAt.IsZero() {
		s.drainAt = s.now.Add(drainTimeout)
	}
}

// status reads a job's counts off its ledger. They cover fresh runs
// only (in flight counts live copies, a speculative one apart); re-runs
// show in Verified.
func (js *jobState) status() JobStatus {
	k := js.job.Shards
	st := JobStatus{Experiment: js.job.Experiment, Seed: js.job.Seed, Scale: js.job.Scale, Shards: k, VerifySampled: len(js.tasks) - k}
	st.Verified = st.VerifySampled - (js.left - js.freshLeft)
	b := make([]byte, k)
	for i, t := range js.tasks[:k] {
		st.InFlight += t.live
		st.Failures += t.charges
		switch {
		case t.done:
			b[i] = 'd'
			st.Completed++
		case t.live > 0:
			b[i] = 'f'
		default:
			b[i] = 'q'
		}
	}
	for _, ti := range js.pending {
		if ti < k {
			st.Queued++
		}
	}
	st.ShardStates = string(b)
	return st
}

// snapshot builds an immutable Snapshot at now; done marks the final one.
func (s *scheduler) snapshot(now time.Time, done bool) *Snapshot {
	snap := &Snapshot{StartedAt: s.startedAt, At: now, Done: done, Stats: s.stats,
		Jobs: make([]JobStatus, 0, len(s.states)), Workers: make([]WorkerStatus, 0, len(s.workers))}
	for ji, js := range s.states {
		st := js.status()
		st.Index = ji
		switch {
		case js.cancelled:
			st.State = "cancelled"
		case ji < s.nextEmit:
			st.State = "done"
		case js.mergeStarted:
			st.State = "merging"
		case st.Completed == 0 && st.InFlight == 0:
			st.State = "queued"
		default:
			st.State = "running"
		}
		if !js.cancelled {
			snap.QueueDepth += st.Queued
		}
		snap.Jobs = append(snap.Jobs, st)
	}
	for _, w := range s.workers {
		ws := WorkerStatus{
			ID:         w.id,
			Name:       w.name,
			Job:        w.curJob,
			Shard:      -1,
			ShardsDone: w.shardsDone,
			LoopsDone:  w.loopsDone,
		}
		t := s.held(w)
		if t != nil {
			ws.Shard, ws.Verify = t.shard, t.rerun
		}
		switch {
		case w.dead:
			ws.State = "dead"
		case !w.helloed:
			ws.State = "handshake"
		case t != nil:
			ws.State = "busy"
		case w.stopped:
			ws.State = "stopped"
		default:
			ws.State = "idle"
		}
		ws.UptimeSec = now.Sub(w.connectedAt).Seconds()
		if ws.UptimeSec > 0 {
			ws.LoopsPerSec = float64(w.loopsDone) / ws.UptimeSec
		}
		ws.LastSeenSec = now.Sub(w.lastSeen).Seconds()
		snap.Workers = append(snap.Workers, ws)
	}
	return snap
}
