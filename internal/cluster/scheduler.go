package cluster

import (
	"bytes"
	"errors"
	"fmt"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
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
	// curJob/curShard are the in-flight assignment, -1 when idle;
	// curVerify marks it as a verification re-run of a completed shard.
	curJob    int
	curShard  int
	curVerify bool
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

// verifyState tracks one sampled shard's verification: the canonical
// encoding of the first completed result, who produced it, and the
// dispatch state of the re-run.
type verifyState struct {
	first     []byte
	firstID   int
	firstName string
	// inFlight counts live re-run dispatches (speculation allows two);
	// resolved marks the verification confirmed.
	inFlight int
	resolved bool
	// skipped marks that the preferred-different-worker rule already
	// passed the task over once; after that any worker may take it, so
	// a fleet that shrank to the original worker still makes progress.
	skipped bool
}

// jobState is the per-job half of the coordinator state: the dynamic
// shard queue, the completed partials, the failure ledger, and the
// verification sample.
type jobState struct {
	job   Job
	queue *parallel.ShardQueue
	// partials is released once the merge starts, and merged once the
	// report is delivered, so a long-running coordinator holds the
	// results of in-flight jobs only.
	partials []*experiments.Partial
	failures []int
	// times feeds the straggler rule.
	times shardTimes
	// verify maps sampled shard index → verification state; sampled
	// lists the sampled indices in ascending order (the deterministic
	// iteration order for speculative re-dispatch); verifyLeft counts
	// samples not yet confirmed, verifyQueue the samples whose first
	// result arrived and whose re-run awaits a worker.
	verify       map[int]*verifyState
	sampled      []int
	verifyLeft   int
	verifyQueue  []int
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
	parts    []*experiments.Partial
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
	prepare            *Prepare
	startedAt, now     time.Time
	states             []*jobState
	results            []Result
	workers            []*workerState
	idle               []*workerState
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
	ids := make([]string, len(jobs))
	for ji, j := range jobs {
		if _, err := s.admit(j); err != nil {
			return nil, err
		}
		s.results[ji].Job = j
		ids[ji] = j.Experiment
	}
	// Every worker is told right after its hello to build the phy tables
	// the initial jobs will read, once, before the first assignment's
	// trial fan-out would race to build them; they stay cached across
	// every assignment of the run. Jobs submitted later warm lazily.
	s.prepare = &Prepare{Frames: experiments.FrameSizes(ids...)}
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
	js := &jobState{
		job:      j,
		queue:    parallel.NewShardQueue(j.Shards),
		partials: make([]*experiments.Partial, j.Shards),
		failures: make([]int, j.Shards),
		verify:   map[int]*verifyState{},
		sampled:  VerifySample(j, ji, s.o.Verify),
	}
	for _, k := range js.sampled {
		js.verify[k] = &verifyState{}
	}
	js.verifyLeft = len(js.sampled)
	s.states = append(s.states, js)
	return ji, nil
}

// accept challenges a new connection and returns its worker id; the
// hello must answer before the heartbeat cutoff or the tick reaps it.
func (s *scheduler) accept(now time.Time, nonce string) int {
	s.now = now
	w := &workerState{id: len(s.workers), curJob: -1, curShard: -1, nonce: nonce, lastSeen: now, connectedAt: now}
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
	if w.curShard >= 0 {
		s.logf("cluster: worker %s died holding job %d shard %d/%d: %v", w.name, w.curJob, w.curShard, s.states[w.curJob].job.Shards, err)
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
		s.send(w, s.prepare)
		s.dispatch(w)
	case *Pong:
		// Liveness answer; lastSeen is already refreshed above.
	case *LoopResult:
		// An idle worker holds nothing, whatever pair (-1s too) it names.
		if w.curShard < 0 || m.Job != w.curJob || m.Shard != w.curShard {
			s.violation(w, fmt.Sprintf("loop result for job %d shard %d while holding job %d shard %d", m.Job, m.Shard, w.curJob, w.curShard))
			break
		}
		w.loopsDone++
		if !s.states[w.curJob].cancelled {
			w.loops = append(w.loops, m.Loop)
		}
	case *ShardDone:
		if w.curShard < 0 || m.Job != w.curJob || m.Shard != w.curShard {
			s.violation(w, fmt.Sprintf("done for job %d shard %d while holding job %d shard %d", m.Job, m.Shard, w.curJob, w.curShard))
			break
		}
		s.shardDone(w)
	case *ShardError:
		if w.curShard < 0 || m.Job != w.curJob || m.Shard != w.curShard {
			s.violation(w, fmt.Sprintf("error for job %d shard %d while holding job %d shard %d", m.Job, m.Shard, w.curJob, w.curShard))
			break
		}
		s.salvage(w, fmt.Errorf("worker %s: %s", w.name, m.Msg))
		s.dispatch(w)
	default:
		s.violation(w, fmt.Sprintf("unexpected %T", msg))
	}
	s.settle()
}

// shardDone takes w's finished assignment: the first completion of a
// shard wins, and a verification re-run is byte-compared with it.
func (s *scheduler) shardDone(w *workerState) {
	ji, k, verify := w.curJob, w.curShard, w.curVerify
	js := s.states[ji]
	loops := w.loops
	took := s.now.Sub(w.assignedAt)
	w.curJob, w.curShard, w.curVerify = -1, -1, false
	w.loops = nil
	w.shardsDone++
	switch {
	case js.cancelled:
		// The job was withdrawn while this shard was in flight: keep the
		// copy accounting coherent, throw the result away, and put the
		// worker back to work.
		if verify {
			if vs := js.verify[k]; vs != nil && vs.inFlight > 0 {
				vs.inFlight--
			}
		} else {
			js.queue.Complete(k)
		}
		s.stats.Discarded++
		s.logf("cluster: discarding result for cancelled job %d shard %d/%d from %s", ji, k, js.job.Shards, w.name)
	case verify:
		vs := js.verify[k]
		if vs.inFlight > 0 {
			vs.inFlight--
		}
		enc, err := experiments.CanonicalLoops(loops)
		if err != nil {
			s.abort(fmt.Errorf("cluster: encoding verification re-run of job %d shard %d/%d: %w", ji, k, js.job.Shards, err))
			return
		}
		if !bytes.Equal(enc, vs.first) {
			s.abort(&VerifyError{Job: ji, Experiment: js.job.Experiment, Shard: k, Shards: js.job.Shards, First: vs.firstName, Second: w.name})
			return
		}
		if vs.resolved {
			// A speculative duplicate of an already-confirmed re-run; it
			// matched too, nothing more to record.
			s.stats.Discarded++
			s.logf("cluster: discarding duplicate verification of job %d shard %d/%d from %s", ji, k, js.job.Shards, w.name)
			break
		}
		vs.resolved = true
		js.verifyLeft--
		s.stats.Verified++
		s.logf("cluster: job %d shard %d/%d verified: %s matches %s byte for byte", ji, k, js.job.Shards, w.name, vs.firstName)
		s.tryEmit()
		s.drain()
	case !js.queue.Complete(k):
		s.stats.Discarded++
		s.logf("cluster: discarding duplicate result for job %d shard %d/%d from %s", ji, k, js.job.Shards, w.name)
	default:
		js.times.add(took)
		js.partials[k] = &experiments.Partial{
			Version:    experiments.PartialVersion,
			Job:        ji,
			Experiment: js.job.Experiment,
			Shard:      k,
			Shards:     js.job.Shards,
			Seed:       js.job.Seed,
			Scale:      js.job.Scale,
			Loops:      loops,
		}
		if vs := js.verify[k]; vs != nil {
			enc, err := experiments.CanonicalLoops(loops)
			if err != nil {
				s.abort(fmt.Errorf("cluster: encoding job %d shard %d/%d for verification: %w", ji, k, js.job.Shards, err))
				return
			}
			vs.first = enc
			vs.firstID = w.id
			vs.firstName = w.name
			js.verifyQueue = append(js.verifyQueue, k)
			s.pump() // an idle second worker can start the re-run now
		}
		if js.queue.Done() {
			s.startMerge(ji)
		}
		s.drain()
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
	js.verifyLeft = 0
	js.verifyQueue = nil
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
	if len(s.idle) > 0 {
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
			if !w.dead && w.curShard >= 0 {
				s.logf("cluster: cutting off straggler %s still computing discarded job %d shard %d/%d after drain timeout", w.name, w.curJob, w.curShard, s.states[w.curJob].job.Shards)
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
		p, i, c := js.queue.Counts()
		pend += p
		inflight += i
		completed += c
		total += js.job.Shards
		verLeft += js.verifyLeft
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
		if !w.dead && w.curShard >= 0 {
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
// live job's queue is complete and every verification confirmed
// (cancelled jobs owe nothing). Merges and report delivery may still be
// outstanding.
func (s *scheduler) allDone() bool {
	for _, js := range s.states {
		if !js.cancelled && (!js.queue.Done() || js.verifyLeft > 0) {
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
		if js.merged == nil || js.verifyLeft > 0 {
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
	parts := make([]*experiments.Partial, 0, js.job.Shards)
	for k, p := range js.partials {
		if p == nil {
			s.abort(fmt.Errorf("cluster: internal error: job %d shard %d/%d completed without a partial", ji, k, js.job.Shards))
			return
		}
		parts = append(parts, p)
	}
	js.partials = nil
	s.out = append(s.out, effect{job: ji, parts: parts})
}

// fail returns one lost dispatch of job ji's shard k to where it came
// from: a fresh run to the job's queue, a verification re-run to the
// verify queue. The failure budget is charged — and, when exhausted,
// the run aborted — only when no other copy is still computing: a loss
// that speculation already covers is not a loss of progress.
func (s *scheduler) fail(ji, k int, verify bool, cause error) {
	js := s.states[ji]
	what := "shard"
	var live int
	var done bool
	if verify {
		what = "verification of shard"
		vs := js.verify[k]
		if vs.inFlight > 0 {
			vs.inFlight--
		}
		live, done = vs.inFlight, vs.resolved
	} else {
		// The dispatch always comes back, even for a completed shard —
		// Requeue on a done shard only fixes the live-copy accounting.
		live, done = js.queue.Requeue(k), js.queue.Completed(k)
	}
	if js.cancelled || done {
		// A cancelled job charges no budget: the loss costs nothing
		// because the result would have been discarded anyway.
		return
	}
	if live > 0 {
		s.logf("cluster: a copy of job %d %s %d/%d failed, %d live copies remain: %v", ji, what, k, js.job.Shards, live, cause)
		return
	}
	js.failures[k]++
	s.stats.Requeued++
	if js.failures[k] > max(s.o.Retries, 0) {
		s.abort(fmt.Errorf("cluster: job %d (%s): %s %d/%d failed %d times, last: %w", ji, js.job.Experiment, what, k, js.job.Shards, js.failures[k], cause))
		return
	}
	s.logf("cluster: requeueing job %d %s %d/%d after failure %d/%d: %v", ji, what, k, js.job.Shards, js.failures[k], max(s.o.Retries, 0), cause)
	if verify {
		js.verifyQueue = append(js.verifyQueue, k)
	}
}

func (s *scheduler) stopWorker(w *workerState) {
	if !w.stopped && !w.dead {
		w.stopped = true
		s.send(w, &Stop{})
	}
}

func (s *scheduler) assign(w *workerState, ji, k int, verify bool) {
	js := s.states[ji]
	w.curJob, w.curShard, w.curVerify = ji, k, verify
	w.assignedAt = s.now
	w.loops = nil
	s.send(w, &Assign{
		Job:        ji,
		Experiment: js.job.Experiment,
		Seed:       js.job.Seed,
		Scale:      js.job.Scale,
		Workers:    s.o.ShardWorkers,
		Shard:      k,
		Shards:     js.job.Shards,
	})
}

// speculable lists the live copies the straggler rule may duplicate:
// the only live copy of an incomplete shard, and the only live copy of
// an unresolved verification re-run.
func (s *scheduler) speculable() []liveCopy {
	var out []liveCopy
	for _, h := range s.workers {
		if h.dead || h.curShard < 0 || s.states[h.curJob].cancelled {
			continue
		}
		js := s.states[h.curJob]
		if h.curVerify {
			if vs := js.verify[h.curShard]; vs.resolved || vs.inFlight != 1 {
				continue
			}
		} else if !js.queue.Stealable(h.curShard) {
			continue
		}
		out = append(out, liveCopy{job: h.curJob, shard: h.curShard, verify: h.curVerify, since: h.assignedAt})
	}
	return out
}

func (s *scheduler) threshold(ji int) (time.Duration, bool) { return s.states[ji].times.threshold() }

// dispatch hands the next unit of work to a free worker — the earliest
// incomplete job's next fresh shard, then a pending verification
// re-run, then a speculative copy of a straggler — or parks it idle.
// Fresh shards of job i always beat fresh shards of job i+1, so the
// campaign progresses in submission order while never idling a worker
// that job i can no longer feed.
func (s *scheduler) dispatch(w *workerState) {
	if w.dead || w.stopped || s.err != nil {
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
		if shard, ok := js.queue.Next(); ok {
			s.stats.Assigned++
			s.assign(w, ji, shard.Index, false)
			return
		}
		for qi, k := range js.verifyQueue {
			vs := js.verify[k]
			if vs.firstID == w.id && s.alive(true) > 1 && !vs.skipped {
				// Prefer a genuinely second worker; pass over once, then
				// let anyone take it so a shrunken fleet still finishes.
				vs.skipped = true
				continue
			}
			js.verifyQueue = append(js.verifyQueue[:qi], js.verifyQueue[qi+1:]...)
			vs.inFlight++
			s.logf("cluster: worker %s re-executing job %d shard %d/%d for verification (first by %s)", w.name, ji, k, js.job.Shards, vs.firstName)
			s.assign(w, ji, k, true)
			return
		}
	}
	// Speculation: a second copy of a straggler, a fresh shard or a
	// verification re-run whose only live copy has run past its job's
	// threshold; the first result wins and the other copy's is
	// discarded. For a verification re-run this is a liveness mechanism
	// (a hung verifier cannot stall the campaign), and any worker
	// qualifies (the different-worker preference had its chance when
	// the re-run was first dispatched).
	copies := s.speculable()
	if pick, _ := pickStraggler(s.now, copies, s.threshold); pick >= 0 {
		c := copies[pick]
		js := s.states[c.job]
		if c.verify {
			js.verify[c.shard].inFlight++
		} else if _, ok := js.queue.Steal(c.shard); !ok {
			s.abort(fmt.Errorf("cluster: internal error: job %d shard %d/%d listed as a straggler but not stealable", c.job, c.shard, js.job.Shards))
			return
		}
		s.stats.Stolen++
		s.logf("cluster: worker %s speculating on job %d shard %d/%d (verify=%v): its copy has run %v, over %d× the job's median shard time",
			w.name, c.job, c.shard, js.job.Shards, c.verify, s.now.Sub(c.since).Round(time.Millisecond), stragglerFactor)
		s.assign(w, c.job, c.shard, c.verify)
		return
	}
	s.idle = append(s.idle, w)
}

// pump re-dispatches every parked worker after a queue refills, not just
// up to the first that parks again: a verification re-run passes over
// its first result's worker. Workers torn down since leave idle here.
func (s *scheduler) pump() {
	parked := s.idle
	s.idle = nil
	for _, w := range parked {
		s.dispatch(w)
	}
}

// salvage recovers the assignment a worker abandoned (death or protocol
// violation): fresh shards return to their queue, verification re-runs
// to the verify queue.
func (s *scheduler) salvage(w *workerState, cause error) {
	ji, k, verify := w.curJob, w.curShard, w.curVerify
	w.curJob, w.curShard, w.curVerify = -1, -1, false
	if k < 0 {
		return
	}
	s.fail(ji, k, verify, cause)
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
		if !w.dead && w.curShard < 0 {
			s.stopWorker(w)
		}
	}
	if s.drainAt.IsZero() {
		s.drainAt = s.now.Add(drainTimeout)
	}
}

// snapshot builds an immutable Snapshot at now; done marks the final one.
func (s *scheduler) snapshot(now time.Time, done bool) *Snapshot {
	snap := &Snapshot{StartedAt: s.startedAt, At: now, Done: done, Stats: s.stats,
		Jobs: make([]JobStatus, 0, len(s.states)), Workers: make([]WorkerStatus, 0, len(s.workers))}
	for ji, js := range s.states {
		pend, inflight, completed := js.queue.Counts()
		st := JobStatus{
			Index:         ji,
			Experiment:    js.job.Experiment,
			Seed:          js.job.Seed,
			Scale:         js.job.Scale,
			Shards:        js.job.Shards,
			Queued:        pend,
			InFlight:      inflight,
			Completed:     completed,
			VerifySampled: len(js.sampled),
			Verified:      len(js.sampled) - js.verifyLeft,
		}
		for _, n := range js.failures {
			st.Failures += n
		}
		phases := js.queue.States()
		b := make([]byte, len(phases))
		for k, ph := range phases {
			b[k] = "qfd"[ph] // queued, in flight, completed
		}
		st.ShardStates = string(b)
		switch {
		case js.cancelled:
			st.State = "cancelled"
		case ji < s.nextEmit:
			st.State = "done"
		case js.mergeStarted:
			st.State = "merging"
		case completed == 0 && inflight == 0:
			st.State = "queued"
		default:
			st.State = "running"
		}
		if !js.cancelled {
			snap.QueueDepth += pend
		}
		snap.Jobs = append(snap.Jobs, st)
	}
	for _, w := range s.workers {
		ws := WorkerStatus{
			ID:         w.id,
			Name:       w.name,
			Job:        w.curJob,
			Shard:      w.curShard,
			Verify:     w.curVerify,
			ShardsDone: w.shardsDone,
			LoopsDone:  w.loopsDone,
		}
		switch {
		case w.dead:
			ws.State = "dead"
		case !w.helloed:
			ws.State = "handshake"
		case w.curShard >= 0:
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
