package cluster

import (
	"bytes"
	"crypto/rand"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/parallel"
	istats "repro/internal/stats"
)

// Job is one entry of a run: reproduce Experiment at Scale with Seed,
// its trial space split into Shards queued shards. Jobs run in
// submission order in the sense that fresh shards of job i always
// dispatch before fresh shards of job i+1 — but the moment job i's
// queue drains, idle workers flow into job i+1, so one job's stragglers
// overlap the next job's start instead of idling the fleet.
type Job struct {
	Experiment string
	Seed       int64
	Scale      float64
	// Shards is this job's queue length K, at most MaxShards. Keep it a
	// few times the worker count so a straggler holds back one small
	// shard; the report is byte-identical for every K ≥ 1.
	Shards int
}

// MaxShards bounds a job's shard count. A coordinator allocates per-shard
// state for every job it admits, so an unbounded count lets one job spec
// exhaust its memory; shards beyond an experiment's trial count are
// empty assignments anyway. The largest trial loop of any registered
// experiment is 600 trials at paper scale (sec5-1), so the cap leaves
// about 7× headroom (DESIGN.md, "Admission bounds").
const MaxShards = 4096

// MaxOpenJobs bounds the jobs a coordinator holds admitted but neither
// delivered nor cancelled. Each one keeps per-shard state (and, once it
// runs, its results) until its report is out, so without the bound a
// coordinator fed over POST /jobs grows without limit. DESIGN.md
// ("Admission bounds") sizes it from the campaigns the repository runs.
const MaxOpenJobs = 256

// ErrQueueFull is admission's refusal of a job beyond MaxOpenJobs; a
// control plane answers it with 429, since the same job may be
// admitted once earlier reports are out.
var ErrQueueFull = errors.New("cluster: job queue full")

// checkJob is admission's per-job check: a registered experiment and
// 1 ≤ Shards ≤ MaxShards, so admitting a job never sizes per-shard
// state beyond the cap. The error completes "job N".
func checkJob(j Job) error {
	if _, ok := experiments.ByID(j.Experiment); !ok {
		return fmt.Errorf("names unknown experiment %q", j.Experiment)
	}
	if j.Shards < 1 {
		return fmt.Errorf("(%s) has no shard count", j.Experiment)
	}
	if j.Shards > MaxShards {
		return fmt.Errorf("(%s) asks for %d shards, above the cap of %d", j.Experiment, j.Shards, MaxShards)
	}
	return nil
}

// Options configures one Run; every setting applies to every job.
type Options struct {
	// ShardWorkers bounds the goroutines each assignment fans across
	// inside its worker (0 = the worker decides); MergeWorkers bounds
	// each merged finish phase's in-process parallelism (0 = one per
	// CPU).
	ShardWorkers int
	MergeWorkers int
	// Retries is the failure budget per shard: a shard abandoned by a
	// dying worker or reported failed re-dispatches up to Retries times
	// before the run aborts. Negative means no retries.
	Retries int
	// NoSteal disables speculative re-dispatch of in-flight shards to
	// idle workers. Stealing is on by default, and takes only a
	// straggler: a shard whose live copy has run more than twice its
	// job's median completed-shard time. A duplicate costs only wasted
	// cycles (bytes are identical either way and the first result wins)
	// and caps straggler latency.
	NoSteal bool
	// Verify is the verification sampling fraction in [0, 1]: 0 trusts
	// worker results; any positive fraction re-executes each job's
	// VerifySample on a second worker and byte-compares the results
	// through experiments.CanonicalLoops. The determinism contract makes
	// any divergence a hard fault: the run aborts with a *VerifyError.
	Verify float64
	// DrainTimeout bounds how long the coordinator waits, after the last
	// shard completes, for speculative losers to finish their shard and
	// exit the protocol cleanly; a worker still busy past the deadline
	// is cut off (its result was already discarded). 0 means a minute.
	DrainTimeout time.Duration
	// Token is the shared secret workers must prove knowledge of in the
	// hello handshake (HMAC over the per-conn challenge nonce). Empty
	// admits workers with an empty token — the trusted-LAN default.
	Token string
	// HeartbeatInterval is the coordinator→worker ping cadence, and
	// HeartbeatMisses the budget of intervals a worker may stay silent
	// (no frame of any kind) before it is declared hung and its shard
	// requeued. Zero means the defaults (2s × 15); a negative interval
	// disables heartbeats and liveness cutoffs entirely.
	HeartbeatInterval time.Duration
	HeartbeatMisses   int
	// Logf, if set, receives progress lines (dispatches, steals, worker
	// deaths).
	Logf func(format string, args ...any)
	// Emit, if set, receives each job's merged report in submission
	// order: a report goes out the moment its last shard has merged (and
	// its verification sample, if any, confirmed), gated only behind
	// every earlier job's report. Cancelled jobs are skipped. The Job is
	// passed alongside the index because jobs submitted through the
	// Control land beyond the initial list, and Emit is their only
	// delivery. Returning an error aborts the run.
	Emit func(job int, j Job, rep *experiments.Report) error
	// Control, if set, attaches a control plane to the run: the loop
	// publishes immutable status snapshots after every event (lock-free
	// for scrapers) and accepts job submission and cancellation as loop
	// events. A Control attaches to at most one run.
	Control *Control
}

// Result pairs one job with its merged report.
type Result struct {
	Job    Job
	Report *experiments.Report
}

// RunStats summarizes the dispatch history of one run.
type RunStats struct {
	// Workers counts connections that completed the hello handshake.
	Workers int
	// Assigned counts ordinary dispatches; Stolen counts speculative
	// re-dispatches of in-flight shards; Requeued counts failures
	// charged to shards by worker death or error; Discarded counts
	// shard results that lost a speculation race and were thrown away.
	Assigned, Stolen, Requeued, Discarded int
	// Verified counts verification re-runs that byte-matched the first
	// result (a mismatch aborts the run, so it never counts here).
	Verified int
	// Rejected counts connections refused in the handshake (bad or
	// missing token MAC); Hung counts workers dropped for exhausting the
	// heartbeat miss budget while holding an open connection; and
	// CorruptFrames counts connections dropped because a frame failed
	// the rolling CRC32C check (corruption, loss, or duplication on the
	// stream).
	Rejected, Hung, CorruptFrames int
	// Submitted counts jobs admitted through the control plane after
	// the campaign started; Cancelled counts jobs withdrawn through it.
	Submitted, Cancelled int
}

// Heartbeat defaults: generous enough that a worker grinding through a
// heavy shard on a loaded box never trips them (the worker's reader
// goroutine answers pings even mid-shard, so only a truly wedged or
// unreachable worker goes silent for the full budget).
const (
	defaultHeartbeatInterval = 2 * time.Second
	defaultHeartbeatMisses   = 15
)

// VerifyError is the hard fault of the verification mode: a shard was
// executed twice and the two canonical partial encodings differ. Under
// the determinism contract that can only mean corruption — a broken
// worker build, bad hardware, or a tampering peer — so the campaign
// aborts instead of publishing a report built from either copy.
type VerifyError struct {
	Job           int
	Experiment    string
	Shard, Shards int
	// First and Second name the workers whose results disagree.
	First, Second string
}

func (e *VerifyError) Error() string {
	return fmt.Sprintf("cluster: verification failed: job %d (%s) shard %d/%d diverges between workers %s and %s (determinism contract broken: corrupt worker or hardware)",
		e.Job, e.Experiment, e.Shard, e.Shards, e.First, e.Second)
}

// VerifySample picks the shard indices of one job that verification
// re-executes, in ascending order: a pure function of (job, index,
// fraction), so the coordinator, logs, and tests always agree on the
// sample and reruns of the same jobs verify the same shards. Each shard
// is included with probability fraction (drawn from the job's own seed
// stream, decorrelated from every trial seed by the derivation label);
// a positive fraction always verifies at least one shard, so opting in
// can never silently verify nothing.
func VerifySample(job Job, index int, fraction float64) []int {
	if fraction <= 0 || job.Shards < 1 {
		return nil
	}
	if fraction >= 1 {
		out := make([]int, job.Shards)
		for k := range out {
			out[k] = k
		}
		return out
	}
	stream := parallel.NewSeedStream(job.Seed).Derive(fmt.Sprintf("campaign-verify/%d/%s", index, job.Experiment))
	var out []int
	for k := 0; k < job.Shards; k++ {
		// Top 53 bits of the derived seed as a uniform draw in [0, 1).
		u := float64(uint64(stream.Seed(k))>>11) / (1 << 53)
		if u < fraction {
			out = append(out, k)
		}
	}
	if len(out) == 0 {
		out = append(out, int(uint64(stream.Seed(job.Shards))%uint64(job.Shards)))
	}
	return out
}

// workerState is the coordinator's view of one connection. All fields
// are owned by the coordinator loop; the sender and reader goroutines
// touch only conn and out.
type workerState struct {
	conn Conn
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
	// out feeds the connection's sender goroutine; closed on teardown.
	// The sender closes conn after draining, so a Stop queued before
	// teardown still reaches the worker.
	out     chan Message
	helloed bool
	stopped bool
	dead    bool
	// nonce is the challenge this conn's hello must MAC; lastSeen the
	// loop time of the conn's most recent frame (any kind), which the
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

// mergeDone carries one job's finished merge back into the event loop.
type mergeDone struct {
	job int
	rep *experiments.Report
	err error
}

// event is one input to the coordinator's single-threaded state
// machine: a new connection (msg, err and merge nil), a message, a dead
// connection (err set), the end of the accept loop (w nil), a completed
// background merge (merge set), a heartbeat tick (tick set), or a
// control-plane mutation (ctl set).
type event struct {
	w     *workerState
	msg   Message
	err   error
	merge *mergeDone
	tick  bool
	ctl   *ctlReq
}

// newNonce draws a fresh challenge nonce. crypto/rand cannot fail on
// any supported platform; if it somehow does, the nonce degrades to a
// counter-free constant and auth still requires the token (a replayed
// MAC would also need the same worker name).
func newNonce() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "norand"
	}
	return hex.EncodeToString(b[:])
}

// Run executes an ordered set of jobs over the transport's workers and
// returns one result per job, in submission order; a single experiment
// is a one-job run. Every job owns a shard queue; a worker going idle
// takes the next fresh shard of the earliest incomplete job, then a
// pending verification re-run, then a speculative copy of a straggler
// — so shards of different experiments interleave in one
// multi-queue and the tail of job i overlaps the head of job i+1. Shards
// lost to dying workers re-dispatch within the per-shard retry budget,
// the first completion of each shard wins, and each job's completed
// shard set feeds experiments.MergeShards unchanged — so every report
// is byte-identical to the single-process run of its job, whatever the
// transport, worker count, assignment order, interleaving, or failure
// history. Reports also go out through o.Emit in submission order, each
// the moment its merge (and verification sample) completes and its
// predecessors are out.
func Run(t Transport, jobs []Job, o Options) ([]Result, RunStats, error) {
	var stats RunStats
	if len(jobs) == 0 {
		return nil, stats, errors.New("cluster: no jobs")
	}
	// Negated form so NaN (for which every comparison is false) is
	// rejected too.
	if !(o.Verify >= 0 && o.Verify <= 1) {
		return nil, stats, fmt.Errorf("cluster: verification fraction %g outside [0, 1]", o.Verify)
	}
	logf := o.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	retries := o.Retries
	if retries < 0 {
		retries = 0
	}
	hbInterval := o.HeartbeatInterval
	if hbInterval == 0 {
		hbInterval = defaultHeartbeatInterval
	}
	hbMisses := o.HeartbeatMisses
	if hbMisses <= 0 {
		hbMisses = defaultHeartbeatMisses
	}
	heartbeats := hbInterval > 0
	var cutoff time.Duration
	if heartbeats {
		cutoff = hbInterval * time.Duration(hbMisses)
	}

	// admit validates a job and queues it behind every earlier one,
	// with its verification sample. Jobs given at start and jobs
	// submitted through the Control both come in here. open counts the
	// admitted jobs neither delivered nor cancelled.
	var states []*jobState
	open := 0
	admit := func(j Job) (int, error) {
		ji := len(states)
		if err := checkJob(j); err != nil {
			return 0, fmt.Errorf("cluster: job %d %w", ji, err)
		}
		if open >= MaxOpenJobs {
			return 0, fmt.Errorf("cluster: job %d (%s): %w: %d jobs admitted and not yet delivered", ji, j.Experiment, ErrQueueFull, open)
		}
		open++
		js := &jobState{
			job:      j,
			queue:    parallel.NewShardQueue(j.Shards),
			partials: make([]*experiments.Partial, j.Shards),
			failures: make([]int, j.Shards),
			verify:   map[int]*verifyState{},
			sampled:  VerifySample(j, ji, o.Verify),
		}
		for _, k := range js.sampled {
			js.verify[k] = &verifyState{}
		}
		js.verifyLeft = len(js.sampled)
		states = append(states, js)
		return ji, nil
	}
	results := make([]Result, len(jobs))
	ids := make([]string, len(jobs))
	for ji, j := range jobs {
		if _, err := admit(j); err != nil {
			return nil, stats, err
		}
		results[ji].Job = j
		ids[ji] = j.Experiment
	}
	// Every worker is told right after its hello to build the phy tables
	// the initial jobs will read, once, before the first assignment's
	// trial fan-out would race to build them; they stay cached across
	// every assignment of the run. Jobs submitted later warm lazily.
	prepare := &Prepare{Frames: experiments.FrameSizes(ids...)}

	ctl := o.Control
	if ctl != nil {
		if !ctl.attach() {
			return nil, stats, errors.New("cluster: Control already attached to a campaign")
		}
		// finish unblocks every pending and future Submit/Cancel with
		// ErrNotRunning once the campaign is over (including all early
		// error returns below).
		defer ctl.finish()
	}
	startedAt := time.Now()

	events := make(chan event, 256)
	var workers []*workerState
	var idle []*workerState
	acceptDone := false
	var acceptErr error
	nextEmit := 0

	// Every producer goroutine (accept loop, per-connection reader and
	// sender, background merges) registers here; the drain phase at the
	// end keeps consuming events until all of them have exited, so none
	// leaks blocked on the channel.
	var producers sync.WaitGroup
	spawn := func(fn func()) {
		producers.Add(1)
		go func() {
			defer producers.Done()
			fn()
		}()
	}

	spawn(func() {
		id := 0
		for {
			c, err := t.Accept()
			if err != nil {
				events <- event{err: err}
				return
			}
			w := &workerState{conn: c, id: id, curJob: -1, curShard: -1, out: make(chan Message, 4)}
			id++
			events <- event{w: w}
		}
	})

	// The heartbeat ticker feeds the loop; loopDone stops it once the
	// campaign's event loop exits (the drain below consumes any tick
	// already in flight).
	loopDone := make(chan struct{})
	if ctl != nil {
		// Control mutations become loop events through this forwarder, so
		// they serialize with dispatch exactly like worker messages. The
		// buffered reply channel means answering never blocks the loop.
		spawn(func() {
			for {
				select {
				case r := <-ctl.reqs:
					select {
					case events <- event{ctl: &r}:
					case <-loopDone:
						r.reply <- ctlReply{err: ErrNotRunning}
						return
					}
				case <-loopDone:
					return
				}
			}
		})
	}
	if heartbeats {
		spawn(func() {
			tick := time.NewTicker(hbInterval)
			defer tick.Stop()
			for {
				select {
				case <-tick.C:
					select {
					case events <- event{tick: true}:
					case <-loopDone:
						return
					}
				case <-loopDone:
					return
				}
			}
		})
	}

	startWorker := func(w *workerState) {
		workers = append(workers, w)
		spawn(func() { // sender: owns the conn's write side and final close
			defer w.conn.Close()
			failed := false
			for m := range w.out {
				if failed {
					continue // drain so the loop's send() never blocks on a broken conn
				}
				if err := w.conn.Send(m); err != nil {
					failed = true
					events <- event{w: w, err: err}
				}
			}
		})
		spawn(func() { // reader
			for {
				m, err := w.conn.Recv()
				if err != nil {
					events <- event{w: w, err: err}
					return
				}
				events <- event{w: w, msg: m}
			}
		})
	}

	// teardown removes a worker from service. Graceful teardown lets the
	// sender flush queued messages (the Stop) before it closes the
	// connection; abrupt teardown closes it immediately.
	teardown := func(w *workerState, graceful bool) {
		if w.dead {
			return
		}
		w.dead = true
		close(w.out)
		if !graceful {
			w.conn.Close()
		}
		for i, iw := range idle {
			if iw == w {
				idle = append(idle[:i], idle[i+1:]...)
				break
			}
		}
	}

	alive := func() int {
		n := 0
		for _, w := range workers {
			if !w.dead {
				n++
			}
		}
		return n
	}

	send := func(w *workerState, m Message) {
		if !w.dead {
			w.out <- m
		}
	}

	var abortErr error
	abort := func(err error) {
		if abortErr == nil {
			abortErr = err
		}
	}

	// allDone reports whether no further worker-side work can exist:
	// every live job's queue is complete and every verification
	// confirmed (cancelled jobs owe nothing). Merges and report delivery
	// may still be outstanding.
	allDone := func() bool {
		for _, js := range states {
			if js.cancelled {
				continue
			}
			if !js.queue.Done() || js.verifyLeft > 0 {
				return false
			}
		}
		return true
	}

	// tryEmit delivers merged reports in submission order: the head job
	// goes out the moment it is merged and verified, then the next, so a
	// late-merging early job is the only thing that can hold a finished
	// later report back.
	tryEmit := func() {
		for nextEmit < len(states) {
			js := states[nextEmit]
			if js.cancelled {
				// A cancelled job emits nothing; it must not hold later
				// reports back either.
				nextEmit++
				continue
			}
			if js.merged == nil || js.verifyLeft > 0 {
				return
			}
			if nextEmit < len(results) {
				results[nextEmit].Report = js.merged
			}
			if o.Emit != nil {
				if err := o.Emit(nextEmit, js.job, js.merged); err != nil {
					abort(fmt.Errorf("cluster: delivering job %d (%s) report: %w", nextEmit, js.job.Experiment, err))
					return
				}
			}
			js.merged = nil
			open--
			nextEmit++
		}
	}

	// Each job's merge starts the moment its last shard completes,
	// overlapping later jobs' execution and the drain of speculative
	// stragglers; the result comes back as an event so delivery happens
	// on the loop, in submission order.
	startMerge := func(ji int) {
		js := states[ji]
		if js.mergeStarted {
			return
		}
		js.mergeStarted = true
		parts := make([]*experiments.Partial, 0, js.job.Shards)
		for k, p := range js.partials {
			if p == nil {
				abort(fmt.Errorf("cluster: internal error: job %d shard %d/%d completed without a partial", ji, k, js.job.Shards))
				return
			}
			parts = append(parts, p)
		}
		js.partials = nil
		spawn(func() {
			rep, err := experiments.MergeShards(parts, o.MergeWorkers)
			events <- event{merge: &mergeDone{job: ji, rep: rep, err: err}}
		})
	}

	// fail returns one lost dispatch of job ji's shard k to where it
	// came from: a fresh run to the job's queue, a verification re-run
	// to the verify queue. The failure budget is charged — and, when
	// exhausted, the run aborted — only when no other copy is still
	// computing: a loss that speculation already covers is not a loss
	// of progress.
	fail := func(ji, k int, verify bool, cause error) {
		js := states[ji]
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
			logf("cluster: a copy of job %d %s %d/%d failed, %d live copies remain: %v", ji, what, k, js.job.Shards, live, cause)
			return
		}
		js.failures[k]++
		stats.Requeued++
		if js.failures[k] > retries {
			abort(fmt.Errorf("cluster: job %d (%s): %s %d/%d failed %d times, last: %w", ji, js.job.Experiment, what, k, js.job.Shards, js.failures[k], cause))
			return
		}
		logf("cluster: requeueing job %d %s %d/%d after failure %d/%d: %v", ji, what, k, js.job.Shards, js.failures[k], retries, cause)
		if verify {
			js.verifyQueue = append(js.verifyQueue, k)
		}
	}

	stopWorker := func(w *workerState) {
		if !w.stopped && !w.dead {
			w.stopped = true
			send(w, &Stop{})
		}
	}

	assign := func(w *workerState, ji, k int, verify bool) {
		js := states[ji]
		w.curJob, w.curShard, w.curVerify = ji, k, verify
		w.assignedAt = time.Now()
		w.loops = nil
		send(w, &Assign{
			Job:        ji,
			Experiment: js.job.Experiment,
			Seed:       js.job.Seed,
			Scale:      js.job.Scale,
			Workers:    o.ShardWorkers,
			Shard:      k,
			Shards:     js.job.Shards,
		})
	}

	// speculable lists the live copies the straggler rule may duplicate:
	// the only live copy of an incomplete shard (none under NoSteal), and
	// the only live copy of an unresolved verification re-run.
	speculable := func() []liveCopy {
		var out []liveCopy
		for _, h := range workers {
			if h.dead || h.curShard < 0 {
				continue
			}
			js := states[h.curJob]
			if js.cancelled {
				continue
			}
			if h.curVerify {
				if vs := js.verify[h.curShard]; vs.resolved || vs.inFlight != 1 {
					continue
				}
			} else if o.NoSteal || !js.queue.Stealable(h.curShard) {
				continue
			}
			out = append(out, liveCopy{job: h.curJob, shard: h.curShard, verify: h.curVerify, since: h.assignedAt})
		}
		return out
	}
	threshold := func(ji int) (time.Duration, bool) { return states[ji].times.threshold() }

	// dispatch hands the next unit of work to a free worker — the
	// earliest incomplete job's next fresh shard, then a pending
	// verification re-run, then a speculative copy of a straggler — or
	// parks it idle. Fresh shards of job i always beat
	// fresh shards of job i+1, so the campaign progresses in submission
	// order while never idling a worker that job i can no longer feed.
	dispatch := func(w *workerState) {
		if w.dead || w.stopped || abortErr != nil {
			return
		}
		if allDone() {
			stopWorker(w)
			return
		}
		for ji, js := range states {
			if js.cancelled {
				continue
			}
			if shard, ok := js.queue.Next(); ok {
				stats.Assigned++
				assign(w, ji, shard.Index, false)
				return
			}
			for qi, k := range js.verifyQueue {
				vs := js.verify[k]
				if vs.firstID == w.id && alive() > 1 && !vs.skipped {
					// Prefer a genuinely second worker; pass over once,
					// then let anyone take it so a shrunken fleet still
					// finishes.
					vs.skipped = true
					continue
				}
				js.verifyQueue = append(js.verifyQueue[:qi], js.verifyQueue[qi+1:]...)
				vs.inFlight++
				logf("cluster: worker %s re-executing job %d shard %d/%d for verification (first by %s)", w.name, ji, k, js.job.Shards, vs.firstName)
				assign(w, ji, k, true)
				return
			}
		}
		// Speculation: a second copy of a straggler, a fresh shard or a
		// verification re-run whose only live copy has run past its job's
		// threshold; the first result wins and the other copy's is
		// discarded. For a verification re-run this is a liveness
		// mechanism (a hung verifier cannot stall the campaign), so it
		// ignores NoSteal, and any worker qualifies (the different-worker
		// preference had its chance when the re-run was first
		// dispatched).
		now := time.Now()
		copies := speculable()
		if pick, _ := pickStraggler(now, copies, threshold); pick >= 0 {
			c := copies[pick]
			js := states[c.job]
			if c.verify {
				js.verify[c.shard].inFlight++
			} else if _, ok := js.queue.Steal(c.shard); !ok {
				abort(fmt.Errorf("cluster: internal error: job %d shard %d/%d listed as a straggler but not stealable", c.job, c.shard, js.job.Shards))
				return
			}
			stats.Stolen++
			logf("cluster: worker %s speculating on job %d shard %d/%d (verify=%v): its copy has run %v, over %d× the job's median shard time",
				w.name, c.job, c.shard, js.job.Shards, c.verify, now.Sub(c.since).Round(time.Millisecond), stragglerFactor)
			assign(w, c.job, c.shard, c.verify)
			return
		}
		idle = append(idle, w)
	}

	// A parked worker looks again when the first in-flight copy crosses
	// its job's threshold (at once if one already has): the speculation
	// timer fires then, and specC is nil while it is unarmed.
	specTimer := time.NewTimer(time.Hour)
	specTimer.Stop()
	var specC <-chan time.Time
	var specAt time.Time
	armSpeculation := func() {
		var next time.Time
		if len(idle) > 0 {
			now := time.Now()
			var pick int
			if pick, next = pickStraggler(now, speculable(), threshold); pick >= 0 {
				next = now
			}
		}
		if next.IsZero() {
			specTimer.Stop()
			specC = nil
		} else if specC == nil || !next.Equal(specAt) {
			specTimer.Reset(time.Until(next))
			specAt, specC = next, specTimer.C
		}
	}

	// pump re-dispatches parked workers after a queue refills.
	pump := func() {
		for len(idle) > 0 {
			w := idle[0]
			idle = idle[1:]
			before := len(idle)
			dispatch(w)
			if len(idle) > before {
				return // parked again: nothing left to hand out
			}
		}
	}

	// salvage recovers the assignment a worker abandoned (death or
	// protocol violation): fresh shards go back to their queue,
	// verification re-runs back to the verify queue.
	salvage := func(w *workerState, cause error) {
		ji, k, verify := w.curJob, w.curShard, w.curVerify
		w.curJob, w.curShard, w.curVerify = -1, -1, false
		if k < 0 {
			return
		}
		fail(ji, k, verify, cause)
		pump()
	}

	// violation drops a worker that broke the protocol and salvages its
	// assignment.
	violation := func(w *workerState, why string) {
		logf("cluster: dropping worker %s: %s", w.name, why)
		teardown(w, false)
		salvage(w, fmt.Errorf("worker %s dropped: %s", w.name, why))
	}

	// release stops every live worker with nothing in flight once no
	// assignable work remains; stragglers still computing a speculative
	// copy drain out cleanly (bounded by the drain deadline).
	release := func() {
		for _, w := range workers {
			if !w.dead && w.curShard < 0 {
				stopWorker(w)
			}
		}
	}

	// finished reports campaign completion: every report delivered and
	// no live worker still computing (speculative stragglers drain out
	// cleanly rather than seeing their connection vanish mid-shard).
	finished := func() bool {
		if nextEmit < len(states) {
			return false
		}
		for _, w := range workers {
			if !w.dead && w.curShard >= 0 {
				return false
			}
		}
		return true
	}

	// The drain deadline arms when the last assignable work completes:
	// speculative losers get that long to finish cleanly; a hung
	// straggler cannot hold the (already merged) campaign hostage.
	var drainDeadline <-chan time.Time
	armDrainDeadline := func() {
		if drainDeadline != nil {
			return
		}
		d := o.DrainTimeout
		if d <= 0 {
			d = time.Minute
		}
		drainDeadline = time.NewTimer(d).C
	}

	// publish builds a fresh immutable Snapshot of the loop's state and
	// swaps it into the Control — the entire read path of the control
	// plane. It runs at the end of every loop iteration, so scrapers
	// always see a complete post-event view and never touch loop state.
	publish := func(done bool) {
		if ctl == nil {
			return
		}
		now := time.Now()
		s := &Snapshot{StartedAt: startedAt, At: now, Done: done, Stats: stats}
		s.Jobs = make([]JobStatus, 0, len(states))
		for ji, js := range states {
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
				switch ph {
				case parallel.ShardCompleted:
					b[k] = 'd'
				case parallel.ShardInFlight:
					b[k] = 'f'
				default:
					b[k] = 'q'
				}
			}
			st.ShardStates = string(b)
			switch {
			case js.cancelled:
				st.State = "cancelled"
			case ji < nextEmit:
				st.State = "done"
			case js.mergeStarted:
				st.State = "merging"
			case completed == 0 && inflight == 0:
				st.State = "queued"
			default:
				st.State = "running"
			}
			if !js.cancelled {
				s.QueueDepth += pend
			}
			s.Jobs = append(s.Jobs, st)
		}
		s.Workers = make([]WorkerStatus, 0, len(workers))
		for _, w := range workers {
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
			if !w.connectedAt.IsZero() {
				ws.UptimeSec = now.Sub(w.connectedAt).Seconds()
				if ws.UptimeSec > 0 {
					ws.LoopsPerSec = float64(w.loopsDone) / ws.UptimeSec
				}
				ws.LastSeenSec = now.Sub(w.lastSeen).Seconds()
			}
			s.Workers = append(s.Workers, ws)
		}
		ctl.snap.Store(s)
	}
	publish(false) // initial snapshot: jobs visible before the first event

	for abortErr == nil && !finished() {
		armSpeculation()
		var ev event
		select {
		case ev = <-events:
		case <-specC:
			specC = nil
			pump()
			publish(false)
			continue
		case <-drainDeadline:
			for _, w := range workers {
				if !w.dead && w.curShard >= 0 {
					logf("cluster: cutting off straggler %s still computing discarded job %d shard %d/%d after drain timeout", w.name, w.curJob, w.curShard, states[w.curJob].job.Shards)
					if !w.curVerify {
						states[w.curJob].queue.Requeue(w.curShard) // completed shard: only returns the live copy
					}
					w.curJob, w.curShard, w.curVerify = -1, -1, false
					teardown(w, false)
				}
			}
			continue
		}
		switch {
		case ev.ctl != nil:
			r := ev.ctl
			switch {
			case r.submit != nil:
				if allDone() {
					// All existing work is finished and the fleet is
					// stopping (or already stopped): a job admitted now
					// could never dispatch. The operator starts a fresh
					// campaign instead.
					r.reply <- ctlReply{err: errors.New("cluster: submit: campaign already draining")}
					break
				}
				ji, err := admit(*r.submit)
				if err != nil {
					r.reply <- ctlReply{err: fmt.Errorf("cluster: submit: %w", err)}
					break
				}
				stats.Submitted++
				logf("cluster: control: submitted job %d (%s, %d shards)", ji, r.submit.Experiment, r.submit.Shards)
				r.reply <- ctlReply{job: ji}
				pump()
			default:
				ji := r.cancel
				if ji < 0 || ji >= len(states) {
					r.reply <- ctlReply{err: fmt.Errorf("cluster: cancel: no job %d", ji)}
					break
				}
				js := states[ji]
				switch {
				case js.cancelled:
					r.reply <- ctlReply{err: fmt.Errorf("cluster: cancel: job %d already cancelled", ji)}
				case js.mergeStarted || ji < nextEmit:
					r.reply <- ctlReply{err: fmt.Errorf("cluster: cancel: job %d (%s) already completed", ji, js.job.Experiment)}
				default:
					js.cancelled = true
					js.verifyLeft = 0
					js.verifyQueue = nil
					open--
					stats.Cancelled++
					logf("cluster: control: cancelled job %d (%s)", ji, js.job.Experiment)
					r.reply <- ctlReply{job: ji}
					// The cancellation may have been the last thing the
					// campaign was waiting on.
					tryEmit()
					if allDone() {
						release()
						armDrainDeadline()
					}
				}
			}
		case ev.merge != nil:
			if ev.merge.err != nil {
				abort(fmt.Errorf("cluster: job %d (%s): %w", ev.merge.job, states[ev.merge.job].job.Experiment, ev.merge.err))
				break
			}
			states[ev.merge.job].merged = ev.merge.rep
			tryEmit()
		case ev.tick:
			now := time.Now()
			for _, w := range workers {
				if w.dead {
					continue
				}
				if silent := now.Sub(w.lastSeen); silent > cutoff {
					if !w.helloed {
						stats.Rejected++
						logf("cluster: dropping connection %d: no hello within %v", w.id, cutoff)
						teardown(w, false)
						continue
					}
					stats.Hung++
					logf("cluster: worker %s silent for %v (heartbeat budget %d×%v): dropping as hung", w.name, silent, hbMisses, hbInterval)
					teardown(w, false)
					salvage(w, fmt.Errorf("worker %s hung: no frames for %v", w.name, silent))
					continue
				}
				if w.helloed && !w.stopped {
					w.pingSeq++
					send(w, &Ping{Seq: w.pingSeq})
				}
			}
		case ev.w == nil:
			// Accept loop ended. A fixed-size pool exhausting itself
			// (io.EOF) or the final transport Close are expected; a real
			// accept failure is kept for the stall diagnosis — it is the
			// root cause when no worker ever appears.
			acceptDone = true
			if ev.err != nil && ev.err != io.EOF && !errors.Is(ev.err, net.ErrClosed) {
				acceptErr = ev.err
				logf("cluster: transport stopped accepting workers: %v", ev.err)
			}
		case ev.err != nil:
			if ev.w.dead {
				break
			}
			if errors.Is(ev.err, istats.ErrChecksum) {
				// The conn's rolling chain broke: a frame was corrupted,
				// dropped, or duplicated in flight. Resynchronizing is
				// impossible, so the peer is dropped like any dead worker
				// and its shard salvaged — the typed count is the audit
				// trail.
				stats.CorruptFrames++
				logf("cluster: integrity failure on worker %s's connection: %v", ev.w.name, ev.err)
			}
			busy := ev.w.curShard >= 0
			if busy {
				logf("cluster: worker %s died holding job %d shard %d/%d: %v", ev.w.name, ev.w.curJob, ev.w.curShard, states[ev.w.curJob].job.Shards, ev.err)
			} else {
				logf("cluster: worker %s disconnected: %v", ev.w.name, ev.err)
			}
			teardown(ev.w, false)
			salvage(ev.w, fmt.Errorf("worker %s died: %w", ev.w.name, ev.err))
		case ev.msg == nil:
			// Fresh connection: arm its per-message deadlines, start its
			// goroutines, and open the session with the challenge. The
			// hello must answer before the heartbeat cutoff or the tick
			// handler reaps the conn.
			if ts, ok := ev.w.conn.(timeoutSetter); ok && heartbeats {
				ts.SetTimeouts(2*cutoff, cutoff)
			}
			ev.w.nonce = newNonce()
			ev.w.lastSeen = time.Now()
			ev.w.connectedAt = ev.w.lastSeen
			startWorker(ev.w)
			ch := &Challenge{Version: ProtoVersion, Nonce: ev.w.nonce}
			if heartbeats {
				ch.PingMs = int(hbInterval / time.Millisecond)
				ch.CutoffMs = int(cutoff / time.Millisecond)
			}
			send(ev.w, ch)
		default:
			w := ev.w
			if w.dead {
				break
			}
			w.lastSeen = time.Now()
			switch m := ev.msg.(type) {
			case *Hello:
				if w.helloed {
					violation(w, "second hello")
					break
				}
				if !verifyHello(o.Token, w.nonce, m) {
					stats.Rejected++
					logf("cluster: rejecting worker %q: bad or missing token MAC", m.Name)
					send(w, &Reject{Reason: "authentication failed"})
					teardown(w, true)
					break
				}
				w.helloed = true
				w.name = m.Name
				stats.Workers++
				logf("cluster: worker %s connected", w.name)
				send(w, prepare)
				dispatch(w)
			case *Pong:
				// Liveness answer; lastSeen is already refreshed above.
			case *LoopResult:
				if !w.helloed || m.Job != w.curJob || m.Shard != w.curShard {
					violation(w, fmt.Sprintf("loop result for job %d shard %d while holding job %d shard %d", m.Job, m.Shard, w.curJob, w.curShard))
					break
				}
				w.loopsDone++
				if !states[w.curJob].cancelled {
					w.loops = append(w.loops, m.Loop)
				}
			case *ShardDone:
				if !w.helloed || m.Job != w.curJob || m.Shard != w.curShard {
					violation(w, fmt.Sprintf("done for job %d shard %d while holding job %d shard %d", m.Job, m.Shard, w.curJob, w.curShard))
					break
				}
				ji := w.curJob
				js := states[ji]
				loops := w.loops
				wasVerify := w.curVerify
				took := time.Since(w.assignedAt)
				w.curJob, w.curShard, w.curVerify = -1, -1, false
				w.loops = nil
				w.shardsDone++
				if js.cancelled {
					// The job was withdrawn while this shard was in
					// flight: keep the copy accounting coherent, throw the
					// result away, and put the worker back to work.
					if wasVerify {
						if vs := js.verify[m.Shard]; vs != nil && vs.inFlight > 0 {
							vs.inFlight--
						}
					} else {
						js.queue.Complete(m.Shard)
					}
					stats.Discarded++
					logf("cluster: discarding result for cancelled job %d shard %d/%d from %s", ji, m.Shard, js.job.Shards, w.name)
					dispatch(w)
					break
				}
				if wasVerify {
					vs := js.verify[m.Shard]
					if vs.inFlight > 0 {
						vs.inFlight--
					}
					enc, err := experiments.CanonicalLoops(loops)
					if err != nil {
						abort(fmt.Errorf("cluster: encoding verification re-run of job %d shard %d/%d: %w", ji, m.Shard, js.job.Shards, err))
						break
					}
					if !bytes.Equal(enc, vs.first) {
						abort(&VerifyError{Job: ji, Experiment: js.job.Experiment, Shard: m.Shard, Shards: js.job.Shards, First: vs.firstName, Second: w.name})
						break
					}
					if vs.resolved {
						// A speculative duplicate of an already-confirmed
						// re-run; it matched too, nothing more to record.
						stats.Discarded++
						logf("cluster: discarding duplicate verification of job %d shard %d/%d from %s", ji, m.Shard, js.job.Shards, w.name)
					} else {
						vs.resolved = true
						js.verifyLeft--
						stats.Verified++
						logf("cluster: job %d shard %d/%d verified: %s matches %s byte for byte", ji, m.Shard, js.job.Shards, w.name, vs.firstName)
						tryEmit()
						if allDone() {
							release()
							armDrainDeadline()
						}
					}
					dispatch(w)
					break
				}
				if js.queue.Complete(m.Shard) {
					js.times.add(took)
					js.partials[m.Shard] = &experiments.Partial{
						Version:    experiments.PartialVersion,
						Job:        ji,
						Experiment: js.job.Experiment,
						Shard:      m.Shard,
						Shards:     js.job.Shards,
						Seed:       js.job.Seed,
						Scale:      js.job.Scale,
						Loops:      loops,
					}
					if vs := js.verify[m.Shard]; vs != nil {
						enc, err := experiments.CanonicalLoops(loops)
						if err != nil {
							abort(fmt.Errorf("cluster: encoding job %d shard %d/%d for verification: %w", ji, m.Shard, js.job.Shards, err))
							break
						}
						vs.first = enc
						vs.firstID = w.id
						vs.firstName = w.name
						js.verifyQueue = append(js.verifyQueue, m.Shard)
						pump() // an idle second worker can start the re-run now
					}
					if js.queue.Done() {
						startMerge(ji)
					}
					if allDone() {
						release()
						armDrainDeadline()
					}
				} else {
					stats.Discarded++
					logf("cluster: discarding duplicate result for job %d shard %d/%d from %s", ji, m.Shard, js.job.Shards, w.name)
				}
				dispatch(w)
			case *ShardError:
				if !w.helloed || m.Job != w.curJob || m.Shard != w.curShard {
					violation(w, fmt.Sprintf("error for job %d shard %d while holding job %d shard %d", m.Job, m.Shard, w.curJob, w.curShard))
					break
				}
				salvage(w, fmt.Errorf("worker %s: %s", w.name, m.Msg))
				dispatch(w)
			default:
				violation(w, fmt.Sprintf("unexpected %T", ev.msg))
			}
		}
		// Stall check: no shard or verification can ever complete if
		// every worker is gone and no more can arrive.
		if abortErr == nil && acceptDone && alive() == 0 && !allDone() {
			var pend, inflight, completed, total, verLeft int
			for _, js := range states {
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
			if acceptErr != nil {
				stall = fmt.Errorf("%w; transport stopped accepting workers: %w", stall, acceptErr)
			}
			abort(stall)
		}
		publish(false)
	}
	publish(true)
	specTimer.Stop()

	close(loopDone)
	graceful := abortErr == nil
	for _, w := range workers {
		stopWorker(w)
		teardown(w, graceful)
	}
	t.Close()
	// Drain events until every producer goroutine has exited, so none
	// stays blocked on the channel.
	allExited := make(chan struct{})
	go func() {
		producers.Wait()
		close(allExited)
	}()
	for draining := true; draining; {
		select {
		case <-events:
		case <-allExited:
			draining = false
		}
	}

	if abortErr != nil {
		return nil, stats, abortErr
	}
	return results, stats, nil
}
