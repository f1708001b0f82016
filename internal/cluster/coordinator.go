package cluster

import (
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
// coordinator fed over POST /jobs grows without limit. Initial jobs
// count toward it but are never refused: they are the operator's own
// list, not network input. DESIGN.md ("Admission bounds") sizes it from
// the campaigns the repository runs.
const MaxOpenJobs = 256

// ErrQueueFull is admission's refusal of a submitted job while
// MaxOpenJobs jobs are open; a control plane answers it with 429, since
// the same job may be admitted once earlier reports are out.
var ErrQueueFull = errors.New("cluster: job queue full")

// Options configures one Run; every setting applies to every job.
type Options struct {
	// ShardWorkers bounds the goroutines each assignment fans across
	// inside its worker (0 = the worker decides).
	ShardWorkers int
	// Retries is the failure budget per shard: a shard abandoned by a
	// dying worker or reported failed re-dispatches up to Retries times
	// before the run aborts. Negative means no retries.
	Retries int
	// Verify is the verification sampling fraction in [0, 1]: 0 trusts
	// worker results; any positive fraction re-executes each job's
	// VerifySample on a second worker and byte-compares the results
	// through experiments.CanonicalLoops. The determinism contract makes
	// any divergence a hard fault: the run aborts with a *VerifyError.
	Verify float64
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
// is a one-job run. Every job, initial or submitted, passes checkJob,
// the rule ParseJob ends with, and keeps one task ledger, its fresh
// shard runs and its verification re-runs; a worker going idle takes
// the first pending task of the earliest incomplete job, else a
// speculative copy of a straggler — so shards of different experiments
// interleave and the tail of job i overlaps the head of job i+1. Tasks
// lost to dying workers re-dispatch within the per-shard retry budget,
// the first completion of each task wins, and each job's shards feed
// their loop records to experiments.MergeShards unchanged — so every
// report is byte-identical to the single-process run of its job,
// whatever the transport, worker count, assignment order, interleaving,
// or failure history. Reports also go out through o.Emit in submission
// order, each the moment its merge (and verification sample) completes
// and its predecessors are out. Run is the I/O shell of the scheduler,
// which makes every decision: it feeds it one input at a time from a
// select.
func Run(t Transport, jobs []Job, o Options) ([]Result, RunStats, error) {
	if len(jobs) == 0 {
		return nil, RunStats{}, errors.New("cluster: no jobs")
	}
	// Negated form so NaN (for which every comparison is false) is
	// rejected too.
	if !(o.Verify >= 0 && o.Verify <= 1) {
		return nil, RunStats{}, fmt.Errorf("cluster: verification fraction %g outside [0, 1]", o.Verify)
	}
	s, err := newScheduler(jobs, o, time.Now())
	if err != nil {
		return nil, RunStats{}, err
	}
	// Control mutations arrive on reqs (nil without a Control) in the
	// same select as worker messages, so they serialize with dispatch.
	var reqs chan ctlReq
	ctl := o.Control
	if ctl != nil {
		if !ctl.attach() {
			return nil, RunStats{}, errors.New("cluster: Control already attached to a campaign")
		}
		// finish unblocks every pending and future Submit/Cancel with
		// ErrNotRunning once the campaign is over.
		defer ctl.finish()
		reqs = ctl.reqs
	}
	// publish swaps a fresh immutable Snapshot into the Control — the
	// entire read path of the control plane. It runs after every input,
	// so scrapers always see a complete post-event view and never touch
	// loop state.
	publish := func(done bool) {
		if ctl != nil {
			ctl.snap.Store(s.snapshot(time.Now(), done))
		}
	}
	// events carries the producer goroutines' inputs (accept loop, conn
	// readers and senders, merges) to the loop, which runs each when it
	// takes it. The drain at the end consumes events until every producer
	// has exited, so none leaks blocked on the channel.
	events := make(chan func(now time.Time), 256)
	var producers sync.WaitGroup
	spawn := func(fn func()) {
		producers.Add(1)
		go func() {
			defer producers.Done()
			fn()
		}()
	}
	// outs[id] feeds worker id's sender goroutine, which owns the write
	// side and the final close, so a Stop queued before a graceful close
	// still reaches the worker.
	var conns []Conn
	var outs []chan Message
	connect := func(now time.Time, c Conn) {
		if ts, ok := c.(timeoutSetter); ok && s.cutoff > 0 {
			ts.SetTimeouts(2*s.cutoff, s.cutoff)
		}
		id := s.accept(now, newNonce())
		out := make(chan Message, 4)
		conns, outs = append(conns, c), append(outs, out)
		spawn(func() { // sender
			defer c.Close()
			failed := false
			for m := range out {
				if failed {
					continue // drain so the loop's sends never block on a broken conn
				}
				if err := c.Send(m); err != nil {
					failed = true
					events <- func(now time.Time) { s.lost(now, id, err) }
				}
			}
		})
		spawn(func() { // reader
			for {
				m, err := c.Recv()
				if err != nil {
					events <- func(now time.Time) { s.lost(now, id, err) }
					return
				}
				events <- func(now time.Time) { s.recv(now, id, m) }
			}
		})
	}
	spawn(func() {
		for {
			c, err := t.Accept()
			if err != nil {
				// A fixed-size pool exhausting itself (io.EOF) or the
				// final transport Close are expected ends.
				if err == io.EOF || errors.Is(err, net.ErrClosed) {
					err = nil
				}
				events <- func(now time.Time) { s.acceptEnded(now, err) }
				return
			}
			events <- func(now time.Time) { connect(now, c) }
		}
	})
	apply := func() {
		for _, e := range s.out {
			switch {
			case e.parts != nil:
				j := s.states[e.job].job
				spawn(func() {
					rep, err := experiments.MergeShards(j.Experiment, experiments.Config{Scale: j.Scale, Seed: j.Seed}, e.parts)
					events <- func(now time.Time) { s.merged(now, e.job, rep, err) }
				})
			case e.msg != nil:
				outs[e.worker] <- e.msg
			default:
				close(outs[e.worker])
				if !e.graceful {
					conns[e.worker].Close()
				}
			}
		}
		s.out = s.out[:0]
	}

	// One timer serves every deadline the scheduler keeps, re-armed to
	// its next one after each input.
	timer := time.NewTimer(time.Hour)
	defer timer.Stop()
	publish(false) // initial snapshot: jobs visible before the first event
	for !s.over() {
		var wake <-chan time.Time
		if at := s.next(); !at.IsZero() {
			timer.Reset(time.Until(at))
			wake = timer.C
		}
		select {
		case input := <-events:
			input(time.Now())
		case r := <-reqs:
			// The reply channel is buffered: answering never blocks.
			var rep ctlReply
			if r.submit != nil {
				rep.job, rep.err = s.submit(time.Now(), *r.submit)
			} else {
				rep.err = s.cancel(time.Now(), r.cancel)
			}
			r.reply <- rep
		case <-wake:
			s.wake(time.Now())
		}
		apply()
		publish(false)
	}
	publish(true)
	s.shutdown()
	apply()
	t.Close()
	go func() {
		producers.Wait()
		close(events)
	}()
	for range events {
	}

	if s.err != nil {
		return nil, s.stats, s.err
	}
	return s.results, s.stats, nil
}
