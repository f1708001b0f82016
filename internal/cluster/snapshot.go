package cluster

import (
	"errors"
	"sync/atomic"
	"time"
)

// This file is the coordinator's control plane: the immutable status
// snapshots the event loop publishes after every event, and the Control
// handle through which outside observers read them and submit or cancel
// jobs on the running fleet.
//
// The design keeps the determinism contract trivially intact. All
// coordinator state stays owned by the single-threaded event loop;
// scrapers never lock or touch it. Instead the loop builds a fresh
// Snapshot value at the end of each iteration and stores it in an
// atomic.Pointer, so a reader sees a complete, internally consistent
// view of some recent loop state — reads cannot block, slow, or reorder
// anything the loop does. Mutations (Submit/Cancel) arrive in the
// loop's select directly, so they serialize with dispatch exactly like a
// worker message.

// Snapshot is one immutable view of a running campaign, published by
// the coordinator loop. Readers must not mutate it.
type Snapshot struct {
	// StartedAt is when the campaign loop started; At when this snapshot
	// was built.
	StartedAt time.Time `json:"started_at"`
	At        time.Time `json:"at"`
	// Done marks the final snapshot, published after the loop exits.
	Done bool `json:"done"`
	// Stats is the live RunStats counter set (monotone while running).
	Stats RunStats `json:"stats"`
	// QueueDepth is the total number of undispatched fresh shards across
	// all live (non-cancelled) jobs.
	QueueDepth int `json:"queue_depth"`
	// Jobs has one entry per campaign job, initial and submitted, in
	// submission order; Workers one entry per connection ever accepted.
	Jobs    []JobStatus    `json:"jobs"`
	Workers []WorkerStatus `json:"workers"`
}

// JobStatus is one job's lifecycle view inside a Snapshot.
type JobStatus struct {
	Index      int     `json:"index"`
	Experiment string  `json:"experiment"`
	Seed       int64   `json:"seed"`
	Scale      float64 `json:"scale"`
	Shards     int     `json:"shards"`
	// State is one of queued, running, merging, done, cancelled.
	State string `json:"state"`
	// Queued/InFlight/Completed count shards (in-flight counts live
	// dispatches, so speculative copies count individually).
	Queued    int `json:"queued"`
	InFlight  int `json:"in_flight"`
	Completed int `json:"completed"`
	// ShardStates is one byte per shard: q(ueued), f (in flight),
	// d(one) — the per-shard map behind the counts.
	ShardStates string `json:"shard_states"`
	// VerifySampled counts shards in the verification sample, Verified
	// those already confirmed.
	VerifySampled int `json:"verify_sampled"`
	Verified      int `json:"verified"`
	// Failures is the failure-budget charge summed across shards.
	Failures int `json:"failures"`
}

// WorkerStatus is one connection's view inside a Snapshot.
type WorkerStatus struct {
	ID   int    `json:"id"`
	Name string `json:"name"`
	// State is one of handshake, idle, busy, stopped, dead.
	State string `json:"state"`
	// Job/Shard are the in-flight assignment (-1 when idle); Verify
	// marks it a verification re-run.
	Job    int  `json:"job"`
	Shard  int  `json:"shard"`
	Verify bool `json:"verify,omitempty"`
	// ShardsDone/LoopsDone count everything this worker finished or
	// streamed over the campaign; LoopsPerSec is the resulting
	// throughput over the connection's lifetime.
	ShardsDone  int     `json:"shards_done"`
	LoopsDone   int     `json:"loops_done"`
	LoopsPerSec float64 `json:"loops_per_sec"`
	UptimeSec   float64 `json:"uptime_sec"`
	LastSeenSec float64 `json:"last_seen_sec"`
}

// ErrNotRunning is returned by Control mutations once the campaign has
// finished (or before it attached).
var ErrNotRunning = errors.New("cluster: campaign is not running")

// ctlReq is one control mutation entering the event loop: submit (a new
// job) or cancel (a job index). reply is buffered so the loop never
// blocks answering.
type ctlReq struct {
	submit *Job
	cancel int
	reply  chan ctlReply
}

type ctlReply struct {
	job int
	err error
}

// Control is the handle a control plane holds on one campaign: a
// lock-free snapshot feed plus job submission and cancellation against
// the running scheduler. Create it with NewControl, pass it in
// Options.Control, and share it with the status server. A Control
// attaches to at most one campaign.
type Control struct {
	snap     atomic.Pointer[Snapshot]
	reqs     chan ctlReq
	done     chan struct{}
	attached atomic.Bool
	ended    atomic.Bool
}

// NewControl returns an unattached Control.
func NewControl() *Control {
	return &Control{reqs: make(chan ctlReq), done: make(chan struct{})}
}

// Snapshot returns the most recently published campaign snapshot, or
// nil if the campaign has not published one yet. The returned value is
// immutable and safe to retain.
func (c *Control) Snapshot() *Snapshot { return c.snap.Load() }

// Done is closed when the attached campaign finishes (successfully or
// not); mutations fail with ErrNotRunning from then on.
func (c *Control) Done() <-chan struct{} { return c.done }

// Submit queues a new job on the running campaign and returns its job
// index. The job dispatches after every earlier job's fresh shards,
// like any campaign entry, and its report is delivered through
// Options.Emit in submission order. Submission is rejected once the
// campaign is draining (all existing work done) — the fleet is already
// stopping.
func (c *Control) Submit(j Job) (int, error) {
	return c.roundTrip(ctlReq{submit: &j, reply: make(chan ctlReply, 1)})
}

// Cancel withdraws job index job: its undispatched shards never run,
// in-flight results are discarded, and no report is emitted for it.
// Cancelling a job whose report is already merged (or emitted) fails.
func (c *Control) Cancel(job int) error {
	_, err := c.roundTrip(ctlReq{cancel: job, submit: nil, reply: make(chan ctlReply, 1)})
	return err
}

func (c *Control) roundTrip(r ctlReq) (int, error) {
	select {
	case c.reqs <- r:
	case <-c.done:
		return 0, ErrNotRunning
	}
	select {
	case rep := <-r.reply:
		return rep.job, rep.err
	case <-c.done:
		return 0, ErrNotRunning
	}
}

// attach claims the Control for one campaign; false if already claimed.
func (c *Control) attach() bool { return c.attached.CompareAndSwap(false, true) }

// finish marks the campaign over, unblocking all pending and future
// mutations with ErrNotRunning.
func (c *Control) finish() {
	if c.ended.CompareAndSwap(false, true) {
		close(c.done)
	}
}
