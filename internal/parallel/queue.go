package parallel

import (
	"fmt"
	"sync"
)

// ShardQueue generalizes the static ShardPlan into the dynamic
// work-stealing dispatch state a cluster coordinator holds: the plan
// still fixes the shard set up front (shard k of K always owns the same
// contiguous trial slice, so results are bit-identical no matter who
// runs what, in which order, or how many times), but shards are handed
// out one at a time as workers free up rather than pre-assigned. A
// coordinator keeps K comfortably larger than the worker count so a
// straggling worker holds back one small shard, not 1/Kth of the run.
//
// The queue tracks three facts per shard — queued for dispatch, number
// of outstanding dispatches, completed — and supports the three moves a
// coordinator makes:
//
//	Next     pop the next undispatched shard;
//	Steal    re-dispatch a given in-flight shard speculatively (the
//	         caller picks the straggler; identical inputs produce
//	         identical partials, so whichever copy finishes first is
//	         used and the rest are discarded);
//	Requeue  return a dispatch that died with its worker.
//
// All methods are safe for concurrent use.
type ShardQueue struct {
	mu          sync.Mutex
	count       int
	pending     []int // shard indices awaiting dispatch, FIFO
	outstanding []int // live dispatches per shard
	done        []bool
	remaining   int // shards not yet completed
}

// maxCopies bounds speculative re-dispatch: at most this many live
// copies of one shard. Two copies already smooth a straggler; more just
// burns workers.
const maxCopies = 2

// NewShardQueue returns a queue over the count-shard plan (counts below
// one are clamped to one, matching NewShardPlan).
func NewShardQueue(count int) *ShardQueue {
	if count < 1 {
		count = 1
	}
	q := &ShardQueue{
		count:       count,
		pending:     make([]int, count),
		outstanding: make([]int, count),
		done:        make([]bool, count),
		remaining:   count,
	}
	for k := range q.pending {
		q.pending[k] = k
	}
	return q
}

// Len returns the total shard count K of the plan.
func (q *ShardQueue) Len() int { return q.count }

func (q *ShardQueue) check(k int) {
	if k < 0 || k >= q.count {
		panic(fmt.Sprintf("parallel: shard index %d out of range [0,%d)", k, q.count))
	}
}

// Next pops the next undispatched shard, if any.
func (q *ShardQueue) Next() (Shard, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if len(q.pending) == 0 {
		return Shard{}, false
	}
	k := q.pending[0]
	q.pending = q.pending[1:]
	q.outstanding[k]++
	return Shard{Index: k, Count: q.count}, true
}

// Steal re-dispatches in-flight shard k speculatively, the straggler
// the caller chose. It refuses (returns false) when Stealable(k) is
// false.
func (q *ShardQueue) Steal(k int) (Shard, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.stealable(k) {
		return Shard{}, false
	}
	q.outstanding[k]++
	return Shard{Index: k, Count: q.count}, true
}

// Stealable reports whether Steal(k) would copy shard k: no shard is
// still undispatched (drain the queue before duplicating work), and k
// is incomplete, has a live copy, and is below the copy bound.
func (q *ShardQueue) Stealable(k int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stealable(k)
}

func (q *ShardQueue) stealable(k int) bool {
	q.check(k)
	return len(q.pending) == 0 && !q.done[k] && q.outstanding[k] > 0 && q.outstanding[k] < maxCopies
}

// Requeue returns one dispatch of shard k (a worker died or reported
// failure) and reports how many live copies remain. If that was the
// last live copy of an incomplete shard, the shard goes to the front of
// the queue so the retry happens before any speculation; while another
// copy is still computing, nothing re-enters the queue — speculation is
// already covering the loss.
func (q *ShardQueue) Requeue(k int) (live int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.check(k)
	if q.outstanding[k] > 0 {
		q.outstanding[k]--
	}
	if !q.done[k] && q.outstanding[k] == 0 {
		q.pending = append([]int{k}, q.pending...)
	}
	return q.outstanding[k]
}

// Complete marks shard k complete. It reports whether this was the first
// completion — a false return means another copy of the shard already
// finished and this result must be discarded.
func (q *ShardQueue) Complete(k int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.check(k)
	if q.outstanding[k] > 0 {
		q.outstanding[k]--
	}
	if q.done[k] {
		return false
	}
	q.done[k] = true
	q.remaining--
	// A completed shard never re-enters the pending queue; drop any
	// queued retry that raced with the completion.
	for i, p := range q.pending {
		if p == k {
			q.pending = append(q.pending[:i], q.pending[i+1:]...)
			break
		}
	}
	return true
}

// Completed reports whether shard k has completed.
func (q *ShardQueue) Completed(k int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.check(k)
	return q.done[k]
}

// Done reports whether every shard has completed.
func (q *ShardQueue) Done() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.remaining == 0
}

// ShardPhase is one shard's dispatch state as reported by States.
type ShardPhase uint8

const (
	ShardQueued ShardPhase = iota
	ShardInFlight
	ShardCompleted
)

// States returns every shard's current phase — queued (undispatched,
// incomplete), in flight (at least one live dispatch), or completed —
// for coordinator status snapshots. A completed shard reports completed
// even while a speculative copy of it is still computing.
func (q *ShardQueue) States() []ShardPhase {
	q.mu.Lock()
	defer q.mu.Unlock()
	out := make([]ShardPhase, q.count)
	for k := 0; k < q.count; k++ {
		switch {
		case q.done[k]:
			out[k] = ShardCompleted
		case q.outstanding[k] > 0:
			out[k] = ShardInFlight
		default:
			out[k] = ShardQueued
		}
	}
	return out
}

// Counts returns the number of queued, in-flight (live dispatches, so
// speculative copies count individually), and completed shards —
// coordinator progress reporting and test assertions.
func (q *ShardQueue) Counts() (pending, inflight, completed int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for _, o := range q.outstanding {
		inflight += o
	}
	return len(q.pending), inflight, q.count - q.remaining
}
