// Package sim provides a small deterministic discrete-event simulation
// engine: a virtual clock and a priority event queue. The city-scale
// scenario engine (internal/scenario) and the fleet scheduler's
// simulation test run on top of it; the paper-scale runners
// (internal/ratesim, internal/ap, internal/vehicular) are slot-driven
// loops of their own.
//
// Two queue backends share the one Engine API:
//
//   - New returns the binary-heap engine: O(log n) schedule, simple,
//     and the behavioural oracle.
//   - NewWheel returns the timer-wheel engine (cf. ndn-dpdk's
//     container/mintmr): events within the wheel horizon land in a
//     ring slot in O(1), far events overflow to the heap and migrate
//     into slots as the wheel turns. Cancel+reschedule — the dominant
//     operation of MAC retry/backoff timers — is O(1) amortised.
//
// Both backends fire events in identical (time, scheduling-FIFO) order;
// TestWheelMatchesHeap drives randomized schedules, cancels, and
// reschedules through both and requires the same firing sequence.
//
// Reschedule returns the handle to use from then on. An event that has
// fired (or was cancelled and has left the queue) is re-armed in place
// and comes back as the same handle, so a callback that re-arms its own
// event — a per-client packet timer — schedules without allocating.
package sim

import (
	"container/heap"
	"time"
)

// Event is a scheduled callback. Events fire in time order; ties fire in
// scheduling (FIFO) order, which keeps runs deterministic.
type Event struct {
	at   time.Duration
	seq  uint64
	fn   func()
	idx  int
	dead bool
	// queued is set while the event sits in the engine's queue, live
	// or cancelled; Reschedule re-arms only an event that is not.
	queued bool
}

// Cancel prevents the event from firing. Cancelling an already-fired or
// already-cancelled event is a no-op.
func (e *Event) Cancel() {
	if e != nil {
		e.dead = true
	}
}

// eventQueue implements heap.Interface ordered by (at, seq).
type eventQueue []*Event

func (q eventQueue) Len() int { return len(q) }
func (q eventQueue) Less(i, j int) bool {
	if q[i].at != q[j].at {
		return q[i].at < q[j].at
	}
	return q[i].seq < q[j].seq
}
func (q eventQueue) Swap(i, j int) {
	q[i], q[j] = q[j], q[i]
	q[i].idx = i
	q[j].idx = j
}
func (q *eventQueue) Push(x any) {
	e := x.(*Event)
	e.idx = len(*q)
	*q = append(*q, e)
}
func (q *eventQueue) Pop() any {
	old := *q
	n := len(old)
	e := old[n-1]
	old[n-1] = nil
	*q = old[:n-1]
	return e
}

// Engine is a discrete-event simulator. The zero value is ready to use
// with the clock at zero and the heap backend.
type Engine struct {
	now   time.Duration
	queue eventQueue
	seq   uint64
	// w is the optional timer wheel; nil selects the pure-heap backend.
	// With a wheel, queue holds only beyond-horizon overflow events.
	w *wheel
}

// New returns a fresh heap-backed engine with the clock at zero.
func New() *Engine { return &Engine{} }

// Now returns the current simulated time.
func (e *Engine) Now() time.Duration { return e.now }

// At schedules fn to run at the absolute simulated time t. Scheduling in
// the past (t < Now) fires the event at the current time instead, never
// rewinding the clock.
func (e *Engine) At(t time.Duration, fn func()) *Event {
	ev := &Event{fn: fn}
	e.arm(ev, t)
	return ev
}

// arm queues ev, which is in no queue, at t (clamped to Now) with a
// fresh scheduling sequence number.
func (e *Engine) arm(ev *Event, t time.Duration) {
	if t < e.now {
		t = e.now
	}
	ev.at, ev.seq, ev.dead, ev.queued = t, e.seq, false, true
	e.seq++
	if e.w != nil {
		e.w.schedule(e, ev)
	} else {
		heap.Push(&e.queue, ev)
	}
}

// After schedules fn to run d after the current time.
func (e *Engine) After(d time.Duration, fn func()) *Event {
	return e.At(e.now+d, fn)
}

// Reschedule schedules ev's callback anew at time t and returns the
// handle to use from then on. The event takes a fresh scheduling
// sequence number, so among events with equal times it fires after
// those already queued — exactly as a Cancel followed by At. On the
// wheel backend this is O(1).
//
// An event that is no longer queued (it fired, or was cancelled and
// then discarded) is re-armed in place: the same handle comes back and
// nothing is allocated. An event still queued, pending or cancelled, is
// cancelled and a new one is returned; the old handle then stays dead.
// A nil ev panics like any misuse would.
func (e *Engine) Reschedule(ev *Event, t time.Duration) *Event {
	if ev.queued {
		ev.Cancel()
		return e.At(t, ev.fn)
	}
	e.arm(ev, t)
	return ev
}

// pop removes the queue's head: the event peekLive returned, or a dead
// event it discards.
func (e *Engine) pop() {
	if e.w != nil {
		e.w.popHead()
		return
	}
	heap.Pop(&e.queue).(*Event).queued = false
}

// peekLive returns the earliest live queued event without firing it,
// discarding dead events it passes over; nil when the queue is empty.
func (e *Engine) peekLive() *Event {
	if e.w != nil {
		return e.w.peekLive(e)
	}
	for len(e.queue) > 0 {
		if next := e.queue[0]; !next.dead {
			return next
		}
		e.pop()
	}
	return nil
}

// Step fires the next pending event, advancing the clock to its time.
// It reports whether an event was fired.
func (e *Engine) Step() bool {
	ev := e.peekLive()
	if ev == nil {
		return false
	}
	e.pop()
	e.now = ev.at
	ev.fn()
	return true
}

// Run fires events until the queue is empty.
func (e *Engine) Run() {
	for e.Step() {
	}
}

// RunUntil fires events with time ≤ deadline, then advances the clock to
// the deadline. Events scheduled beyond the deadline remain queued.
func (e *Engine) RunUntil(deadline time.Duration) {
	for {
		next := e.peekLive()
		if next == nil || next.at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// Pending returns the number of queued (possibly cancelled) events.
func (e *Engine) Pending() int {
	n := len(e.queue)
	if e.w != nil {
		n += e.w.pending()
	}
	return n
}
