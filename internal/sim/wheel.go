package sim

import (
	"cmp"
	"container/heap"
	"fmt"
	"slices"
	"time"
)

// wheel is the indexed timer-wheel backend (cf. ndn-dpdk's
// container/mintmr). Simulated time divides into fixed-width slots;
// an event whose slot lies within the wheel's horizon (nslots slots
// ahead of the drain cursor) is appended to its ring slot in O(1),
// while farther events overflow into the engine's heap and migrate
// into slots as the cursor advances. Draining one slot sorts its
// events by (at, seq) into the ready batch, which reproduces the heap
// backend's firing order exactly: events in different slots are
// already time-ordered, events in one slot are ordered by the sort,
// and FIFO ties break on the scheduling sequence number in both
// backends.
//
// Cancellation stays lazy (Event.dead), so Cancel and Reschedule are
// O(1); dead events are discarded when their slot drains.
//
// Buffers are recycled, not regrown: ready keeps its backing array
// while it is consumed (head advances instead of reslicing away its
// capacity), and draining a slot swaps arrays — the slot's array
// becomes ready, and the consumed ready array becomes the slot's empty
// one.
type wheel struct {
	slotDur time.Duration
	slots   [][]*Event
	// cur is the absolute index of the next slot to drain. Slots below
	// cur are empty; events scheduled into the drained region (their
	// time is ≥ now, but now's slot is already draining) insert into
	// ready instead.
	cur int64
	// count is the number of events (live or dead) sitting in slots.
	count int
	// ready[head:] is the sorted unfired remainder of the drained
	// slot(s); ready[head] is the engine's next event. An empty ready
	// has head 0.
	ready []*Event
	head  int
}

// NewWheel returns an engine whose queue is a timer wheel of nslots
// slots of slotDur each — the horizon within which scheduling is O(1).
// Events beyond the horizon overflow to a heap and migrate into slots
// as the wheel turns, so any (slotDur, nslots) is correct; the choice
// only tunes constants. Firing order is identical to New's heap engine.
func NewWheel(slotDur time.Duration, nslots int) *Engine {
	if slotDur <= 0 || nslots < 1 {
		panic(fmt.Sprintf("sim: NewWheel(%v, %d): slot duration and count must be positive", slotDur, nslots))
	}
	return &Engine{w: &wheel{slotDur: slotDur, slots: make([][]*Event, nslots)}}
}

// slot maps an absolute time to its absolute slot index.
func (w *wheel) slot(t time.Duration) int64 { return int64(t / w.slotDur) }

func (w *wheel) pending() int { return w.count + len(w.ready) - w.head }

// byAtSeq orders events by (at, seq), the firing order of both
// backends.
func byAtSeq(a, b *Event) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	return cmp.Compare(a.seq, b.seq)
}

// schedule routes one freshly created event (at ≥ engine now).
func (w *wheel) schedule(e *Engine, ev *Event) {
	idx := w.slot(ev.at)
	switch {
	case idx < w.cur:
		// The event's slot is already draining (or drained): it belongs
		// in the ready batch, ordered by (at, seq).
		w.insertReady(ev)
	case idx < w.cur+int64(len(w.slots)):
		w.slots[idx%int64(len(w.slots))] = append(w.slots[idx%int64(len(w.slots))], ev)
		w.count++
	default:
		heap.Push(&e.queue, ev)
	}
}

// insertReady places ev into the sorted ready batch.
func (w *wheel) insertReady(ev *Event) {
	i, _ := slices.BinarySearchFunc(w.ready[w.head:], ev, byAtSeq)
	w.ready = slices.Insert(w.ready, w.head+i, ev)
}

// migrate moves overflow-heap events whose slot has entered the wheel
// horizon into their slots (or straight into ready when the cursor has
// already passed their slot).
func (w *wheel) migrate(e *Engine) {
	horizon := w.cur + int64(len(w.slots))
	for len(e.queue) > 0 {
		idx := w.slot(e.queue[0].at)
		if idx >= horizon {
			return
		}
		ev := heap.Pop(&e.queue).(*Event)
		if idx < w.cur {
			w.insertReady(ev)
		} else {
			w.slots[idx%int64(len(w.slots))] = append(w.slots[idx%int64(len(w.slots))], ev)
			w.count++
		}
	}
}

// peekLive returns the next live event without removing it, draining
// slots forward (and discarding dead events) as needed.
func (w *wheel) peekLive(e *Engine) *Event {
	for {
		// Trim fired-over dead events off the ready batch.
		for len(w.ready) > 0 && w.ready[w.head].dead {
			w.popHead()
		}
		if len(w.ready) > 0 {
			return w.ready[w.head]
		}
		if w.count == 0 {
			if len(e.queue) == 0 {
				return nil
			}
			// The wheel is empty: jump the cursor straight to the
			// overflow heap's earliest slot instead of walking every
			// empty slot in between.
			if idx := w.slot(e.queue[0].at); idx > w.cur {
				w.cur = idx
			}
		}
		w.migrate(e)
		if len(w.ready) > 0 {
			continue // migrated straight into the drained region
		}
		if w.count == 0 {
			if len(e.queue) == 0 {
				return nil
			}
			continue
		}
		// Drain the cursor slot into the empty ready batch, sorted by
		// (at, seq), handing ready's array to the slot.
		ring := w.cur % int64(len(w.slots))
		if s := w.slots[ring]; len(s) > 0 {
			w.ready, w.slots[ring] = s, w.ready
			w.count -= len(s)
			slices.SortFunc(w.ready, byAtSeq)
		}
		w.cur++
	}
}

// popHead removes ready[head] (the event peekLive returned, or a dead
// event being trimmed), rewinding an emptied ready to the start of its
// array.
func (w *wheel) popHead() {
	w.ready[w.head].queued = false
	w.ready[w.head] = nil
	w.head++
	if w.head == len(w.ready) {
		w.ready, w.head = w.ready[:0], 0
	}
}
