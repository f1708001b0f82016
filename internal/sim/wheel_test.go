package sim

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// engines returns one heap engine and a set of wheel engines with
// deliberately awkward geometries (tiny horizon forcing overflow, slot
// width coarser than typical gaps, fine slots), all of which must
// behave identically.
func wheelGeometries() []struct {
	name string
	mk   func() *Engine
} {
	return []struct {
		name string
		mk   func() *Engine
	}{
		{"slot=1ms,n=16", func() *Engine { return NewWheel(time.Millisecond, 16) }},
		{"slot=100us,n=1024", func() *Engine { return NewWheel(100*time.Microsecond, 1024) }},
		{"slot=1s,n=2", func() *Engine { return NewWheel(time.Second, 2) }},
		{"slot=7ms,n=64", func() *Engine { return NewWheel(7*time.Millisecond, 64) }},
	}
}

// fireLog records one event firing: its identity and the clock when it
// ran.
type fireLog struct {
	id int
	at time.Duration
}

// runScript drives one engine through a randomized schedule /
// cancel / reschedule workload and returns the firing sequence. All
// randomness comes from the engine's own firing order feeding a
// deterministic PRNG, so two engines produce identical logs exactly
// when they fire events in the identical order.
func runScript(e *Engine, seed int64) []fireLog {
	rng := rand.New(rand.NewSource(seed))
	var log []fireLog
	var pending []*Event
	nextID := 0
	var schedule func(at time.Duration)
	schedule = func(at time.Duration) {
		id := nextID
		nextID++
		var ev *Event
		ev = e.At(at, func() {
			log = append(log, fireLog{id: id, at: e.Now()})
			// Each firing randomly schedules successors, cancels a
			// pending event, or reschedules one — the reschedule-heavy
			// mix the wheel exists for.
			switch rng.Intn(5) {
			case 0, 1:
				schedule(e.Now() + time.Duration(rng.Intn(40_000_000)))
			case 2:
				if len(pending) > 0 {
					pending[rng.Intn(len(pending))].Cancel()
				}
			case 3:
				if len(pending) > 0 {
					i := rng.Intn(len(pending))
					pending[i] = e.Reschedule(pending[i], e.Now()+time.Duration(rng.Intn(40_000_000)))
				}
			}
		})
		pending = append(pending, ev)
	}
	// Seed load: a burst of events spread over ~100ms, including exact
	// ties and events far beyond any wheel horizon.
	for i := 0; i < 60; i++ {
		schedule(time.Duration(rng.Intn(100_000_000)))
	}
	for i := 0; i < 5; i++ {
		schedule(3 * time.Millisecond) // exact FIFO ties
		schedule(77 * time.Second)     // deep overflow
	}
	// Interleave RunUntil with scheduling to exercise mid-run inserts
	// into the drained region.
	e.RunUntil(10 * time.Millisecond)
	schedule(e.Now())      // insert at the current instant
	schedule(e.Now() + 10) // 10ns: same slot as "now" on every geometry
	e.Run()
	return log
}

// TestWheelMatchesHeap is the wheel-vs-heap differential: randomized
// schedules (with ties, cancels, reschedules, overflow, and mid-run
// inserts) must fire in the identical order with identical clocks on
// the heap backend and on every wheel geometry.
func TestWheelMatchesHeap(t *testing.T) {
	for seed := int64(1); seed <= 8; seed++ {
		want := runScript(New(), seed)
		if len(want) < 60 {
			t.Fatalf("seed %d: degenerate script, only %d firings", seed, len(want))
		}
		for _, g := range wheelGeometries() {
			g := g
			t.Run(fmt.Sprintf("seed=%d/%s", seed, g.name), func(t *testing.T) {
				got := runScript(g.mk(), seed)
				if len(got) != len(want) {
					t.Fatalf("fired %d events, heap fired %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("firing %d: wheel saw %+v, heap saw %+v", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// TestCancelPendingAndFired covers the Cancel edge cases the wheel must
// preserve: cancelling a pending event suppresses it, cancelling an
// already-fired event is a no-op, and cancelling an event from inside
// the very slot batch being drained still suppresses it.
func TestCancelPendingAndFired(t *testing.T) {
	for _, g := range append(wheelGeometries(), struct {
		name string
		mk   func() *Engine
	}{"heap", New}) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			e := g.mk()
			var fired []string

			// Pending cancel.
			ev := e.At(time.Millisecond, func() { fired = append(fired, "cancelled") })
			ev.Cancel()

			// Cancel of a later same-slot event from an earlier one:
			// victim is already sorted into the ready batch when the
			// canceller runs.
			victim := e.At(2*time.Millisecond+10, func() { fired = append(fired, "victim") })
			e.At(2*time.Millisecond, func() {
				fired = append(fired, "canceller")
				victim.Cancel()
			})

			// Fired cancel: cancelling after the fact must not disturb
			// anything else.
			done := e.At(3*time.Millisecond, func() { fired = append(fired, "done") })
			e.At(4*time.Millisecond, func() {
				done.Cancel() // already fired: no-op
				fired = append(fired, "after")
			})

			e.Run()
			want := []string{"canceller", "done", "after"}
			if len(fired) != len(want) {
				t.Fatalf("fired %v, want %v", fired, want)
			}
			for i := range want {
				if fired[i] != want[i] {
					t.Fatalf("fired %v, want %v", fired, want)
				}
			}
		})
	}
}

// TestFIFOTieOrderUnderReschedule pins the tie rule: a rescheduled
// event takes a fresh sequence number, so among events at the same
// instant it fires after everything already queued — on both backends.
func TestFIFOTieOrderUnderReschedule(t *testing.T) {
	for _, g := range append(wheelGeometries(), struct {
		name string
		mk   func() *Engine
	}{"heap", New}) {
		g := g
		t.Run(g.name, func(t *testing.T) {
			e := g.mk()
			var got []string
			a := e.At(5*time.Millisecond, func() { got = append(got, "a") })
			e.At(5*time.Millisecond, func() { got = append(got, "b") })
			e.At(5*time.Millisecond, func() { got = append(got, "c") })
			// Reschedule a to the same instant: it moves behind b and c.
			e.Reschedule(a, 5*time.Millisecond)
			e.Run()
			if fmt.Sprint(got) != "[b c a]" {
				t.Fatalf("tie order after reschedule: %v, want [b c a]", got)
			}
		})
	}
}

// TestRescheduleRearmsFiredEvent pins Reschedule's re-arm contract on
// both backends: an event that has fired comes back as the same handle,
// without allocating, and fires again; an event still queued is
// replaced by a new handle, and cancelling the replaced one afterwards
// does not stop the new one.
func TestRescheduleRearmsFiredEvent(t *testing.T) {
	for _, g := range append(wheelGeometries(), struct {
		name string
		mk   func() *Engine
	}{"heap", New}) {
		t.Run(g.name, func(t *testing.T) {
			e := g.mk()
			fired, rearms := 0, 0
			ev := e.At(time.Millisecond, func() { fired++ })
			e.Run()
			same := true
			rearm := func() {
				same = same && e.Reschedule(ev, e.Now()+time.Millisecond) == ev
				rearms++
				e.Run()
			}
			// Warm every slot the loop visits, so slot arrays exist.
			for i := 0; i < 5000; i++ {
				rearm()
			}
			if allocs := testing.AllocsPerRun(1000, rearm); allocs != 0 {
				t.Errorf("re-arming a fired event allocates %v times, want 0", allocs)
			}
			if !same || fired != 1+rearms {
				t.Fatalf("same handle %v, fired %d times for %d re-arms", same, fired, rearms)
			}

			fired = 0
			pending := e.At(e.Now()+time.Millisecond, func() { fired++ })
			moved := e.Reschedule(pending, e.Now()+2*time.Millisecond)
			if moved == pending {
				t.Fatal("Reschedule of a queued event returned the same handle")
			}
			pending.Cancel()
			e.Run()
			if fired != 1 {
				t.Fatalf("rescheduled event fired %d times, want once", fired)
			}
		})
	}
}

// TestWheelRunUntil checks the deadline semantics on the wheel: events
// past the deadline stay queued, the clock lands exactly on the
// deadline, and scheduling into the already-drained region afterwards
// still fires in time order.
func TestWheelRunUntil(t *testing.T) {
	e := NewWheel(time.Millisecond, 8)
	var got []int
	e.At(time.Millisecond, func() { got = append(got, 1) })
	e.At(30*time.Millisecond, func() { got = append(got, 3) })
	e.RunUntil(10 * time.Millisecond)
	if e.Now() != 10*time.Millisecond {
		t.Fatalf("clock at %v after RunUntil(10ms)", e.Now())
	}
	if len(got) != 1 || got[0] != 1 {
		t.Fatalf("fired %v before the deadline, want [1]", got)
	}
	if e.Pending() != 1 {
		t.Fatalf("%d pending after RunUntil, want 1", e.Pending())
	}
	// Now is mid-wheel: this lands in the drained region of the ring.
	e.At(12*time.Millisecond, func() { got = append(got, 2) })
	e.Run()
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("fired %v, want [1 2 3]", got)
	}
}

// TestWheelDeepOverflow schedules events many horizons beyond the
// wheel, with nothing in between, and expects the cursor to jump
// rather than walk: completing quickly IS the assertion (a linear walk
// over ~10^9 empty slots would time out), firing order the check.
func TestWheelDeepOverflow(t *testing.T) {
	e := NewWheel(time.Microsecond, 4)
	var got []int
	e.At(2*time.Hour, func() { got = append(got, 2) })
	e.At(time.Hour, func() { got = append(got, 1) })
	e.At(3*time.Hour, func() { got = append(got, 3) })
	e.Run()
	if fmt.Sprint(got) != "[1 2 3]" || e.Now() != 3*time.Hour {
		t.Fatalf("fired %v with clock %v", got, e.Now())
	}
}

// BenchmarkWheelReschedule measures the reschedule-heavy MAC-timer
// pattern on both backends: one long-lived timer per node, constantly
// cancelled and pushed back before it fires.
func BenchmarkWheelReschedule(b *testing.B) {
	bench := func(b *testing.B, e *Engine) {
		const nodes = 1024
		evs := make([]*Event, nodes)
		for i := range evs {
			evs[i] = e.At(time.Duration(i)*time.Microsecond+time.Millisecond, func() {})
		}
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			n := i % nodes
			evs[n] = e.Reschedule(evs[n], e.Now()+time.Millisecond+time.Duration(i%977)*time.Microsecond)
			if i%nodes == nodes-1 {
				e.Step()
			}
		}
	}
	b.Run("heap", func(b *testing.B) { bench(b, New()) })
	b.Run("wheel", func(b *testing.B) { bench(b, NewWheel(64*time.Microsecond, 4096)) })
}
