package parallel

import (
	"sync"
	"testing"
)

func TestShardQueueDrainsInOrder(t *testing.T) {
	q := NewShardQueue(4)
	if q.Len() != 4 || q.Done() {
		t.Fatalf("fresh queue: Len=%d Done=%v", q.Len(), q.Done())
	}
	for k := 0; k < 4; k++ {
		sh, ok := q.Next()
		if !ok || sh.Index != k || sh.Count != 4 {
			t.Fatalf("Next() = %v %v, want shard %d/4", sh, ok, k)
		}
	}
	if _, ok := q.Next(); ok {
		t.Fatal("Next() on drained queue succeeded")
	}
	for k := 0; k < 4; k++ {
		if q.Done() {
			t.Fatalf("Done before shard %d completed", k)
		}
		if !q.Complete(k) {
			t.Fatalf("first Complete(%d) returned false", k)
		}
	}
	if !q.Done() {
		t.Fatal("queue not Done after all completions")
	}
}

// TestShardQueueCompletedAndStates pins the per-shard views a
// coordinator's status snapshots read: Completed flips at the first
// completion only, and States reports queued, in-flight and completed
// shards — a completed shard stays completed while a speculative copy
// of it is still computing.
func TestShardQueueCompletedAndStates(t *testing.T) {
	q := NewShardQueue(2)
	want := func(phases ...ShardPhase) {
		t.Helper()
		got := q.States()
		if len(got) != len(phases) {
			t.Fatalf("States() = %v, want %v", got, phases)
		}
		for k := range phases {
			if got[k] != phases[k] {
				t.Fatalf("States() = %v, want %v", got, phases)
			}
		}
	}
	want(ShardQueued, ShardQueued)
	q.Next()
	want(ShardInFlight, ShardQueued)
	q.Next()
	if sh, ok := q.Steal(0); !ok || sh.Index != 0 {
		t.Fatalf("Steal(0) = %v %v, want shard 0", sh, ok)
	}
	want(ShardInFlight, ShardInFlight)
	if q.Completed(0) {
		t.Fatal("shard 0 completed before any Complete")
	}
	q.Complete(0)
	if !q.Completed(0) || q.Completed(1) {
		t.Fatalf("Completed after Complete(0) = %v %v, want true false", q.Completed(0), q.Completed(1))
	}
	want(ShardCompleted, ShardInFlight)
	// The stolen copy of shard 0 dies: the shard stays completed.
	q.Requeue(0)
	want(ShardCompleted, ShardInFlight)
	// Shard 1's only copy dies: it is queued again.
	q.Requeue(1)
	want(ShardCompleted, ShardQueued)
}

func TestShardQueueClampsCount(t *testing.T) {
	if got := NewShardQueue(0).Len(); got != 1 {
		t.Fatalf("Len = %d, want 1", got)
	}
}

func TestShardQueueRequeueFrontOfLine(t *testing.T) {
	q := NewShardQueue(3)
	sh, _ := q.Next() // shard 0 dispatched
	q.Requeue(sh.Index)
	next, ok := q.Next()
	if !ok || next.Index != 0 {
		t.Fatalf("after requeue, Next() = %v, want shard 0 retried first", next)
	}
}

func TestShardQueueStealSemantics(t *testing.T) {
	q := NewShardQueue(2)
	// steal is q.Steal, checking that Stealable predicts its answer.
	steal := func(k int) (Shard, bool) {
		t.Helper()
		want := q.Stealable(k)
		sh, ok := q.Steal(k)
		if ok != want {
			t.Fatalf("Stealable(%d) = %v, but Steal(%d) answered %v", k, want, k, ok)
		}
		return sh, ok
	}
	if _, ok := steal(0); ok {
		t.Fatal("Steal succeeded while undispatched shards remain")
	}
	a, _ := q.Next()
	if _, ok := steal(a.Index); ok {
		t.Fatal("Steal succeeded while shard 1 is still undispatched")
	}
	b, _ := q.Next()
	// Both in flight: a steal copies exactly the shard asked for.
	s1, ok := steal(b.Index)
	if !ok || s1.Index != b.Index {
		t.Fatalf("Steal(%d) = %v %v, want shard %d", b.Index, s1, ok, b.Index)
	}
	// Shard b now has 2 copies (the bound); a third is refused.
	if _, ok := steal(b.Index); ok {
		t.Fatal("Steal exceeded the per-shard copy bound")
	}
	s2, ok := steal(a.Index)
	if !ok || s2.Index != a.Index {
		t.Fatalf("Steal(%d) = %v %v, want shard %d", a.Index, s2, ok, a.Index)
	}
	if _, ok := steal(a.Index); ok {
		t.Fatal("Steal exceeded the per-shard copy bound")
	}
	// Completion frees nothing for stealing.
	q.Complete(a.Index)
	q.Complete(a.Index) // duplicate result
	q.Complete(b.Index)
	for _, k := range []int{a.Index, b.Index} {
		if _, ok := steal(k); ok {
			t.Fatalf("Steal(%d) succeeded after completion", k)
		}
	}
	if !q.Done() {
		t.Fatal("not Done")
	}
}

func TestShardQueueDuplicateCompleteAndLateRequeue(t *testing.T) {
	q := NewShardQueue(2)
	a, _ := q.Next()
	q.Next()
	st, _ := q.Steal(a.Index) // second copy of a
	if st.Index != a.Index {
		t.Fatalf("stole %v, want %v", st, a)
	}
	if !q.Complete(a.Index) {
		t.Fatal("first completion rejected")
	}
	if q.Complete(a.Index) {
		t.Fatal("duplicate completion accepted")
	}
	// A worker dying while holding an already-completed shard must not
	// resurrect it.
	q.Requeue(a.Index)
	if sh, ok := q.Next(); ok {
		t.Fatalf("completed shard re-entered the queue as %v", sh)
	}
}

func TestShardQueueRequeueThenCompleteDropsPendingRetry(t *testing.T) {
	q := NewShardQueue(2)
	a, _ := q.Next()
	q.Next()
	q.Steal(a.Index) // copy 2 of shard a
	// Copy 1 dies: one live copy remains, so nothing re-enters the
	// queue (speculation covers the loss).
	if live := q.Requeue(a.Index); live != 1 {
		t.Fatalf("Requeue with a live copy returned %d, want 1", live)
	}
	// Copy 2 dies too → no cover left, queued for retry.
	if live := q.Requeue(a.Index); live != 0 {
		t.Fatalf("Requeue of the last copy returned %d, want 0", live)
	}
	pend, _, _ := q.Counts()
	if pend != 1 {
		t.Fatalf("pending = %d, want 1", pend)
	}
	// A third copy (dispatched before the deaths were observed) still
	// completes: the queued retry must evaporate.
	q.Complete(a.Index)
	if sh, ok := q.Next(); ok && sh.Index == a.Index {
		t.Fatal("completed shard still queued for retry")
	}
}

func TestShardQueueStealSkipsCompleted(t *testing.T) {
	q := NewShardQueue(3)
	for i := 0; i < 3; i++ {
		q.Next()
	}
	q.Complete(0)
	q.Complete(2)
	// Only shard 1 is still in flight; a completed shard is never
	// copied.
	for _, k := range []int{0, 2} {
		if _, ok := q.Steal(k); ok {
			t.Fatalf("Steal(%d) copied a completed shard", k)
		}
	}
	st, ok := q.Steal(1)
	if !ok || st.Index != 1 {
		t.Fatalf("Steal(1) = %v %v, want shard 1 (the only incomplete one)", st, ok)
	}
	q.Complete(1)
	if _, ok := q.Steal(1); ok {
		t.Fatal("Steal succeeded with every shard complete")
	}
	if !q.Done() {
		t.Fatal("not Done")
	}
}

// TestShardQueueDoubleCompleteKeepsCountsExact: when both copies of a
// speculated shard finish, the loser's completion must neither double
// count the shard nor corrupt the in-flight accounting.
func TestShardQueueDoubleCompleteKeepsCountsExact(t *testing.T) {
	q := NewShardQueue(2)
	a, _ := q.Next()
	q.Next()
	if st, ok := q.Steal(a.Index); !ok || st.Index != a.Index {
		t.Fatalf("Steal(%d) = %v %v, want a copy of shard %d", a.Index, st, ok, a.Index)
	}
	if !q.Complete(a.Index) {
		t.Fatal("first completion rejected")
	}
	if q.Complete(a.Index) {
		t.Fatal("losing copy's completion accepted")
	}
	pend, inflight, completed := q.Counts()
	if pend != 0 || inflight != 1 || completed != 1 {
		t.Fatalf("Counts() = %d/%d/%d, want 0 pending, 1 inflight (shard b), 1 completed",
			pend, inflight, completed)
	}
	if q.Done() {
		t.Fatal("Done with shard b still in flight")
	}
}

// TestShardQueueBothCopiesDieThenRedispatch: a speculated shard losing
// both copies must re-enter the queue exactly once, be redispatched,
// and complete normally — the path a chaotic transport exercises when
// a partition takes out the original and the speculative copy together.
func TestShardQueueBothCopiesDieThenRedispatch(t *testing.T) {
	q := NewShardQueue(2)
	a, _ := q.Next()
	q.Next()
	q.Steal(a.Index) // copy 2 of shard a
	q.Requeue(a.Index)
	if live := q.Requeue(a.Index); live != 0 {
		t.Fatalf("second Requeue returned %d live copies, want 0", live)
	}
	pend, inflight, _ := q.Counts()
	if pend != 1 || inflight != 1 {
		t.Fatalf("Counts() = %d pending/%d inflight, want 1/1 (a queued, b flying)", pend, inflight)
	}
	re, ok := q.Next()
	if !ok || re.Index != a.Index {
		t.Fatalf("redispatch Next() = %v %v, want shard %d", re, ok, a.Index)
	}
	if _, ok := q.Next(); ok {
		t.Fatal("shard re-entered the queue more than once")
	}
	if !q.Complete(re.Index) {
		t.Fatal("redispatched copy's completion rejected")
	}
	q.Complete(1)
	if !q.Done() {
		t.Fatal("not Done after the redispatched copy completed")
	}
}

func TestShardQueueConcurrentWorkers(t *testing.T) {
	// Hammer the queue from many goroutines; every shard must complete
	// exactly once (first-completion semantics) regardless of schedule.
	const shards = 64
	q := NewShardQueue(shards)
	var wins [shards]int
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				sh, ok := q.Next()
				for k := 0; !ok && k < shards; k++ {
					sh, ok = q.Steal(k)
				}
				if !ok {
					if q.Done() {
						return
					}
					continue
				}
				if q.Complete(sh.Index) {
					mu.Lock()
					wins[sh.Index]++
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	for k, n := range wins {
		if n != 1 {
			t.Errorf("shard %d completed %d times", k, n)
		}
	}
}
