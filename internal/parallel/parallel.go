// Package parallel is the trial-execution engine behind the experiment
// harness: order-preserving bounded fan-out over an index range
// (ForEach, Map), the shard plans that split a trial range across
// processes, and a SeedStream that derives an independent RNG seed per
// trial from one root seed.
//
// The package exists to uphold one invariant: an experiment's output is
// bit-identical for any worker count. The contract has two halves:
//
//   - Seeding: every trial derives its own seed from the root by trial
//     index (SeedStream.Seed(i)), never from shared mutable RNG state,
//     so the work a trial does cannot depend on which worker ran it or
//     when.
//   - Merging: ForEach/Map deliver results indexed by trial, and callers
//     merge them in index order (or into order-independent accumulators
//     such as stats.Accumulator / stats.Histogram), so the reduction
//     cannot depend on completion order.
//
// See README.md for the recipe for adding a new parallel experiment.
package parallel

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
)

// Panic wraps a panic recovered on a worker goroutine so it can be
// rethrown on the caller's goroutine with the worker's stack preserved.
type Panic struct {
	// Value is the original panic value.
	Value any
	// Stack is the worker goroutine's stack at the time of the panic.
	Stack []byte
}

// Error implements error so a Panic can also travel as one.
func (p *Panic) Error() string {
	return fmt.Sprintf("panic on worker goroutine: %v\n%s", p.Value, p.Stack)
}

// panicBox captures the first panic among a set of tasks and signals the
// rest to stop picking up new work.
type panicBox struct {
	aborted atomic.Bool
	once    sync.Once
	p       *Panic
}

// run executes fn, recording a panic instead of letting it kill the
// process (a panic on a bare goroutine is unrecoverable elsewhere).
func (b *panicBox) run(fn func()) {
	defer func() {
		if v := recover(); v != nil {
			b.once.Do(func() {
				buf := make([]byte, 64<<10)
				b.p = &Panic{Value: v, Stack: buf[:runtime.Stack(buf, false)]}
			})
			b.aborted.Store(true)
		}
	}()
	fn()
}

// rethrow re-panics on the caller's goroutine if any task panicked.
func (b *panicBox) rethrow() {
	if b.p != nil {
		panic(b.p)
	}
}

// Workers normalises a worker-count setting: values ≤ 0 mean "one per
// CPU", and the count never exceeds n, the number of independent tasks.
func Workers(workers, n int) int {
	if workers <= 0 {
		workers = runtime.NumCPU()
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	return workers
}

// ForEach runs fn(i) for every i in [0, n) on at most workers
// goroutines. workers ≤ 0 means one per CPU; workers == 1 runs inline on
// the caller's goroutine with no synchronisation at all, so a serial run
// is a true serial baseline (and a panic propagates unwrapped). On the
// concurrent path the first panic is rethrown on the caller's goroutine
// wrapped in *Panic after all in-flight calls finish; remaining indices
// are skipped.
func ForEach(workers, n int, fn func(i int)) {
	if n <= 0 {
		return
	}
	workers = Workers(workers, n)
	if workers == 1 {
		for i := 0; i < n; i++ {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var box panicBox
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !box.aborted.Load() {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				box.run(func() { fn(i) })
			}
		}()
	}
	wg.Wait()
	box.rethrow()
}

// Map runs fn(i) for every i in [0, n) on at most workers goroutines and
// returns the results in index order — the property that makes a merge
// over the result slice independent of completion order. Panic semantics
// match ForEach.
func Map[T any](workers, n int, fn func(i int) T) []T {
	out := make([]T, n)
	ForEach(workers, n, func(i int) {
		out[i] = fn(i)
	})
	return out
}
