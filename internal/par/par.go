// Package par is the concurrency substrate for Flexile's scenario-parallel
// solve engine and its allocation server. Collect is the deterministic
// worker pool used by the offline decomposition (per-scenario Benders
// subproblems, the ScenLoss precompute) and by the experiment harness
// (per-topology fan-out); Flight (detached single-flight) and Gate (a
// counting semaphore) ration the serving layer's cache-miss recomputations.
//
// Determinism contract: Collect reports results by item index, so the
// caller observes identical output regardless of the worker count or the
// order in which workers drain the queue. With workers == 1 the loop runs
// inline on the calling goroutine — exactly the pre-parallel behavior, with
// no goroutines spawned.
//
// Failure contract: a panic inside fn never escapes the pool or a flight —
// it is recovered into a *PanicError and reported like any other error, so
// one crashing scenario solve cannot take down the process. Collect runs
// all items regardless of failures and hands back the full per-item error
// vector, so callers degrade per item instead of aborting.
package par

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"flexile/internal/obs"
)

// PanicError is a panic recovered inside a pool worker, with enough
// metadata to pin the crash to one work item.
type PanicError struct {
	// Worker is the worker id (0 ≤ Worker < workers) that hit the panic.
	Worker int
	// Item is the index of the work item whose fn panicked.
	Item int
	// Value is the value passed to panic.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("par: panic on item %d (worker %d): %v", e.Item, e.Worker, e.Value)
}

// Workers resolves a configured worker count: 0 means runtime.NumCPU()
// (use every core), negative or one means strictly sequential.
func Workers(n int) int {
	if n == 0 {
		return runtime.NumCPU()
	}
	if n < 1 {
		return 1
	}
	return n
}

// protect runs fn(worker, i), converting a panic into a *PanicError.
func protect(fn func(worker, i int) error, worker, i int) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = &PanicError{Worker: worker, Item: i, Value: r, Stack: debug.Stack()}
		}
	}()
	return fn(worker, i)
}

// Collect runs fn(worker, i) for every i in [0, n) across at most workers
// goroutines and returns the per-item error vector: an item failure (error
// or recovered panic) does not stop the remaining items — the caller
// decides per item whether to retry, degrade or abort. Only context
// cancellation stops the loop early: items never started are reported with
// the context error, so the caller can tell a skipped item from a failed
// one with errors.Is(err, ctx.Err()). A nil ctx is treated as
// context.Background(). Every worker id (0 ≤ worker < workers) runs on a
// single goroutine, so per-worker scratch state (e.g. a worker-local LP
// instance) needs no locking.
func Collect(ctx context.Context, workers, n int, fn func(worker, i int) error) []error {
	if ctx == nil {
		ctx = context.Background()
	}
	errs := make([]error, n)
	if n <= 0 {
		return errs
	}
	workers = Workers(workers)
	if workers > n {
		workers = n
	}
	// Pool accounting: one launch record up front, one item record per
	// executed fn (worker id + busy time). The obs collector is looked up
	// once; the per-item cost when metrics are off is a single nil check.
	col := obs.From(ctx)
	if col != nil {
		col.PoolLaunch(workers)
		inner := fn
		fn = func(worker, i int) error {
			start := time.Now()
			err := inner(worker, i)
			col.PoolItem(worker, time.Since(start).Nanoseconds())
			return err
		}
	}
	if workers == 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				errs[i] = err
				continue
			}
			errs[i] = protect(fn, 0, i)
		}
		return errs
	}
	var (
		next atomic.Int64
		wg   sync.WaitGroup
	)
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				if err := ctx.Err(); err != nil {
					errs[i] = err
					continue // mark every remaining claimed item
				}
				errs[i] = protect(fn, worker, i)
			}
		}(w)
	}
	wg.Wait()
	return errs
}
