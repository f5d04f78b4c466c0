package par

import (
	"context"
	"sync"
	"sync/atomic"
)

// Flight is a generic single-flight group: concurrent DoDetached calls with
// the same key share one execution of fn, so a thundering herd of identical
// requests (the allocation server's cache misses under one network state)
// costs a single recomputation. Unlike caching, a Flight holds no state
// between flights — once the shared call returns, the key is forgotten.
//
// The failure contract matches the pool: a panic inside fn is recovered
// into a *PanicError (Worker and Item are -1: flights have neither) and
// returned as the call's error to the initiator and every sharer, so one
// poisoned computation can never strand waiters on a closed-over channel.
type Flight[K comparable, V any] struct {
	mu sync.Mutex
	m  map[K]*flightCall[V]
}

type flightCall[V any] struct {
	done chan struct{}
	val  V
	err  error
}

// InFlight reports how many distinct keys currently have a call executing —
// a point-in-time gauge for the serving layer's introspection endpoints.
func (f *Flight[K, V]) InFlight() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.m)
}

// DoDetached executes fn under key, coalescing with any in-flight call for
// the same key, and returns fn's result. The execution is detached from the
// callers: fn runs on its own goroutine and always runs to completion, even
// when every waiter gives up, so a client disconnect or deadline can never
// fail the shared computation other requests are riding (and fn's side
// effects — cache fills — land regardless). ctx bounds only this caller's
// wait: when it expires first, the call returns ctx.Err() while fn keeps
// running. shared reports whether this caller coalesced onto a flight
// another caller started.
func (f *Flight[K, V]) DoDetached(ctx context.Context, key K, fn func() (V, error)) (v V, err error, shared bool) {
	if ctx == nil {
		ctx = context.Background()
	}
	f.mu.Lock()
	c, ok := f.m[key]
	if !ok {
		c = &flightCall[V]{done: make(chan struct{})}
		if f.m == nil {
			f.m = make(map[K]*flightCall[V])
		}
		f.m[key] = c
		go func() {
			defer func() {
				if r := recover(); r != nil {
					c.err = &PanicError{Worker: -1, Item: -1, Value: r}
				}
				f.mu.Lock()
				delete(f.m, key)
				f.mu.Unlock()
				close(c.done)
			}()
			c.val, c.err = fn()
		}()
	}
	f.mu.Unlock()
	select {
	case <-c.done:
		return c.val, c.err, ok
	case <-ctx.Done():
		var zero V
		return zero, ctx.Err(), ok
	}
}

// Gate bounds how many goroutines may run a section concurrently — the
// allocation server uses one to keep cache-miss recomputations from
// oversubscribing the CPU when many distinct scenarios are queried at once.
type Gate struct {
	slots   chan struct{}
	waiters atomic.Int64
}

// NewGate returns a gate admitting n concurrent holders; n follows the
// Workers convention (0 = NumCPU, negative = 1).
func NewGate(n int) *Gate {
	return &Gate{slots: make(chan struct{}, Workers(n))}
}

// Enter blocks until a slot is free or ctx is done, returning ctx's error
// in the latter case. A nil ctx is context.Background().
func (g *Gate) Enter(ctx context.Context) error {
	select {
	case g.slots <- struct{}{}:
		return nil
	default:
	}
	if ctx == nil {
		ctx = context.Background()
	}
	g.waiters.Add(1)
	defer g.waiters.Add(-1)
	select {
	case g.slots <- struct{}{}:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// TryEnter acquires a slot without blocking, reporting whether it
// succeeded. Callers that fall back to Enter after a failed TryEnter can
// count how often the gate actually made them queue.
func (g *Gate) TryEnter() bool {
	select {
	case g.slots <- struct{}{}:
		return true
	default:
		return false
	}
}

// Leave releases a slot acquired by Enter or a successful TryEnter.
func (g *Gate) Leave() { <-g.slots }

// InUse reports how many slots are currently held.
func (g *Gate) InUse() int { return len(g.slots) }

// Cap reports the gate's total slot count.
func (g *Gate) Cap() int { return cap(g.slots) }

// Waiters reports how many Enter calls are currently blocked on a slot.
func (g *Gate) Waiters() int { return int(g.waiters.Load()) }
