package par

import (
	"context"
	"errors"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestFlightCoalesces(t *testing.T) {
	var f Flight[string, int]
	var execs atomic.Int64
	release := make(chan struct{})
	started := make(chan struct{})

	const callers = 8
	var wg sync.WaitGroup
	results := make([]int, callers)
	sharedCount := atomic.Int64{}
	// One caller starts the flight and blocks in fn; the rest must share it.
	wg.Add(1)
	go func() {
		defer wg.Done()
		v, err, _ := f.DoDetached(context.Background(), "k", func() (int, error) {
			close(started)
			<-release
			execs.Add(1)
			return 42, nil
		})
		if err != nil {
			t.Errorf("initiator: %v", err)
		}
		results[0] = v
	}()
	<-started
	for i := 1; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			v, err, shared := f.DoDetached(context.Background(), "k", func() (int, error) {
				execs.Add(1)
				return 42, nil
			})
			if err != nil {
				t.Errorf("caller %d: %v", i, err)
			}
			if shared {
				sharedCount.Add(1)
			}
			results[i] = v
		}(i)
	}
	// Give the sharers a moment to park on the in-flight call, then release.
	time.Sleep(10 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, v := range results {
		if v != 42 {
			t.Errorf("caller %d got %d, want 42", i, v)
		}
	}
	// Callers that arrived while the first was blocked shared its execution;
	// stragglers that arrived after completion ran their own. Either way the
	// initiator executed exactly once and at least the parked callers shared.
	if execs.Load() > int64(callers)-sharedCount.Load() {
		t.Errorf("%d executions with %d shared callers", execs.Load(), sharedCount.Load())
	}
	if sharedCount.Load() == 0 {
		t.Error("no caller shared the blocked flight")
	}
}

func TestFlightDistinctKeysIndependent(t *testing.T) {
	var f Flight[int, int]
	var wg sync.WaitGroup
	var execs atomic.Int64
	for k := 0; k < 10; k++ {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			v, err, _ := f.DoDetached(context.Background(), k, func() (int, error) {
				execs.Add(1)
				return k * k, nil
			})
			if err != nil || v != k*k {
				t.Errorf("key %d: got (%d, %v)", k, v, err)
			}
		}(k)
	}
	wg.Wait()
	if execs.Load() != 10 {
		t.Errorf("distinct keys executed %d times, want 10", execs.Load())
	}
}

func TestFlightError(t *testing.T) {
	var f Flight[string, int]
	boom := errors.New("boom")
	_, err, shared := f.DoDetached(context.Background(), "k", func() (int, error) { return 0, boom })
	if !errors.Is(err, boom) || shared {
		t.Fatalf("got (%v, shared=%v), want boom unshared", err, shared)
	}
	// The key is forgotten after the flight: a retry runs fn again.
	v, err, _ := f.DoDetached(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("retry got (%d, %v), want 7", v, err)
	}
}

func TestGateBoundsConcurrency(t *testing.T) {
	g := NewGate(2)
	var cur, max atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < 20; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := g.Enter(context.Background()); err != nil {
				t.Errorf("Enter: %v", err)
				return
			}
			n := cur.Add(1)
			for {
				m := max.Load()
				if n <= m || max.CompareAndSwap(m, n) {
					break
				}
			}
			time.Sleep(time.Millisecond)
			cur.Add(-1)
			g.Leave()
		}()
	}
	wg.Wait()
	if got := max.Load(); got > 2 {
		t.Errorf("observed %d concurrent holders, gate admits 2", got)
	}
}

func TestGateEnterCancelled(t *testing.T) {
	g := NewGate(1)
	if err := g.Enter(context.Background()); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := g.Enter(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("Enter on full gate with cancelled ctx: %v, want Canceled", err)
	}
	g.Leave()
	if err := g.Enter(nil); err != nil {
		t.Fatalf("Enter with nil ctx after Leave: %v", err)
	}
}

func TestGateIntrospection(t *testing.T) {
	g := NewGate(2)
	if g.Cap() != 2 || g.InUse() != 0 {
		t.Fatalf("fresh gate: cap %d in-use %d", g.Cap(), g.InUse())
	}
	if !g.TryEnter() {
		t.Fatal("TryEnter on empty gate failed")
	}
	if !g.TryEnter() {
		t.Fatal("second TryEnter failed")
	}
	if g.InUse() != 2 {
		t.Fatalf("InUse = %d, want 2", g.InUse())
	}
	if g.TryEnter() {
		t.Fatal("TryEnter on full gate succeeded")
	}

	// A blocked Enter is a waiter until a slot frees up.
	entered := make(chan struct{})
	go func() {
		g.Enter(context.Background())
		close(entered)
	}()
	deadline := time.Now().Add(time.Second)
	for g.Waiters() != 1 {
		if time.Now().After(deadline) {
			t.Fatal("waiter never registered")
		}
		time.Sleep(time.Millisecond)
	}
	g.Leave()
	<-entered
	if g.Waiters() != 0 || g.InUse() != 2 {
		t.Fatalf("after the waiter entered: waiters %d in-use %d, want 0 and 2", g.Waiters(), g.InUse())
	}
	g.Leave()
	if g.InUse() != 1 {
		t.Fatalf("InUse after Leave = %d, want 1", g.InUse())
	}
	if !g.TryEnter() {
		t.Fatal("TryEnter after Leave failed")
	}
	g.Leave()
	g.Leave()
}

func TestFlightInFlight(t *testing.T) {
	var f Flight[int, int]
	if f.InFlight() != 0 {
		t.Fatalf("fresh flight InFlight = %d", f.InFlight())
	}
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		f.DoDetached(context.Background(), 1, func() (int, error) {
			close(started)
			<-release
			return 1, nil
		})
	}()
	<-started
	if f.InFlight() != 1 {
		t.Fatalf("InFlight during call = %d, want 1", f.InFlight())
	}
	close(release)
	<-done
	if f.InFlight() != 0 {
		t.Fatalf("InFlight after call = %d, want 0", f.InFlight())
	}
}

func TestFlightDoDetachedCompletesAfterWaiterLeaves(t *testing.T) {
	var f Flight[string, int]
	started := make(chan struct{})
	release := make(chan struct{})
	finished := make(chan struct{})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(5 * time.Millisecond)
		cancel() // the only waiter abandons the flight
	}()
	_, err, shared := f.DoDetached(ctx, "k", func() (int, error) {
		close(started)
		<-release
		defer close(finished)
		return 42, nil
	})
	if !errors.Is(err, context.Canceled) || shared {
		t.Fatalf("abandoned waiter got (%v, shared=%v), want Canceled unshared", err, shared)
	}
	<-started
	// The detached execution must still run to completion.
	close(release)
	select {
	case <-finished:
	case <-time.After(time.Second):
		t.Fatal("detached fn did not complete after the waiter left")
	}
	// And the key must be released for later calls.
	deadline := time.Now().Add(time.Second)
	for f.InFlight() != 0 {
		if time.Now().After(deadline) {
			t.Fatal("key still in flight after detached completion")
		}
		time.Sleep(time.Millisecond)
	}
	v, err, _ := f.DoDetached(context.Background(), "k", func() (int, error) { return 7, nil })
	if err != nil || v != 7 {
		t.Fatalf("follow-up call got (%d, %v), want 7", v, err)
	}
}

func TestFlightDoDetachedCancelledWaiterDoesNotFailSharers(t *testing.T) {
	var f Flight[string, int]
	started := make(chan struct{})
	release := make(chan struct{})

	// Initiator with a cancelling context.
	initCtx, cancel := context.WithCancel(context.Background())
	initDone := make(chan error, 1)
	go func() {
		_, err, _ := f.DoDetached(initCtx, "k", func() (int, error) {
			close(started)
			<-release
			return 42, nil
		})
		initDone <- err
	}()
	<-started

	// A patient sharer rides the same flight.
	shareDone := make(chan struct{})
	var shareVal int
	var shareErr error
	var shareShared bool
	go func() {
		defer close(shareDone)
		shareVal, shareErr, shareShared = f.DoDetached(context.Background(), "k", func() (int, error) {
			t.Error("sharer executed fn itself")
			return 0, nil
		})
	}()
	// Let the sharer park, then cancel the initiator.
	time.Sleep(5 * time.Millisecond)
	cancel()
	if err := <-initDone; !errors.Is(err, context.Canceled) {
		t.Fatalf("initiator err = %v, want Canceled", err)
	}
	close(release)
	<-shareDone
	if shareErr != nil || shareVal != 42 || !shareShared {
		t.Fatalf("sharer got (%d, %v, shared=%v), want (42, nil, true)", shareVal, shareErr, shareShared)
	}
}

func TestFlightDoDetachedPanicBecomesError(t *testing.T) {
	var f Flight[string, int]
	_, err, shared := f.DoDetached(context.Background(), "k", func() (int, error) { panic("kaboom") })
	var pe *PanicError
	if !errors.As(err, &pe) || shared {
		t.Fatalf("got (%v, shared=%v), want *PanicError unshared", err, shared)
	}
	if pe.Value != "kaboom" {
		t.Errorf("panic value %v, want kaboom", pe.Value)
	}
	// The poisoned key must not be stuck.
	v, err, _ := f.DoDetached(nil, "k", func() (int, error) { return 1, nil })
	if err != nil || v != 1 {
		t.Fatalf("after panic got (%d, %v), want 1", v, err)
	}
}
