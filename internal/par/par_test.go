package par

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
)

func TestWorkersResolve(t *testing.T) {
	if got := Workers(0); got != runtime.NumCPU() {
		t.Fatalf("Workers(0) = %d, want NumCPU %d", got, runtime.NumCPU())
	}
	if got := Workers(-3); got != 1 {
		t.Fatalf("Workers(-3) = %d, want 1", got)
	}
	if got := Workers(7); got != 7 {
		t.Fatalf("Workers(7) = %d, want 7", got)
	}
}

// Collect must run every item despite failures, attribute each error to
// its item, and recover panics into per-item *PanicError values.
func TestCollectRunsAllItems(t *testing.T) {
	for _, workers := range []int{1, 4} {
		n := 50
		var ran atomic.Int32
		errs := Collect(context.Background(), workers, n, func(_, i int) error {
			ran.Add(1)
			switch {
			case i%10 == 3:
				return fmt.Errorf("fail-%d", i)
			case i == 17:
				panic("pow")
			}
			return nil
		})
		if got := ran.Load(); got != int32(n) {
			t.Fatalf("workers=%d: %d of %d items ran", workers, got, n)
		}
		for i, err := range errs {
			switch {
			case i == 17:
				var pe *PanicError
				if !errors.As(err, &pe) || pe.Item != 17 {
					t.Fatalf("workers=%d: item 17: want PanicError, got %v", workers, err)
				}
			case i%10 == 3:
				if err == nil || err.Error() != fmt.Sprintf("fail-%d", i) {
					t.Fatalf("workers=%d: item %d: got %v", workers, i, err)
				}
			default:
				if err != nil {
					t.Fatalf("workers=%d: item %d: unexpected error %v", workers, i, err)
				}
			}
		}
	}
}

// Collect under a canceled context must mark unstarted items with the
// context error instead of running them.
func TestCollectHonorsCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int32
	errs := Collect(ctx, 4, 32, func(_, i int) error {
		ran.Add(1)
		return nil
	})
	if got := ran.Load(); got != 0 {
		t.Fatalf("%d items ran under a pre-canceled context", got)
	}
	for i, err := range errs {
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("item %d: got %v, want context.Canceled", i, err)
		}
	}
}

// Collect must hand every call a worker id within range, on the inline and
// the pooled path: offline.go indexes its per-worker LP instances by it.
func TestCollectWorkerIDsInRange(t *testing.T) {
	for _, workers := range []int{1, 4} {
		errs := Collect(context.Background(), workers, 100, func(w, i int) error {
			if w < 0 || w >= workers {
				return fmt.Errorf("worker id %d out of range", w)
			}
			return nil
		})
		if err := errors.Join(errs...); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
	}
}
