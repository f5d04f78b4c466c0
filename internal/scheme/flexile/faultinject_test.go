package flexile

import (
	"errors"
	"fmt"
	"sync"
	"testing"

	"flexile/internal/lp"
)

// A seeded, deterministic fault injector for the scenario-parallel solve
// engine. Tests thread injector.hook through Options.faultHook to force
// every failure class the decomposition must survive — a singular basis,
// iteration-limit exhaustion, a worker panic — without depending on rare
// numerical accidents.
//
// Determinism contract: whether a fault fires, and which kind, depends
// ONLY on (seed, item, attempt). It never depends on the worker id, the
// wall clock, or the order in which workers drain the queue. Consequently
// the same faults fire for any worker count, and the degraded results of a
// faulted run are bit-for-bit identical across worker counts.
//
// The injected errors wrap the lp package's sentinels (lp.ErrSingularBasis,
// lp.ErrIterLimit) so the decomposition's retry policy classifies them with
// errors.Is exactly as it classifies organic failures.

// faultKind is a class of injected failure.
type faultKind int

const (
	// faultSingularBasis injects an error wrapping lp.ErrSingularBasis —
	// the numerically-degraded refactorization failure, which the retry
	// policy treats as retryable with hardened settings.
	faultSingularBasis faultKind = iota
	// faultIterLimit injects an error wrapping lp.ErrIterLimit — iteration
	// budget exhaustion, also retryable.
	faultIterLimit
	// faultPanic makes the hook panic, exercising the pool's recover path.
	// Panics are never retried: the scenario is skipped directly.
	faultPanic
)

func (k faultKind) String() string {
	switch k {
	case faultSingularBasis:
		return "singular-basis"
	case faultIterLimit:
		return "iter-limit"
	case faultPanic:
		return "panic"
	default:
		return fmt.Sprintf("kind(%d)", int(k))
	}
}

// injector decides, per (item, attempt), whether to inject a fault. The
// zero value injects nothing. An injector is safe for concurrent use.
type injector struct {
	seed  uint64
	rate  float64
	kinds []faultKind

	// script overrides the seeded decision for specific items: script[item]
	// lists the fault to fire on attempt 0, 1, ... (entries beyond the list
	// mean no fault, so retries eventually succeed unless scripted again).
	script map[int][]faultKind

	mu     sync.Mutex
	counts map[faultKind]int
}

// newInjector returns a seeded injector that fires a fault on each (item,
// attempt) with probability rate, cycling deterministically through kinds.
// The decision is a pure function of (seed, item, attempt).
func newInjector(seed uint64, rate float64, kinds ...faultKind) *injector {
	return &injector{seed: seed, rate: rate, kinds: kinds}
}

// scriptInjector returns an injector that fires exactly the scripted
// faults: script[item][attempt] is the kind injected on that attempt of
// that item; attempts beyond the scripted list succeed. Items absent from
// the map are never faulted. Scripted injection is what the recovery-path
// tests use to hit each failure class precisely.
func scriptInjector(script map[int][]faultKind) *injector {
	return &injector{script: script}
}

// splitmix64 is the usual 64-bit finalizer; good avalanche, no allocation.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// decide returns the kind to inject for (item, attempt), or (0, false).
func (j *injector) decide(item, attempt int) (faultKind, bool) {
	if j.script != nil {
		kinds, ok := j.script[item]
		if !ok || attempt >= len(kinds) {
			return 0, false
		}
		return kinds[attempt], true
	}
	if j.rate <= 0 {
		return 0, false
	}
	h := splitmix64(j.seed ^ splitmix64(uint64(item)<<20|uint64(attempt)))
	// Top 53 bits → uniform in [0, 1).
	if float64(h>>11)/(1<<53) >= j.rate {
		return 0, false
	}
	return j.kinds[h%uint64(len(j.kinds))], true
}

// hook is the injection point, with the signature of Options.faultHook: it
// returns a non-nil error (or panics, for faultPanic) when a fault fires on
// (item, attempt). A nil *injector is a no-op.
func (j *injector) hook(item, attempt int) error {
	if j == nil {
		return nil
	}
	kind, fire := j.decide(item, attempt)
	if !fire {
		return nil
	}
	j.mu.Lock()
	if j.counts == nil {
		j.counts = make(map[faultKind]int)
	}
	j.counts[kind]++
	j.mu.Unlock()
	switch kind {
	case faultSingularBasis:
		return fmt.Errorf("faultinject: item %d attempt %d: %w", item, attempt, lp.ErrSingularBasis)
	case faultIterLimit:
		return fmt.Errorf("faultinject: item %d attempt %d: %w", item, attempt, lp.ErrIterLimit)
	case faultPanic:
		panic(fmt.Sprintf("faultinject: forced panic on item %d attempt %d", item, attempt))
	}
	return nil
}

// fired reports how many faults of each kind have fired so far.
func (j *injector) fired() map[faultKind]int {
	if j == nil {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	out := make(map[faultKind]int, len(j.counts))
	for k, v := range j.counts {
		out[k] = v
	}
	return out
}

// Scripted faults must fire exactly as written, wrap the lp sentinels so
// errors.Is classification works, and stop after the scripted attempts.
func TestFaultScriptExactAndClassifiable(t *testing.T) {
	inj := scriptInjector(map[int][]faultKind{
		3: {faultSingularBasis, faultIterLimit},
		7: {faultPanic},
	})
	if err := inj.hook(0, 0); err != nil {
		t.Fatalf("unscripted item faulted: %v", err)
	}
	if err := inj.hook(3, 0); !errors.Is(err, lp.ErrSingularBasis) {
		t.Fatalf("item 3 attempt 0: got %v, want ErrSingularBasis", err)
	}
	if err := inj.hook(3, 1); !errors.Is(err, lp.ErrIterLimit) {
		t.Fatalf("item 3 attempt 1: got %v, want ErrIterLimit", err)
	}
	if err := inj.hook(3, 2); err != nil {
		t.Fatalf("item 3 attempt 2 should succeed, got %v", err)
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("item 7 attempt 0: want panic")
			}
		}()
		inj.hook(7, 0)
	}()
	fired := inj.fired()
	if fired[faultSingularBasis] != 1 || fired[faultIterLimit] != 1 || fired[faultPanic] != 1 {
		t.Fatalf("fired counts: %v", fired)
	}
}

// Seeded decisions must be a pure function of (seed, item, attempt):
// identical across repeated queries and across query order, so fault
// behavior cannot depend on worker count or scheduling.
func TestFaultSeededDeterministicAcrossOrder(t *testing.T) {
	const n = 200
	record := func(order []int) map[int]faultKind {
		inj := newInjector(42, 0.3, faultSingularBasis, faultIterLimit)
		got := make(map[int]faultKind)
		for _, i := range order {
			if k, fire := inj.decide(i, 0); fire {
				got[i] = k
			}
		}
		return got
	}
	fwd := make([]int, n)
	rev := make([]int, n)
	for i := 0; i < n; i++ {
		fwd[i] = i
		rev[i] = n - 1 - i
	}
	a, b := record(fwd), record(rev)
	if len(a) == 0 {
		t.Fatal("rate 0.3 over 200 items fired nothing; hash is broken")
	}
	if len(a) != len(b) {
		t.Fatalf("fired %d forward vs %d reverse", len(a), len(b))
	}
	for i, k := range a {
		if b[i] != k {
			t.Fatalf("item %d: %v forward vs %v reverse", i, k, b[i])
		}
	}
	// A different attempt index must be an independent decision stream.
	inj := newInjector(42, 0.3, faultSingularBasis, faultIterLimit)
	same := true
	for i := 0; i < n; i++ {
		_, f0 := inj.decide(i, 0)
		_, f1 := inj.decide(i, 1)
		if f0 != f1 {
			same = false
		}
	}
	if same {
		t.Fatal("attempt index does not influence decisions")
	}
}

// A nil injector must be a safe no-op so callers thread it unconditionally.
func TestFaultNilInjectorNoOp(t *testing.T) {
	var inj *injector
	if err := inj.hook(5, 0); err != nil {
		t.Fatal(err)
	}
	if inj.fired() != nil {
		t.Fatal("nil injector reported activity")
	}
}
