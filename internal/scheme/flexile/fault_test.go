package flexile

import (
	"context"
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"
)

// allScenarioScript builds a fault script firing the given attempt
// sequence on every scenario of the instance.
func allScenarioScript(nq int, kinds ...faultKind) map[int][]faultKind {
	script := make(map[int][]faultKind, nq)
	for q := 0; q < nq; q++ {
		script[q] = kinds
	}
	return script
}

// TestOfflineFaultRetryRecovers: a singular basis injected on the first
// attempt of every scenario solve must be absorbed by the retry policy —
// the hardened re-solve succeeds, the result is identical to a fault-free
// run, and every recovery is accounted for in Report.Retried.
func TestOfflineFaultRetryRecovers(t *testing.T) {
	inst := triangleInstance()
	clean, err := Offline(inst, Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	inj := scriptInjector(allScenarioScript(len(inst.Scenarios), faultSingularBasis))
	got, err := Offline(inst, Options{Workers: 2, faultHook: inj.hook})
	if err != nil {
		t.Fatalf("faulted solve: %v", err)
	}
	if !got.Report.Degraded() || len(got.Report.Retried) == 0 {
		t.Fatalf("expected retries in the report, got %+v", got.Report)
	}
	if len(got.Report.Skipped) != 0 {
		t.Fatalf("retryable faults must recover, not skip: %+v", got.Report.Skipped)
	}
	for _, f := range got.Report.Retried {
		if f.Attempts != 2 {
			t.Fatalf("scenario %d recovered after %d attempts, want 2", f.Scenario, f.Attempts)
		}
		if !strings.Contains(f.Err, "singular") {
			t.Fatalf("retry cause %q does not mention the injected singular basis", f.Err)
		}
	}
	if !got.Critical.Equal(clean.Critical) {
		t.Fatal("recovered-from-faults run diverged from the fault-free critical set")
	}
	if !reflect.DeepEqual(got.PercLoss, clean.PercLoss) {
		t.Fatalf("PercLoss %v after recovery, fault-free %v", got.PercLoss, clean.PercLoss)
	}
	if fired := inj.fired()[faultSingularBasis]; fired == 0 {
		t.Fatal("injector never fired")
	}
	// Bland's rule runs only as the hardened retry: one activation per
	// retried scenario solve, none in the fault-free run.
	if n := got.Report.Metrics.LP.BlandActivations; n != int64(len(got.Report.Retried)) {
		t.Fatalf("%d Bland activations for %d hardened retries", n, len(got.Report.Retried))
	}
	if n := clean.Report.Metrics.LP.BlandActivations; n != 0 {
		t.Fatalf("fault-free run counted %d Bland activations", n)
	}
}

// TestOfflineFaultSkipDegradedResult: when every attempt of every
// scenario solve fails, the solve must still return a usable (warm-start)
// result — scenarios are skipped and reported, never crashed on — and the
// online phase must produce a feasible allocation from it.
func TestOfflineFaultSkipDegradedResult(t *testing.T) {
	inst := triangleInstance()
	inj := scriptInjector(allScenarioScript(len(inst.Scenarios),
		faultSingularBasis, faultSingularBasis))
	res, err := Offline(inst, Options{Workers: 2, faultHook: inj.hook})
	if err != nil {
		t.Fatalf("exhausted retries must degrade, not error: %v", err)
	}
	if len(res.Report.Skipped) == 0 {
		t.Fatalf("expected skipped scenarios, got %+v", res.Report)
	}
	for _, f := range res.Report.Skipped {
		if f.Attempts != 2 {
			t.Fatalf("scenario %d skipped after %d attempts, want 2 (1 + default retry)", f.Scenario, f.Attempts)
		}
	}
	if res.Critical == nil {
		t.Fatal("degraded result lost its critical set")
	}
	alloc, err := Online(inst, res, 0, Options{})
	if err != nil {
		t.Fatalf("online phase on fully degraded offline result: %v", err)
	}
	if alloc == nil || alloc.X == nil {
		t.Fatal("online phase returned no allocation")
	}
}

// TestOfflineFaultPanicIsolated: a worker panic on one scenario is
// recovered into a skip of exactly that scenario — no retry (panics
// indicate bugs, not numerics), no crash, and the remaining scenarios
// still solve.
func TestOfflineFaultPanicIsolated(t *testing.T) {
	inst := triangleInstance()
	const victim = 1
	inj := scriptInjector(map[int][]faultKind{victim: {faultPanic}})
	res, err := Offline(inst, Options{Workers: 2, faultHook: inj.hook})
	if err != nil {
		t.Fatalf("panic must be isolated, not fatal: %v", err)
	}
	if len(res.Report.Skipped) == 0 {
		t.Fatal("panicking scenario was not reported as skipped")
	}
	for _, f := range res.Report.Skipped {
		if f.Scenario != victim {
			t.Fatalf("scenario %d skipped, only %d was faulted", f.Scenario, victim)
		}
		if f.Attempts != 1 {
			t.Fatalf("panic retried (%d attempts); panics must skip directly", f.Attempts)
		}
		if !strings.Contains(f.Err, "panic") {
			t.Fatalf("skip cause %q does not mention the panic", f.Err)
		}
	}
	if res.SubproblemSolves == 0 {
		t.Fatal("no other scenario solved; isolation failed")
	}
}

// TestOfflineCancelPreCanceled: a canceled context aborts before any work,
// with the context error preserved in the chain.
func TestOfflineCancelPreCanceled(t *testing.T) {
	inst := triangleInstance()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, err := OfflineCtx(ctx, inst, Options{Workers: 2})
	if err == nil {
		t.Fatal("canceled solve returned no error")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error %v does not wrap context.Canceled", err)
	}
	if res != nil {
		t.Fatal("canceled solve must not return a partial result")
	}
}

// TestOfflineCancelTimeout: Options.Timeout bounds the solve's wall clock;
// an expired deadline is a hard abort wrapping context.DeadlineExceeded —
// degraded mode never swallows cancellation.
func TestOfflineCancelTimeout(t *testing.T) {
	inst := triangleInstance()
	_, err := Offline(inst, Options{Workers: 2, Timeout: time.Nanosecond})
	if err == nil {
		t.Fatal("nanosecond-deadline solve returned no error")
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error %v does not wrap context.DeadlineExceeded", err)
	}
}

// TestOfflineFaultDeterministicAcrossWorkers extends PR 1's determinism
// contract to faulted runs: with a seeded injector whose decisions depend
// only on (seed, scenario, attempt), the degraded result — critical set,
// losses, trajectory, and the full SolveReport — is bit-for-bit identical
// for every worker count.
func TestOfflineFaultDeterministicAcrossWorkers(t *testing.T) {
	inst := sprintInstance(t)
	run := func(workers int) (*OfflineResult, *injector) {
		inj := newInjector(42, 0.5, faultSingularBasis, faultIterLimit)
		res, err := Offline(inst, Options{Workers: workers, faultHook: inj.hook})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return res, inj
	}
	base, baseInj := run(1)
	if !base.Report.Degraded() {
		t.Fatal("seeded injector fired nothing; the test is vacuous — change the seed or rate")
	}
	for _, workers := range []int{2, 8} {
		got, inj := run(workers)
		if !got.Critical.Equal(base.Critical) {
			t.Fatalf("workers=%d: Critical bitmap differs from sequential faulted run", workers)
		}
		if !reflect.DeepEqual(got.PercLoss, base.PercLoss) {
			t.Fatalf("workers=%d: PercLoss %v, sequential %v", workers, got.PercLoss, base.PercLoss)
		}
		if got.Iterations != base.Iterations || got.SubproblemSolves != base.SubproblemSolves {
			t.Fatalf("workers=%d: trajectory differs: iters %d vs %d, solves %d vs %d",
				workers, got.Iterations, base.Iterations, got.SubproblemSolves, base.SubproblemSolves)
		}
		// Wall-clock timers and the per-worker item distribution legitimately
		// vary with the worker count; every other field — including all the
		// solver counters — must match bit for bit.
		normReport := func(r SolveReport) SolveReport {
			r.Metrics = r.Metrics.Canonical()
			return r
		}
		if !reflect.DeepEqual(normReport(got.Report), normReport(base.Report)) {
			t.Fatalf("workers=%d: SolveReport differs:\n%+v\nsequential:\n%+v", workers, got.Report, base.Report)
		}
		if !reflect.DeepEqual(inj.fired(), baseInj.fired()) {
			t.Fatalf("workers=%d: injected faults %v, sequential %v", workers, inj.fired(), baseInj.fired())
		}
	}
}

// TestOnlineDegradedMissingOfflineData: the online phase must produce a
// feasible allocation from any degraded offline result — nil result, empty
// result, or a critical set with no loss matrix behind it — never panic.
func TestOnlineDegradedMissingOfflineData(t *testing.T) {
	inst := triangleInstance()
	nf, nq := inst.NumFlows(), len(inst.Scenarios)

	if res, err := Online(inst, nil, 0, Options{}); err != nil || res == nil {
		t.Fatalf("nil offline result: res=%v err=%v", res, err)
	}
	if res, err := Online(inst, &OfflineResult{}, 0, Options{Gamma: 0.05}); err != nil || res == nil {
		t.Fatalf("empty offline result with γ: res=%v err=%v", res, err)
	}
	// Critical bits set but no SubLosses: the promise degrades to the full
	// demand (loss 0), which the allocation must still satisfy feasibly.
	partial := &OfflineResult{Critical: NewCriticalSet(nf, nq)}
	partial.Critical.Set(0, 0, true)
	if res, err := Online(inst, partial, 0, Options{}); err != nil || res == nil {
		t.Fatalf("critical set without losses: res=%v err=%v", res, err)
	}
}
