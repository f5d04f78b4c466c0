package flexile

import (
	"context"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"flexile/internal/obs"
)

// TestAugmentPinned pins capacity augmentation bit for bit on Sprint at two
// demand scales where Offline's design misses the target (PercLoss 1/6 at
// ×2, 1/3 at ×2.5) and the decomposition needs several master rounds: the
// iteration count, the total cost, every edge's δ and the critical bitmap.
func TestAugmentPinned(t *testing.T) {
	for _, tc := range []struct {
		scale float64
		iters int
		cost  float64
		delta []float64
		words []uint64
	}{
		{2, 5, 475.05269530387795,
			[]float64{0, 0, 0, 0, 110.0761397530415, 68.7724627270517, 0, 49.811814190788326, 49.923860246958405, 86.39227863299645, 0, 0, 0, 0, 110.07613975304157, 0, 0},
			allCritical(45 * 12)},
		{2.5, 5, 795.75405890776005,
			[]float64{0, 0, 0, 1.938189777913276, 114.53336446921492, 21.43221393959962, 114.53336446921469, 135.3265779605722, 135.4666355307851, 107.89676243269768, 0, 0, 0, 0, 114.53336446921492, 0, 50.09358585854773},
			allCritical(45 * 12)},
	} {
		inst := sprintInstance(t)
		inst.ScaleDemands(tc.scale)
		res, err := Augment(inst, AugmentOptions{})
		if err != nil {
			t.Fatalf("×%v: %v", tc.scale, err)
		}
		if res.Iterations != tc.iters {
			t.Errorf("×%v: %d iterations, want %d", tc.scale, res.Iterations, tc.iters)
		}
		if math.Float64bits(res.TotalCost) != math.Float64bits(tc.cost) {
			t.Errorf("×%v: TotalCost %.17g, want %.17g", tc.scale, res.TotalCost, tc.cost)
		}
		if !slices.Equal(res.Delta, tc.delta) {
			t.Errorf("×%v: Delta %v, want %v", tc.scale, res.Delta, tc.delta)
		}
		if !slices.Equal(res.Critical.Words(), tc.words) {
			t.Errorf("×%v: Critical words %#x, want %#x", tc.scale, res.Critical.Words(), tc.words)
		}
		for k, pl := range res.AchievedPercLoss {
			if pl > 1e-6 {
				t.Errorf("×%v: class %d residual loss %v", tc.scale, k, pl)
			}
		}
	}
}

// TestAugmentOfflineMeetsTargets: on Sprint ×1.3 and ×1.6 Offline's design
// alone reaches PercLoss ~1e-15, so the minimum-cost augmentation is none.
// Augment returns Offline's design, bit for bit, with δ = 0.
func TestAugmentOfflineMeetsTargets(t *testing.T) {
	for _, scale := range []float64{1.3, 1.6} {
		inst := sprintInstance(t)
		inst.ScaleDemands(scale)
		off, err := Offline(inst, Options{MaxIterations: 8})
		if err != nil {
			t.Fatal(err)
		}
		res, err := Augment(inst, AugmentOptions{})
		if err != nil {
			t.Fatalf("×%v: %v", scale, err)
		}
		if res.TotalCost != 0 || slices.ContainsFunc(res.Delta, func(d float64) bool { return d != 0 }) {
			t.Errorf("×%v: TotalCost %v, δ %v; Offline's design has PercLoss %v", scale, res.TotalCost, res.Delta, off.PercLoss)
		}
		if !res.Critical.Equal(off.Critical) || !slices.Equal(res.AchievedPercLoss, off.PercLoss) || res.Iterations != off.Iterations {
			t.Errorf("×%v: result is not Offline's design: PercLoss %v in %d iterations, Offline %v in %d",
				scale, res.AchievedPercLoss, res.Iterations, off.PercLoss, off.Iterations)
		}
	}
}

// allCritical is the bitmap words of n bits, all set.
func allCritical(n int) []uint64 {
	w := make([]uint64, (n+63)/64)
	for i := range w {
		w[i] = math.MaxUint64
	}
	if r := n % 64; r != 0 {
		w[len(w)-1] = 1<<r - 1
	}
	return w
}

// TestAugmentScenarioDemands: Augment solves each scenario at its own
// traffic matrix. With 1.5 units per flow in every failure scenario the
// triangle's single-failure states cannot carry both flows on unit links,
// so meeting the zero-loss target costs capacity; solving the base demands
// instead would report cost 0 while Offline sees PercLoss 1/3.
func TestAugmentScenarioDemands(t *testing.T) {
	inst := triangleInstance()
	inst.ScenDemand = make([][]float64, len(inst.Scenarios))
	for q, s := range inst.Scenarios {
		if len(s.Failed) > 0 {
			inst.ScenDemand[q] = []float64{1.5, 1.5, 0}
		}
	}
	res, err := Augment(inst, AugmentOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalCost < 0.5 {
		t.Fatalf("cost %v: the failure-scenario demands need extra capacity", res.TotalCost)
	}
	for k, pl := range res.AchievedPercLoss {
		if pl > 1e-6 {
			t.Fatalf("class %d residual loss %v", k, pl)
		}
	}
}

// TestAugmentZeroCapacityEdge: an edge with no capacity of its own can be
// augmented. Its capacity dual is what prices δ there, so it must not be
// recovered by dividing the scaled dual by a capacity of 0.
func TestAugmentZeroCapacityEdge(t *testing.T) {
	for _, e := range []int{0, 1} {
		inst := triangleInstance()
		inst.Topo.G.SetCapacity(e, 0)
		res, err := Augment(inst, AugmentOptions{MaxAug: []float64{2, 2, 2}})
		if err != nil {
			t.Fatalf("edge %d at capacity 0: %v", e, err)
		}
		if math.Abs(res.Delta[e]-1) > 1e-6 || math.Abs(res.TotalCost-1) > 1e-6 {
			t.Fatalf("edge %d at capacity 0: δ %v, cost %v; want 1 unit on the edge", e, res.Delta, res.TotalCost)
		}
		for k, pl := range res.AchievedPercLoss {
			if pl > 1e-6 {
				t.Fatalf("edge %d: class %d residual loss %v", e, k, pl)
			}
		}
	}
}

// sameAugment fails unless two augmentations agree bit for bit in δ, cost,
// iterations and critical set.
func sameAugment(t *testing.T, what string, got, want *AugmentResult) {
	t.Helper()
	if got.Iterations != want.Iterations || math.Float64bits(got.TotalCost) != math.Float64bits(want.TotalCost) ||
		!slices.Equal(got.Delta, want.Delta) || !got.Critical.Equal(want.Critical) {
		t.Fatalf("%s: iters %d cost %.17g δ %v, want iters %d cost %.17g δ %v", what,
			got.Iterations, got.TotalCost, got.Delta, want.Iterations, want.TotalCost, want.Delta)
	}
}

// TestAugmentDeterministicAcrossWorkers is TestOfflineDeterministicAcrossWorkers
// for Augment: the worker pool it inherits from the decomposition loop
// changes nothing but wall-clock. It is part of `make race`.
func TestAugmentDeterministicAcrossWorkers(t *testing.T) {
	inst := sprintInstance(t)
	inst.ScaleDemands(2)
	base, err := augment(context.Background(), inst, AugmentOptions{}, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// One iteration does not meet the targets: the error is expected, and
	// the result still carries the run's metrics.
	seeded := seededFirstIteration(t, func(workers int) (obs.SolveMetrics, error) {
		res, err := augment(context.Background(), inst, AugmentOptions{MaxIterations: 1}, Options{Workers: workers})
		if res == nil {
			return obs.SolveMetrics{}, err
		}
		return res.Report.Metrics, nil
	})
	if m := seeded; m.LP.Solves != m.Decomp.ScenarioSolves {
		t.Fatalf("first iteration: %d LP solves for %d scenario solves", m.LP.Solves, m.Decomp.ScenarioSolves)
	}
	for _, workers := range []int{2, 8} {
		got, err := augment(context.Background(), inst, AugmentOptions{}, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		sameAugment(t, fmt.Sprintf("workers=%d", workers), got, base)
		if !slices.Equal(got.AchievedPercLoss, base.AchievedPercLoss) {
			t.Fatalf("workers=%d: AchievedPercLoss %v, sequential %v", workers, got.AchievedPercLoss, base.AchievedPercLoss)
		}
		// Canonical drops only wall-clock and the per-worker layout.
		if !reflect.DeepEqual(got.Report.Metrics.Canonical(), base.Report.Metrics.Canonical()) {
			t.Fatalf("workers=%d: canonical metrics differ:\n%s\nsequential:\n%s",
				workers, got.Report.Metrics.Canonical().JSON(), base.Report.Metrics.Canonical().JSON())
		}
	}
	if m := base.Report.Metrics.Decomp; m.MasterSolves != int64(base.Iterations-1) || m.ScenarioSolves == 0 {
		t.Fatalf("decomposition counters %+v for %d iterations", m, base.Iterations)
	}
}

// TestAugmentFaultSkippedScenario: Augment inherits the retry/skip policy.
// A scenario that fails every attempt is skipped and reported, and counts
// as loss 1 for its critical flows, so Augment never declares the targets
// met without having solved it; a one-shot singular basis is retried and
// lands on the clean answer.
func TestAugmentFaultSkippedScenario(t *testing.T) {
	t.Run("skipped", func(t *testing.T) {
		inst := triangleInstance()
		inst.ScaleDemands(1.5)
		// Scenario 0, no link failed, carries 97 % of the mass: every flow
		// is critical there in any critical set that covers β = 0.99.
		inj := scriptInjector(map[int][]faultKind{0: {faultSingularBasis, faultSingularBasis}})
		res, err := augment(context.Background(), inst, AugmentOptions{MaxIterations: 3}, Options{Workers: 2, faultHook: inj.hook})
		if err == nil {
			t.Fatalf("targets declared met with scenario 0 never solved: %+v", res)
		}
		if res == nil || len(res.Report.Skipped) != res.Iterations {
			t.Fatalf("want scenario 0 skipped in each iteration, got %+v (err %v)", res, err)
		}
		for it, f := range res.Report.Skipped {
			if f.Scenario != 0 || f.Iteration != it || f.Attempts != 2 {
				t.Fatalf("skip %d = %+v, want scenario 0 at iteration %d after 2 attempts", it, f, it)
			}
		}
	})
	t.Run("retried", func(t *testing.T) {
		inst := triangleInstance()
		inst.ScaleDemands(1.5)
		clean, err := augment(context.Background(), inst, AugmentOptions{}, Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// Scenario 3 (A–B down) is the one whose cuts price δ. The retry
		// runs Bland's rule, which may end on another optimal vertex: in a
		// degenerate scenario (B–C down, at this scale) that moves δ by ulps.
		inj := scriptInjector(map[int][]faultKind{3: {faultSingularBasis}})
		got, err := augment(context.Background(), inst, AugmentOptions{}, Options{Workers: 2, faultHook: inj.hook})
		if err != nil {
			t.Fatal(err)
		}
		if len(got.Report.Retried) == 0 || len(got.Report.Skipped) != 0 {
			t.Fatalf("want retries and no skips, got %+v", got.Report)
		}
		for _, f := range got.Report.Retried {
			if f.Attempts != 2 || !strings.Contains(f.Err, "singular") {
				t.Fatalf("retry %+v: want recovery on attempt 2 from a singular basis", f)
			}
		}
		sameAugment(t, "after retries", got, clean)
	})
}
