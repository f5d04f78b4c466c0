package flexile

import (
	"reflect"
	"testing"

	"flexile/internal/failure"
	"flexile/internal/obs"
	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/traffic"
	"flexile/internal/tunnels"
)

// sprintInstance builds a realistic small instance (Sprint, 11 nodes,
// single class, §6 methodology) with enough scenarios to exercise the
// pruning, cut sharing and master machinery across iterations.
func sprintInstance(t *testing.T) *te.Instance {
	t.Helper()
	tp, err := topo.Load("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	if err := traffic.ApplyGravity(inst, traffic.GravityOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	probs := failure.WeibullProbs(tp.G, 2, failure.WeibullParams{})
	inst.LinkProbs = probs
	scens := failure.Enumerate(probs, 1e-4)
	if len(scens) > 12 {
		scens = scens[:12]
	}
	inst.Scenarios = scens
	beta := inst.AllFlowsConnectedMass() - 1e-9
	if beta > 0.999 {
		beta = 0.999
	}
	if cov := failure.Coverage(inst.Scenarios); beta > 1-8*(1-cov) {
		beta = 1 - 8*(1-cov)
	}
	if beta < 0.5 {
		beta = 0.5
	}
	inst.Classes[0].Beta = beta
	return inst
}

// seededFirstIteration runs a decomposition stopped after its first
// iteration (run(workers) returns its metrics) at 1, 2 and 8 workers. Every
// scenario shares one LP there, so the most probable scenario is solved cold
// and seeds the rest: exactly one scenario solve fewer than all started
// warm, and the dual pivots they took, like every other counter, do not
// depend on the worker count. It returns the sequential run's metrics.
func seededFirstIteration(t *testing.T, run func(workers int) (obs.SolveMetrics, error)) obs.SolveMetrics {
	t.Helper()
	var base obs.SolveMetrics
	for _, workers := range []int{1, 2, 8} {
		m, err := run(workers)
		if err != nil {
			t.Fatalf("first iteration, workers=%d: %v", workers, err)
		}
		if m.Decomp.Iterations != 1 || m.LP.WarmStarts != m.Decomp.ScenarioSolves-1 || m.LP.DualPivots == 0 {
			t.Fatalf("first iteration, workers=%d: %d iterations, %d of %d scenario solves warm, %d dual pivots; want every one but the seed warm",
				workers, m.Decomp.Iterations, m.LP.WarmStarts, m.Decomp.ScenarioSolves, m.LP.DualPivots)
		}
		if workers == 1 {
			base = m
		} else if !reflect.DeepEqual(m.Canonical(), base.Canonical()) {
			t.Fatalf("first iteration, workers=%d: canonical metrics differ:\n%s\nsequential:\n%s",
				workers, m.Canonical().JSON(), base.Canonical().JSON())
		}
	}
	return base
}

// TestOfflineDeterministicAcrossWorkers is the contract the parallel solve
// engine promises: the offline result is bit-for-bit identical for every
// worker count — same critical bitmap, same PercLoss, same convergence
// history, same solve count, same solver counters — and so is the first
// iteration, whose scenarios start from one seed basis. Run with -race to also exercise the engine's
// memory-safety (the test is the package's race detector workload).
func TestOfflineDeterministicAcrossWorkers(t *testing.T) {
	inst := sprintInstance(t)
	base, err := Offline(inst, Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	// With γ off the first iteration solves only the subproblems; the γ
	// variant's ScenLoss precompute adds one cold LP per scenario beside
	// them.
	for _, tc := range []struct {
		gamma       float64
		perScenario int64
	}{{0, 1}, {0.3, 2}} {
		// The precompute runs whole in the first iteration, so its vector
		// is compared across worker counts here.
		scenLoss := map[int][]float64{}
		m := seededFirstIteration(t, func(workers int) (obs.SolveMetrics, error) {
			res, err := Offline(inst, Options{Workers: workers, MaxIterations: 1, Gamma: tc.gamma})
			if err != nil {
				return obs.SolveMetrics{}, err
			}
			scenLoss[workers] = res.ScenLossOpt
			return res.Report.Metrics, nil
		})
		if m.LP.Solves != tc.perScenario*m.Decomp.ScenarioSolves {
			t.Fatalf("first iteration, γ=%v: %d LP solves for %d scenario solves, want %d×",
				tc.gamma, m.LP.Solves, m.Decomp.ScenarioSolves, tc.perScenario)
		}
		for _, workers := range []int{1, 2, 8} {
			got := scenLoss[workers]
			if tc.gamma == 0 {
				if got != nil {
					t.Fatalf("γ off, workers=%d: ScenLossOpt = %v, want nil", workers, got)
				}
				continue
			}
			if len(got) != len(inst.Scenarios) {
				t.Fatalf("γ=%v, workers=%d: ScenLossOpt has %d entries for %d scenarios",
					tc.gamma, workers, len(got), len(inst.Scenarios))
			}
			for q := range got {
				if got[q] != scenLoss[1][q] {
					t.Fatalf("γ=%v, workers=%d: ScenLossOpt[%d] = %v, sequential %v",
						tc.gamma, workers, q, got[q], scenLoss[1][q])
				}
			}
		}
	}
	for _, workers := range []int{2, 8} {
		got, err := Offline(inst, Options{Workers: workers})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		// Canonical drops only wall-clock and the per-worker layout: the
		// warm starts and dual pivots match too.
		if !reflect.DeepEqual(got.Report.Metrics.Canonical(), base.Report.Metrics.Canonical()) {
			t.Fatalf("workers=%d: canonical metrics differ:\n%s\nsequential:\n%s",
				workers, got.Report.Metrics.Canonical().JSON(), base.Report.Metrics.Canonical().JSON())
		}
		if !got.Critical.Equal(base.Critical) {
			t.Fatalf("workers=%d: Critical bitmap differs from sequential run", workers)
		}
		if got.Iterations != base.Iterations || got.SubproblemSolves != base.SubproblemSolves {
			t.Fatalf("workers=%d: trajectory differs: iters %d vs %d, solves %d vs %d",
				workers, got.Iterations, base.Iterations, got.SubproblemSolves, base.SubproblemSolves)
		}
		for k := range base.PercLoss {
			if got.PercLoss[k] != base.PercLoss[k] {
				t.Fatalf("workers=%d: PercLoss[%d] = %v, sequential %v", workers, k, got.PercLoss[k], base.PercLoss[k])
			}
		}
		for it := range base.IterPenalty {
			if got.IterPenalty[it] != base.IterPenalty[it] {
				t.Fatalf("workers=%d: IterPenalty[%d] = %v, sequential %v", workers, it, got.IterPenalty[it], base.IterPenalty[it])
			}
		}
		if got.ScenLossOpt != nil || base.ScenLossOpt != nil {
			t.Fatalf("workers=%d: γ off computed a ScenLossOpt vector", workers)
		}
		for f := range base.SubLosses {
			for q := range base.SubLosses[f] {
				if got.SubLosses[f][q] != base.SubLosses[f][q] {
					t.Fatalf("workers=%d: SubLosses[%d][%d] differs", workers, f, q)
				}
			}
		}
	}
}

// TestOfflineDeterministicTriangleGamma covers the γ-variant and
// per-scenario-subproblem paths under parallelism.
func TestOfflineDeterministicTriangleGamma(t *testing.T) {
	inst := triangleInstance()
	base, err := Offline(inst, Options{Gamma: 0.3, Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := Offline(inst, Options{Gamma: 0.3, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !got.Critical.Equal(base.Critical) || got.PercLoss[0] != base.PercLoss[0] {
		t.Fatalf("γ mode: workers=4 diverges: PercLoss %v vs %v", got.PercLoss[0], base.PercLoss[0])
	}
	if len(base.ScenLossOpt) != len(inst.Scenarios) || len(got.ScenLossOpt) != len(inst.Scenarios) {
		t.Fatalf("γ mode: ScenLossOpt has %d and %d entries for %d scenarios",
			len(base.ScenLossOpt), len(got.ScenLossOpt), len(inst.Scenarios))
	}
	for q := range base.ScenLossOpt {
		if got.ScenLossOpt[q] != base.ScenLossOpt[q] {
			t.Fatalf("γ mode: workers=4 ScenLossOpt[%d] = %v, sequential %v", q, got.ScenLossOpt[q], base.ScenLossOpt[q])
		}
	}
}

// TestScenarioColumnSnapshot pins the column-snapshot cache type: a
// snapshot equals the source column, detects any flip in it, is blind to
// other columns (that is the memory win), and costs O(nf) bytes.
func TestScenarioColumnSnapshot(t *testing.T) {
	cs := NewCriticalSet(70, 9) // flows span >1 uint64 word
	cs.Set(0, 3, true)
	cs.Set(64, 3, true)
	cs.Set(69, 3, true)
	cs.Set(5, 4, true)
	col := cs.CloneScenario(3)
	if col.Flows() != 70 {
		t.Fatalf("Flows() = %d", col.Flows())
	}
	for f := 0; f < 70; f++ {
		if col.Get(f) != cs.Get(f, 3) {
			t.Fatalf("snapshot bit %d differs", f)
		}
	}
	if !col.EqualColumn(cs, 3) {
		t.Fatal("snapshot must equal its source column")
	}
	// A change in another column must not invalidate the snapshot...
	cs.Set(12, 5, true)
	if !col.EqualColumn(cs, 3) {
		t.Fatal("snapshot must ignore other columns")
	}
	// ...but any flip in column 3 must.
	cs.Set(64, 3, false)
	if col.EqualColumn(cs, 3) {
		t.Fatal("snapshot must detect a flip in its column")
	}
	if col.ByteSize() >= cs.ByteSize() {
		t.Fatalf("column snapshot (%dB) should be smaller than the full bitmap (%dB)", col.ByteSize(), cs.ByteSize())
	}
	if col.EqualColumn(NewCriticalSet(3, 9), 3) {
		t.Fatal("mismatched flow dimension must compare unequal")
	}
}
