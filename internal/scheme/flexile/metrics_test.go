package flexile

import (
	"reflect"
	"testing"

	"flexile/internal/te"
)

// TestMetricsDeterministicAcrossWorkers: the deterministic portion of the
// per-solve metrics snapshot (everything Canonical() keeps — pivot counts,
// node counts, cut counts, statuses) is bit-identical for every worker
// count, exactly like the solve result itself.
func TestMetricsDeterministicAcrossWorkers(t *testing.T) {
	for _, tc := range []struct {
		name       string
		inst       func(*testing.T) *te.Instance
		opt        Options
		wantMaster bool // the triangle instance needs a master round; sprint converges without one
	}{
		{"sprint", sprintInstance, Options{}, false},
		{"triangle", func(*testing.T) *te.Instance { return triangleInstance() }, Options{}, true},
		{"triangle-gamma", func(*testing.T) *te.Instance { return triangleInstance() }, Options{Gamma: 0.05}, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst(t)
			opt := tc.opt
			opt.Workers = 1
			base, err := Offline(inst, opt)
			if err != nil {
				t.Fatal(err)
			}
			bm := base.Report.Metrics

			// Sanity: the snapshot actually observed the solve.
			if bm.LP.Solves == 0 || bm.LP.Pivots == 0 || bm.LP.Optimal == 0 {
				t.Fatalf("LP counters empty: %+v", bm.LP)
			}
			if bm.LP.Phase1Pivots+bm.LP.Phase2Pivots+bm.LP.DualPivots != bm.LP.Pivots {
				t.Fatalf("phase split %d + %d + %d dual does not sum to pivots %d",
					bm.LP.Phase1Pivots, bm.LP.Phase2Pivots, bm.LP.DualPivots, bm.LP.Pivots)
			}
			// A master whose warm incumbent meets the root's box bound is
			// pruned before any node is explored, so it shows as a pruned
			// node rather than an explored one.
			if tc.wantMaster && (bm.MIP.Solves == 0 || bm.MIP.Nodes+bm.MIP.PrunedNodes == 0 || bm.Decomp.MasterSolves == 0) {
				t.Fatalf("master MIP never observed: mip %+v, decomp %+v", bm.MIP, bm.Decomp)
			}
			if bm.Decomp.Solves != 1 {
				t.Fatalf("Decomp.Solves = %d, want 1", bm.Decomp.Solves)
			}
			if bm.Decomp.Iterations != int64(base.Iterations) {
				t.Fatalf("Decomp.Iterations = %d, result says %d", bm.Decomp.Iterations, base.Iterations)
			}
			if bm.Decomp.ScenarioSolves != int64(base.SubproblemSolves) {
				t.Fatalf("Decomp.ScenarioSolves = %d, result says %d", bm.Decomp.ScenarioSolves, base.SubproblemSolves)
			}
			if bm.Decomp.CutsGenerated == 0 {
				t.Fatalf("decomposition counters empty: %+v", bm.Decomp)
			}
			if bm.Pool.Launches == 0 || bm.Pool.Items == 0 {
				t.Fatalf("pool counters empty: %+v", bm.Pool)
			}
			if bm.LP.SolveNanos == 0 {
				t.Fatalf("LP.SolveNanos not recorded")
			}
			// The per-solve latency distributions observed the run too: one
			// LP-solve observation per started simplex that got past
			// construction, one scenario-solve observation per subproblem
			// work item.
			if lat := bm.Latency.LPSolve; lat.Count == 0 || lat.Sum == 0 || int64(lat.Count) > bm.LP.Solves {
				t.Fatalf("LP latency histogram inconsistent: %+v vs %d solves", lat, bm.LP.Solves)
			}
			if lat := bm.Latency.ScenarioSolve; lat.Count == 0 || int64(lat.Count) < bm.Decomp.ScenarioSolves {
				t.Fatalf("scenario latency histogram inconsistent: %+v vs %d scenario solves",
					lat, bm.Decomp.ScenarioSolves)
			}

			for _, workers := range []int{2, 8} {
				opt.Workers = workers
				got, err := Offline(inst, opt)
				if err != nil {
					t.Fatalf("workers=%d: %v", workers, err)
				}
				if !reflect.DeepEqual(got.Report.Metrics.Canonical(), bm.Canonical()) {
					t.Fatalf("workers=%d: canonical metrics differ:\n%s\nsequential:\n%s",
						workers, got.Report.Metrics.Canonical().JSON(), bm.Canonical().JSON())
				}
			}
		})
	}
}

// TestFaultMetricsMatchInjector: on fault-injected runs, the decomposition
// metrics agree exactly with both the SolveReport and the injector's own
// accounting of what it fired.
func TestFaultMetricsMatchInjector(t *testing.T) {
	inst := triangleInstance()
	nq := len(inst.Scenarios)

	t.Run("retries", func(t *testing.T) {
		inj := scriptInjector(allScenarioScript(nq, faultSingularBasis))
		res, err := Offline(inst, Options{Workers: 2, faultHook: inj.hook})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Report.Metrics.Decomp
		if m.ScenarioRetries != int64(len(res.Report.Retried)) {
			t.Fatalf("metrics say %d retries, report lists %d", m.ScenarioRetries, len(res.Report.Retried))
		}
		if m.ScenarioSkips != 0 || len(res.Report.Skipped) != 0 {
			t.Fatalf("single retryable fault must not skip: metrics %d, report %d",
				m.ScenarioSkips, len(res.Report.Skipped))
		}
		// Every fired fault caused exactly one successful retry (a scenario
		// re-solved in a later iteration hits the script again, so this can
		// exceed the scenario count — the injector is the ground truth).
		if fired := inj.fired()[faultSingularBasis]; int64(fired) != m.ScenarioRetries {
			t.Fatalf("injector fired %d faults, metrics recovered %d", fired, m.ScenarioRetries)
		}
		if m.ScenarioRetries < int64(nq) {
			t.Fatalf("every one of the %d scenarios was faulted, metrics say only %d retries", nq, m.ScenarioRetries)
		}
	})

	t.Run("skips", func(t *testing.T) {
		inj := scriptInjector(allScenarioScript(nq,
			faultSingularBasis, faultSingularBasis))
		res, err := Offline(inst, Options{Workers: 2, faultHook: inj.hook})
		if err != nil {
			t.Fatal(err)
		}
		m := res.Report.Metrics.Decomp
		if m.ScenarioSkips != int64(len(res.Report.Skipped)) {
			t.Fatalf("metrics say %d skips, report lists %d", m.ScenarioSkips, len(res.Report.Skipped))
		}
		if m.ScenarioSkips == 0 {
			t.Fatal("exhausted retries produced no skips; the test is vacuous")
		}
		// Two faults per skipped scenario: the original attempt plus the one
		// retry both hit the script.
		if fired := inj.fired()[faultSingularBasis]; int64(fired) != 2*m.ScenarioSkips {
			t.Fatalf("injector fired %d faults for %d skips (want 2 per skip)", fired, m.ScenarioSkips)
		}
	})
}
