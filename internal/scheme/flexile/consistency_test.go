package flexile

import (
	"context"
	"math"
	"testing"

	"flexile/internal/te"
)

// TestScenLossOptMatchesBruteForce: the ScenLossOpt vector a γ-variant
// offline solve precomputes through the parallel pool must agree, scenario
// by scenario, with a fresh sequential max-concurrent-scale solve — the
// brute-force definition ScenLoss*_q = max(0, 1 − z*_q). Catches any index or
// plumbing mix-up between the pool's work items and the result slots.
func TestScenLossOptMatchesBruteForce(t *testing.T) {
	for _, tc := range []struct {
		name string
		inst *te.Instance
	}{
		{"triangle", triangleInstance()},
		{"sprint", sprintInstance(t)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inst := tc.inst
			off, err := Offline(inst, Options{Workers: 4, Gamma: 0.3})
			if err != nil {
				t.Fatal(err)
			}
			if len(off.ScenLossOpt) != len(inst.Scenarios) {
				t.Fatalf("ScenLossOpt has %d entries for %d scenarios", len(off.ScenLossOpt), len(inst.Scenarios))
			}
			for q, scen := range inst.Scenarios {
				z, _, _, err := te.MaxConcurrentScaleCtx(context.Background(), inst, scen, nil, inst.ScenDemandVector(q), nil)
				if err != nil {
					t.Fatalf("scenario %d: brute-force solve: %v", q, err)
				}
				want := math.Max(0, 1-math.Min(1, z))
				if math.Abs(off.ScenLossOpt[q]-want) > 1e-6 {
					t.Fatalf("scenario %d: precomputed ScenLossOpt %v, brute force %v", q, off.ScenLossOpt[q], want)
				}
			}
		})
	}
}
