package traffic

import (
	"math"
	"testing"

	"flexile/internal/te"
	"flexile/internal/topo"
	"flexile/internal/tunnels"
)

func singleClassInstance(t *testing.T, name string) *te.Instance {
	t.Helper()
	tp := topo.MustLoad(name)
	return te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.999, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
}

func TestGravityHitsTargetMLU(t *testing.T) {
	inst := singleClassInstance(t, "Sprint")
	if err := ApplyGravity(inst, GravityOptions{Seed: 1}); err != nil {
		t.Fatal(err)
	}
	mlu, err := MLU(inst)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mlu-0.6) > 1e-6 {
		t.Fatalf("MLU = %v, want 0.6", mlu)
	}
	// Demands positive for every pair.
	for p, d := range inst.Demand[0] {
		if d <= 0 {
			t.Fatalf("pair %d demand %v", p, d)
		}
	}
}

func TestGravityTargetRange(t *testing.T) {
	for _, target := range []float64{0.5, 0.7} {
		inst := singleClassInstance(t, "CWIX")
		if err := ApplyGravity(inst, GravityOptions{Seed: 3, TargetMLU: target}); err != nil {
			t.Fatal(err)
		}
		mlu, err := MLU(inst)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(mlu-target) > 1e-6 {
			t.Fatalf("MLU = %v, want %v", mlu, target)
		}
	}
}

func TestGravityDeterministic(t *testing.T) {
	a := singleClassInstance(t, "Sprint")
	b := singleClassInstance(t, "Sprint")
	if err := ApplyGravity(a, GravityOptions{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	if err := ApplyGravity(b, GravityOptions{Seed: 9}); err != nil {
		t.Fatal(err)
	}
	for p := range a.Demand[0] {
		if a.Demand[0][p] != b.Demand[0][p] {
			t.Fatal("same seed must give identical demands")
		}
	}
	c := singleClassInstance(t, "Sprint")
	if err := ApplyGravity(c, GravityOptions{Seed: 10}); err != nil {
		t.Fatal(err)
	}
	same := true
	for p := range a.Demand[0] {
		if a.Demand[0][p] != c.Demand[0][p] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds should give different demands")
	}
}

func TestGravityTwoClassSplit(t *testing.T) {
	tp := topo.MustLoad("Sprint")
	inst := te.NewInstance(tp, []te.Class{
		{Name: "high", Beta: 0.999, Weight: 1000, Tunnels: tunnels.HighPriority(3)},
		{Name: "low", Beta: 0.99, Weight: 1, Tunnels: tunnels.LowPriority(3, 3)},
	})
	if err := ApplyGravity(inst, GravityOptions{Seed: 4}); err != nil {
		t.Fatal(err)
	}
	// Reconstruct the pre-split matrix: high + low/2 must equal the scaled
	// gravity matrix, whose single-class optimal MLU is 0.6.
	probe := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.999, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	for p := range inst.Pairs {
		probe.Demand[0][p] = inst.Demand[0][p] + inst.Demand[1][p]/2
	}
	mlu, err := MLU(probe)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mlu-0.6) > 0.05 {
		t.Fatalf("reconstructed matrix MLU = %v, want ≈0.6", mlu)
	}
	// Every pair has nonnegative demand in both classes and a positive sum.
	for p := range inst.Pairs {
		if inst.Demand[0][p] < 0 || inst.Demand[1][p] < 0 {
			t.Fatalf("negative demand at pair %d", p)
		}
		if inst.Demand[0][p]+inst.Demand[1][p] <= 0 {
			t.Fatalf("zero total demand at pair %d", p)
		}
	}
}

func TestApplyUniform(t *testing.T) {
	inst := singleClassInstance(t, "Sprint")
	applyUniform(inst, 2.5)
	for p := range inst.Pairs {
		if inst.Demand[0][p] != 2.5 {
			t.Fatalf("pair %d demand %v", p, inst.Demand[0][p])
		}
	}
}

func TestMLUUniformTriangle(t *testing.T) {
	tp := topo.Triangle()
	inst := te.NewInstance(tp, []te.Class{
		{Name: "single", Beta: 0.99, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	// One unit on each pair; each pair has a direct unit link plus a 2-hop
	// alternative. z* for the symmetric all-pairs demand is 1.5 → MLU = 2/3.
	te.NoFailure()
	applyUniform(inst, 1)
	mlu, err := MLU(inst)
	if err != nil {
		t.Fatal(err)
	}
	if mlu <= 0 || mlu > 1 {
		t.Fatalf("triangle MLU = %v", mlu)
	}
}

func TestGravityThreeClassEvenSplit(t *testing.T) {
	tp := topo.MustLoad("Sprint")
	inst := te.NewInstance(tp, []te.Class{
		{Name: "a", Beta: 0.999, Weight: 100, Tunnels: tunnels.SingleClass(3)},
		{Name: "b", Beta: 0.99, Weight: 10, Tunnels: tunnels.SingleClass(3)},
		{Name: "c", Beta: 0.9, Weight: 1, Tunnels: tunnels.SingleClass(3)},
	})
	if err := ApplyGravity(inst, GravityOptions{Seed: 2}); err != nil {
		t.Fatal(err)
	}
	for p := range inst.Pairs {
		a, b, c := inst.Demand[0][p], inst.Demand[1][p], inst.Demand[2][p]
		if a <= 0 || math.Abs(a-b) > 1e-12 || math.Abs(b-c) > 1e-12 {
			t.Fatalf("pair %d: three-class split not even: %v %v %v", p, a, b, c)
		}
	}
}

func TestGravityLowScaleOption(t *testing.T) {
	tp := topo.MustLoad("Sprint")
	mk := func(scale float64) *te.Instance {
		inst := te.NewInstance(tp, []te.Class{
			{Name: "high", Beta: 0.999, Weight: 1000, Tunnels: tunnels.HighPriority(3)},
			{Name: "low", Beta: 0.99, Weight: 1, Tunnels: tunnels.LowPriority(3, 3)},
		})
		if err := ApplyGravity(inst, GravityOptions{Seed: 5, LowScale: scale}); err != nil {
			t.Fatal(err)
		}
		return inst
	}
	one := mk(1)
	three := mk(3)
	for p := range one.Pairs {
		if one.Demand[1][p] == 0 {
			continue
		}
		ratio := three.Demand[1][p] / one.Demand[1][p]
		if math.Abs(ratio-3) > 1e-9 {
			t.Fatalf("pair %d: LowScale ratio %v, want 3", p, ratio)
		}
	}
}

// applyUniform sets every flow of every class to the same demand.
func applyUniform(inst *te.Instance, demand float64) {
	for k := range inst.Classes {
		for p := range inst.Pairs {
			inst.Demand[k][p] = demand
		}
	}
}
