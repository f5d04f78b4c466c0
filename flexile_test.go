package flexile_test

import (
	"math"
	"strings"
	"testing"

	"flexile"
	"flexile/internal/lp"
	"flexile/internal/topo"
)

// TestPublicAPIQuickstart exercises the doc-comment quickstart path end to
// end on a small topology.
func TestPublicAPIQuickstart(t *testing.T) {
	tp, err := flexile.LoadTopology("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	inst := flexile.NewSingleClassInstance(tp, 3)
	if err := flexile.ApplyGravityTraffic(inst, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	flexile.GenerateFailures(inst, 2, 1e-4, 12)
	beta := flexile.SetDesignTarget(inst)
	if beta <= 0.5 || beta >= 1 {
		t.Fatalf("beta = %v", beta)
	}
	fx := flexile.NewFlexile()
	routing, err := fx.Route(inst)
	if err != nil {
		t.Fatal(err)
	}
	ev := flexile.Evaluate(inst, routing)
	if len(ev.PercLoss) != 1 || ev.PercLoss[0] < 0 || ev.PercLoss[0] > 1 {
		t.Fatalf("PercLoss = %v", ev.PercLoss)
	}
	if ev.Penalty != ev.PercLoss[0]*inst.Classes[0].Weight {
		t.Fatalf("penalty %v vs percloss %v", ev.Penalty, ev.PercLoss[0])
	}
	// The offline result is exposed for inspection.
	if fx.Offline == nil || fx.Offline.Critical == nil {
		t.Fatal("offline result not exposed")
	}
	if fx.Offline.Critical.ByteSize() <= 0 {
		t.Fatal("critical set empty")
	}
}

// TestCriticalSetStorageClaim verifies §4.3's storage arithmetic: 100
// nodes, 1000 scenarios, two classes → about 1.25 MB.
func TestCriticalSetStorageClaim(t *testing.T) {
	flows := 2 * 100 * 99 / 2 // two classes, all pairs of 100 nodes
	cs := flexile.NewCriticalSet(flows, 1000)
	mb := float64(cs.ByteSize()) / (1 << 20)
	if mb < 1.0 || mb > 1.4 {
		t.Fatalf("storage = %.3f MB, paper says ≈1.25 MB", mb)
	}
}

// TestSchemeRegistry checks the scheme constructors and names.
func TestSchemeRegistry(t *testing.T) {
	all := flexile.AllSchemes()
	want := []string{"Flexile", "SMORE", "SWAN-Throughput", "SWAN-Maxmin", "Teavar", "Cvar-Flow-St", "Cvar-Flow-Ad", "IP"}
	for _, name := range want {
		s, ok := all[name]
		if !ok {
			t.Fatalf("missing scheme %q", name)
		}
		if s.Name() != name && !strings.HasPrefix(name, s.Name()) {
			t.Fatalf("scheme %q reports name %q", name, s.Name())
		}
	}
}

// TestTopologyRoundTripAPI exercises Parse/Format through the facade.
func TestTopologyRoundTripAPI(t *testing.T) {
	tp, err := flexile.LoadTopology("B4")
	if err != nil {
		t.Fatal(err)
	}
	text := topo.Format(tp)
	back, err := flexile.ParseTopology("B4", text)
	if err != nil {
		t.Fatal(err)
	}
	if back.G.NumEdges() != tp.G.NumEdges() {
		t.Fatal("round trip changed the edge count")
	}
	rich, orig := flexile.RichlyConnected(tp)
	if rich.G.NumEdges() != 2*tp.G.NumEdges() || len(orig) != rich.G.NumEdges() {
		t.Fatal("richly-connected transform wrong shape")
	}
}

// TestFlowLossPercentileAPI checks the exported percentile helper.
func TestFlowLossPercentileAPI(t *testing.T) {
	got := flexile.FlowLossPercentile([]float64{0, 0.5}, []float64{0.9, 0.09}, 0.95)
	if math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("percentile = %v, want 0.5", got)
	}
	// Beyond coverage → 1.
	if got := flexile.FlowLossPercentile([]float64{0}, []float64{0.9}, 0.99); got != 1 {
		t.Fatalf("beyond coverage = %v", got)
	}
}

// TestMLUAPI checks the exported MLU helper.
func TestMLUAPI(t *testing.T) {
	tp, err := flexile.LoadTopology("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	inst := flexile.NewSingleClassInstance(tp, 3)
	if err := flexile.ApplyGravityTraffic(inst, 1, 0.55); err != nil {
		t.Fatal(err)
	}
	mlu, err := flexile.MLU(inst)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(mlu-0.55) > 1e-6 {
		t.Fatalf("MLU = %v, want 0.55", mlu)
	}
}

// TestSetDesignTargetKeepsEveryClassCoverable: on the CLI's two-class
// Tinet instance the low class's configured β = 0.99 exceeds the connected
// mass of its least connected flow; the design target must bring it below,
// or the offline coverage constraint is infeasible and Design refuses.
func TestSetDesignTargetKeepsEveryClassCoverable(t *testing.T) {
	tp, err := flexile.LoadTopology("Tinet")
	if err != nil {
		t.Fatal(err)
	}
	inst := flexile.NewTwoClassInstance(tp)
	if err := flexile.ApplyGravityTraffic(inst, 1, 0.6); err != nil {
		t.Fatal(err)
	}
	flexile.GenerateFailures(inst, 2, 1e-5, 50)
	flexile.SetDesignTarget(inst)
	mass := inst.FlowConnMass()
	for k, c := range inst.Classes {
		least := 1.0
		for i := range inst.Pairs {
			if inst.Demand[k][i] > 0 {
				least = math.Min(least, mass[inst.FlowID(k, i)])
			}
		}
		if c.Beta > least-lp.DefaultTol {
			t.Errorf("class %s: β = %v, but its least connected flow is connected only %v of the time", c.Name, c.Beta, least)
		}
	}
}
