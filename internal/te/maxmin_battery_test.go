package te_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"testing"

	"flexile/internal/experiments"
	"flexile/internal/failure"
	"flexile/internal/obs"
	flexscheme "flexile/internal/scheme/flexile"
	"flexile/internal/te"
)

// batteryCase is one max-min problem family over an instance: the options
// MaxMin is called with in scenario q.
type batteryCase struct {
	name string
	inst *te.Instance
	opts func(q int) te.MaxMinOptions
}

// batteryCases builds B4 / IBM / Sprint × 1 and 2 classes × {Online floors,
// no floors, RateDomain+FixRoutes} at the tiny experiment scale. The Online
// floors are the ones flexscheme.Online hands MaxMin after a real offline
// design.
func batteryCases(t testing.TB) []batteryCase {
	t.Helper()
	cfg := experiments.Config{Scale: experiments.Tiny, Seed: 1}
	var cases []batteryCase
	for _, topo := range []string{"B4", "IBM", "Sprint"} {
		for _, classes := range []int{1, 2} {
			build := cfg.SingleClass
			if classes == 2 {
				build = cfg.TwoClass
			}
			inst, err := build(topo)
			if err != nil {
				t.Fatal(err)
			}
			off, err := flexscheme.Offline(inst, flexscheme.Options{})
			if err != nil {
				t.Fatal(err)
			}
			name := fmt.Sprintf("%s/%dclass", topo, classes)
			cases = append(cases,
				batteryCase{name + "/online", inst, func(q int) te.MaxMinOptions {
					mo, err := flexscheme.OnlineOptions(inst, off, q, flexscheme.Options{})
					if err != nil {
						t.Fatal(err)
					}
					return mo
				}},
				batteryCase{name + "/nofloors", inst, func(q int) te.MaxMinOptions {
					return te.MaxMinOptions{Demands: inst.ScenDemandVector(q)}
				}},
				batteryCase{name + "/rate-fixroutes", inst, func(q int) te.MaxMinOptions {
					return te.MaxMinOptions{Domain: te.RateDomain, FixRoutes: true, Demands: inst.ScenDemandVector(q)}
				}},
			)
		}
	}
	return cases
}

// lpWork runs fn with LP accounting pointed at a private collector and
// returns the solves and pivots it did. MaxMin takes no context, so its LP
// work lands on the process-global collector; tests that use this must not
// run in parallel.
func lpWork(fn func()) (solves, pivots int64) {
	col := obs.New()
	obs.SetGlobal(col)
	defer obs.SetGlobal(nil)
	fn()
	m := col.Snapshot().LP
	return m.Solves, m.Pivots
}

// classStats is the per-class summary the equivalence contract is stated
// over.
type classStats struct {
	minFrac float64 // smallest fraction among connected flows with demand
	minDem  float64 // demand of the flow at that minimum
	volume  float64 // carried volume
}

func statsOf(inst *te.Instance, scen failure.Scenario, opt te.MaxMinOptions, res *te.MaxMinResult) []classStats {
	out := make([]classStats, len(inst.Classes))
	for k := range inst.Classes {
		out[k].minFrac = math.Inf(1)
		for i := range inst.Pairs {
			f := inst.FlowID(k, i)
			d := inst.FlowDemand(f)
			if opt.Demands != nil {
				d = opt.Demands[f]
			}
			if d <= 0 || !inst.FlowConnected(k, i, scen) {
				continue
			}
			if res.Frac[f] < out[k].minFrac {
				out[k].minFrac, out[k].minDem = res.Frac[f], d
			}
			out[k].volume += res.Frac[f] * d
		}
	}
	return out
}

func relClose(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*(1+math.Max(math.Abs(a), math.Abs(b)))
}

// checkAllocation asserts what every MaxMin answer must satisfy on its own:
// per-edge use within capacity (less the caller's FixedUse), nothing on dead
// tunnels, and Frac consistent with X.
func checkAllocation(t *testing.T, inst *te.Instance, scen failure.Scenario, opt te.MaxMinOptions, res *te.MaxMinResult) {
	t.Helper()
	g := inst.Topo.G
	use := make([]float64, g.NumEdges())
	for k := range inst.Classes {
		for i := range inst.Pairs {
			got := 0.0
			for ti, x := range res.X[k][i] {
				if !inst.TunnelAlive(k, i, ti, scen) {
					if x != 0 {
						t.Errorf("class %d pair %d: %v on dead tunnel %d", k, i, x, ti)
					}
					continue
				}
				if x < -1e-9 {
					t.Errorf("class %d pair %d tunnel %d: negative allocation %v", k, i, ti, x)
				}
				got += x
				for _, e := range inst.Tunnels[k][i][ti].Edges {
					use[e] += x
				}
			}
			f := inst.FlowID(k, i)
			d := inst.FlowDemand(f)
			if opt.Demands != nil {
				d = opt.Demands[f]
			}
			// In joint mode a later class round may re-route an earlier
			// class within its floor slack, so X can trail Frac by a hair.
			if d > 0 && got < res.Frac[f]*d-1e-6*(1+d) {
				t.Errorf("class %d pair %d: X carries %v, Frac claims %v", k, i, got, res.Frac[f]*d)
			}
		}
	}
	for e := range use {
		cap := g.Edge(e).Capacity
		if scen.IsFailed(e) {
			cap = 0
		}
		if opt.FixedUse != nil {
			cap -= opt.FixedUse[e]
		}
		if use[e] > cap+1e-6 {
			t.Errorf("edge %d carries %v over capacity %v", e, use[e], cap)
		}
	}
}

// TestMaxMinMatchesColdOracle is the differential battery: over every case
// and scenario, the one-LP in-place MaxMin must return a valid allocation
// that is equivalent to the per-level-rebuild oracle's. Not bit-equal — LP2's
// optimal face has many vertices and a warm start lands on another — but
// equal in what max-min fairness defines:
//
//   - every MinFrac the oracle honours is honoured;
//   - each class's carried volume agrees within 1e-6 relative;
//   - each class's minimum fraction is no lower than the oracle's, and no
//     higher than the window the oracle lets a frozen flow sink through
//     (1e-6·(1+v) of volume, which MaxMin stops at the flow's promise and
//     the oracle does not);
//   - with one class, every flow's Frac agrees within 1e-6.
//
// Under FixRoutes only class 0 is compared: a later class fills the
// capacity the earlier classes' routing left, and that routing is exactly
// the vertex choice that is not pinned.
func TestMaxMinMatchesColdOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("solves every battery scenario twice")
	}
	const tol = 1e-6
	for _, c := range batteryCases(t) {
		c := c
		t.Run(c.name, func(t *testing.T) {
			var hotPivots, coldPivots int64
			for q, scen := range c.inst.Scenarios {
				opt := c.opts(q)
				var got, want *te.MaxMinResult
				var err error
				_, p := lpWork(func() { got, err = te.MaxMin(c.inst, scen, opt) })
				if err != nil {
					t.Fatalf("scenario %d: %v", q, err)
				}
				hotPivots += p
				_, p = lpWork(func() { want, err = maxMinCold(c.inst, scen, opt) })
				if err != nil {
					t.Fatalf("scenario %d: oracle: %v", q, err)
				}
				coldPivots += p
				checkAllocation(t, c.inst, scen, opt, got)
				for f, mf := range opt.MinFrac {
					if mf > 0 && want.Frac[f] >= mf-tol && got.Frac[f] < mf-tol {
						t.Errorf("scenario %d flow %d: promised %v, oracle gives %v, got %v", q, f, mf, want.Frac[f], got.Frac[f])
					}
				}
				gs, ws := statsOf(c.inst, scen, opt, got), statsOf(c.inst, scen, opt, want)
				for k := range gs {
					if opt.FixRoutes && k > 0 {
						break
					}
					if !relClose(gs[k].volume, ws[k].volume, tol) {
						t.Errorf("scenario %d class %d: carried volume %v, oracle %v", q, k, gs[k].volume, ws[k].volume)
					}
					if math.IsInf(ws[k].minFrac, 1) {
						continue
					}
					window := tol * (1 + ws[k].minDem) / ws[k].minDem
					if gs[k].minFrac < ws[k].minFrac-tol || gs[k].minFrac > ws[k].minFrac+tol+window {
						t.Errorf("scenario %d class %d: minimum fraction %v, oracle %v (window %v)", q, k, gs[k].minFrac, ws[k].minFrac, window)
					}
				}
				if len(c.inst.Classes) == 1 {
					for f := range got.Frac {
						if math.Abs(got.Frac[f]-want.Frac[f]) > tol {
							t.Errorf("scenario %d flow %d: Frac %v, oracle %v", q, f, got.Frac[f], want.Frac[f])
						}
					}
				}
			}
			// Warm starts must pay for themselves everywhere, not only on
			// the h-miss-latency fixture.
			if hotPivots*5 > coldPivots {
				t.Errorf("%d pivots in place against %d cold: less than 5x fewer", hotPivots, coldPivots)
			}
			t.Logf("pivots: %d in place, %d cold (%.1fx)", hotPivots, coldPivots, float64(coldPivots)/float64(hotPivots))
		})
	}
}

// resultBytes is the exact bit pattern of a result, for purity checks.
func resultBytes(res *te.MaxMinResult) []byte {
	var b bytes.Buffer
	put := func(v float64) { binary.Write(&b, binary.LittleEndian, math.Float64bits(v)) }
	for _, v := range res.Frac {
		put(v)
	}
	for k := range res.X {
		for i := range res.X[k] {
			for _, v := range res.X[k][i] {
				put(v)
			}
		}
	}
	return b.Bytes()
}

// TestMaxMinIsPure pins what lets the serving layer treat hit = miss =
// library as one answer: MaxMin keeps nothing between calls, so the same
// (instance, scenario, options) returns byte-identical Frac and X when
// called twice, after other scenarios, and from 8 goroutines at once.
func TestMaxMinIsPure(t *testing.T) {
	cfg := experiments.Config{Scale: experiments.Tiny, Seed: 1}
	inst, err := cfg.TwoClass("B4")
	if err != nil {
		t.Fatal(err)
	}
	off, err := flexscheme.Offline(inst, flexscheme.Options{})
	if err != nil {
		t.Fatal(err)
	}
	solve := func(q int) []byte {
		mo, err := flexscheme.OnlineOptions(inst, off, q, flexscheme.Options{})
		if err != nil {
			t.Error(err)
			return nil
		}
		res, err := te.MaxMin(inst, inst.Scenarios[q], mo)
		if err != nil {
			t.Error(err)
			return nil
		}
		return resultBytes(res)
	}
	want := make([][]byte, len(inst.Scenarios))
	for q := range want {
		want[q] = solve(q)
	}
	// Again, in reverse: every call now follows different scenarios.
	for q := len(want) - 1; q >= 0; q-- {
		if !bytes.Equal(solve(q), want[q]) {
			t.Errorf("scenario %d: second call differs from the first", q)
		}
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for n := range want {
				q := (n + g) % len(want)
				if !bytes.Equal(solve(q), want[q]) {
					t.Errorf("goroutine %d scenario %d: concurrent call differs", g, q)
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestCriticalPromisesSurviveHairInfeasibleFloors is the regression test for
// the λ-decay bug: on this instance one scenario's class-1 floors are
// infeasible by 7e-10 against what class 0's round left of the
// reservations. Handed to LP1 as they stand they made it infeasible, the
// relaxation scaled every floor — critical promises included — and, with
// the freeze step skipped, kept scaling them level after level (λ 0.9985 →
// 0.8396; 43 promises missed by more than 1e-6). Floors are now read off
// what the previous solve delivered, so no promise may be missed.
func TestCriticalPromisesSurviveHairInfeasibleFloors(t *testing.T) {
	inst, err := experiments.Config{Scale: experiments.Tiny, Seed: 1}.TwoClass("Sprint")
	if err != nil {
		t.Fatal(err)
	}
	off, err := flexscheme.Offline(inst, flexscheme.Options{})
	if err != nil {
		t.Fatal(err)
	}
	promises := 0
	for q, scen := range inst.Scenarios {
		opt, err := flexscheme.OnlineOptions(inst, off, q, flexscheme.Options{})
		if err != nil {
			t.Fatal(err)
		}
		res, err := te.MaxMin(inst, scen, opt)
		if err != nil {
			t.Fatalf("scenario %d: %v", q, err)
		}
		for k := range inst.Classes {
			for i := range inst.Pairs {
				f := inst.FlowID(k, i)
				if opt.MinFrac[f] <= 0 || inst.DemandIn(k, i, q) <= 0 || !inst.FlowConnected(k, i, scen) {
					continue
				}
				promises++
				if res.Frac[f] < opt.MinFrac[f]-1e-6 {
					t.Errorf("scenario %d flow %d: promised %v, got %v", q, f, opt.MinFrac[f], res.Frac[f])
				}
			}
		}
	}
	if promises == 0 {
		t.Fatal("the instance promises nothing: the test checks nothing")
	}
}
