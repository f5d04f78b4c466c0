package obs

import (
	"context"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestNilCollectorIsNoOp(t *testing.T) {
	var c *Collector
	c.AddLP(LPMetrics{Solves: 1})
	c.AddMIP(MIPMetrics{Solves: 1})
	c.AddDecomp(DecompMetrics{Solves: 1})
	c.PoolLaunch(4)
	c.PoolItem(0, 10)
	c.AttachTracer(NewTracer())
	c.Span("noop", 0)()
	if got := c.Snapshot(); !reflect.DeepEqual(got, SolveMetrics{}) {
		t.Fatalf("nil collector snapshot = %+v, want zero", got)
	}
}

func TestParentChainRollup(t *testing.T) {
	root := New()
	mid := NewChild(root)
	leaf := NewChild(mid)

	leaf.AddLP(LPMetrics{Solves: 2, Pivots: 10})
	mid.AddLP(LPMetrics{Solves: 1, Pivots: 5})
	leaf.AddMIP(MIPMetrics{Solves: 1, Nodes: 7})
	leaf.AddDecomp(DecompMetrics{CutsGenerated: 3})
	leaf.PoolLaunch(4)
	leaf.PoolItem(2, 100)
	leaf.PoolItem(2, 50)
	leaf.PoolItem(0, 25)

	lm := leaf.Snapshot()
	if lm.LP.Solves != 2 || lm.LP.Pivots != 10 {
		t.Fatalf("leaf LP = %+v", lm.LP)
	}
	mm := mid.Snapshot()
	if mm.LP.Solves != 3 || mm.LP.Pivots != 15 {
		t.Fatalf("mid LP = %+v (want leaf+own)", mm.LP)
	}
	rm := root.Snapshot()
	if rm.LP.Solves != 3 || rm.LP.Pivots != 15 {
		t.Fatalf("root LP = %+v (want everything)", rm.LP)
	}
	if rm.MIP.Solves != 1 || rm.MIP.Nodes != 7 {
		t.Fatalf("root MIP = %+v", rm.MIP)
	}
	if rm.Decomp.CutsGenerated != 3 {
		t.Fatalf("root Decomp = %+v", rm.Decomp)
	}
	if rm.Pool.Launches != 1 || rm.Pool.Items != 3 || rm.Pool.MaxWorkers != 4 || rm.Pool.BusyNanos != 175 {
		t.Fatalf("root Pool = %+v", rm.Pool)
	}
	if want := []int64{1, 0, 2}; !reflect.DeepEqual(rm.Pool.WorkerItems, want) {
		t.Fatalf("root WorkerItems = %v, want %v", rm.Pool.WorkerItems, want)
	}
}

func TestPoolLaunchKeepsMaxWidth(t *testing.T) {
	c := New()
	c.PoolLaunch(2)
	c.PoolLaunch(8)
	c.PoolLaunch(4)
	s := c.Snapshot()
	if s.Pool.Launches != 3 || s.Pool.MaxWorkers != 8 {
		t.Fatalf("Pool = %+v, want 3 launches, max width 8", s.Pool)
	}
}

func TestCanonicalStripsSchedulingFields(t *testing.T) {
	c := New()
	c.AddLP(LPMetrics{Solves: 1, Pivots: 9, SolveNanos: 12345})
	c.AddMIP(MIPMetrics{Solves: 1, Nodes: 4, SolveNanos: 777})
	c.PoolLaunch(8)
	c.PoolItem(3, 999)
	got := c.Snapshot().Canonical()
	want := SolveMetrics{}
	want.LP = LPMetrics{Solves: 1, Pivots: 9}
	want.MIP = MIPMetrics{Solves: 1, Nodes: 4}
	want.Pool = PoolMetrics{Launches: 1, Items: 1}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Canonical() = %+v, want %+v", got, want)
	}
}

func TestContextCarriageAndGlobalFallback(t *testing.T) {
	if From(context.Background()) != nil {
		t.Fatal("empty context should carry no collector")
	}
	if From(nil) != nil { //nolint:staticcheck // nil ctx is part of the contract
		t.Fatal("nil context should carry no collector")
	}
	c := New()
	ctx := With(context.Background(), c)
	if From(ctx) != c {
		t.Fatal("With/From round trip lost the collector")
	}

	g := New()
	SetGlobal(g)
	defer SetGlobal(nil)
	if Global() != g {
		t.Fatal("Global() did not return the installed collector")
	}
	if From(context.Background()) != g {
		t.Fatal("From should fall back to the global collector")
	}
	if From(ctx) != c {
		t.Fatal("context collector must shadow the global one")
	}
}

func TestConcurrentAddsAreExact(t *testing.T) {
	root := New()
	child := NewChild(root)
	const goroutines = 8
	const perG = 500
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(worker int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				child.AddLP(LPMetrics{Solves: 1, Pivots: 3})
				child.AddMIP(MIPMetrics{Nodes: 2})
				child.AddDecomp(DecompMetrics{CutsGenerated: 1})
				child.PoolItem(worker, 1)
			}
		}(g)
	}
	wg.Wait()
	for name, s := range map[string]SolveMetrics{"child": child.Snapshot(), "root": root.Snapshot()} {
		if s.LP.Solves != goroutines*perG || s.LP.Pivots != 3*goroutines*perG {
			t.Fatalf("%s LP = %+v", name, s.LP)
		}
		if s.MIP.Nodes != 2*goroutines*perG {
			t.Fatalf("%s MIP = %+v", name, s.MIP)
		}
		if s.Decomp.CutsGenerated != goroutines*perG {
			t.Fatalf("%s Decomp = %+v", name, s.Decomp)
		}
		if s.Pool.Items != goroutines*perG || s.Pool.BusyNanos != goroutines*perG {
			t.Fatalf("%s Pool = %+v", name, s.Pool)
		}
		for w, n := range s.Pool.WorkerItems {
			if n != perG {
				t.Fatalf("%s WorkerItems[%d] = %d, want %d", name, w, n, perG)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	c := New()
	c.AddLP(LPMetrics{Solves: 5, Pivots: 42, Phase1Pivots: 30, Phase2Pivots: 12})
	c.AddDecomp(DecompMetrics{CutsGenerated: 7})
	b := c.Snapshot().JSON()
	var back SolveMetrics
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatalf("JSON() produced invalid JSON: %v\n%s", err, b)
	}
	if !reflect.DeepEqual(back, c.Snapshot()) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", back, c.Snapshot())
	}
	for _, key := range []string{`"lp"`, `"mip"`, `"decomposition"`, `"pool"`, `"phase1_pivots"`, `"cuts_generated"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("JSON output missing %s:\n%s", key, b)
		}
	}
}

func TestSpanWithoutTracerIsSharedNoOp(t *testing.T) {
	c := New()
	end := c.Span("unobserved", 1, "k", "v")
	end()
	// No tracer anywhere up the chain: nothing to flush, nothing recorded.
	if tr := c.TraceSink(); tr != nil {
		t.Fatalf("unexpected tracer %v", tr)
	}
}

func TestTracerRecordsSpansThroughParentChain(t *testing.T) {
	root := New()
	tr := NewTracer()
	root.AttachTracer(tr)
	child := NewChild(root)

	end := child.Span("scenario-solve", 3, "scenario", 7, "iter", 1)
	end()
	child.Span("master-solve", 0)()

	evs := tr.Events()
	if len(evs) != 2 {
		t.Fatalf("got %d events, want 2", len(evs))
	}
	ev := evs[0]
	if ev.Name != "scenario-solve" || ev.Ph != "X" || ev.TID != 3 {
		t.Fatalf("event = %+v", ev)
	}
	if ev.Args["scenario"] != 7 || ev.Args["iter"] != 1 {
		t.Fatalf("args = %v", ev.Args)
	}
	if ev.Dur < 0 || ev.TS < 0 {
		t.Fatalf("negative timestamps: %+v", ev)
	}
	if evs[1].Args != nil {
		t.Fatalf("no-kv span should have nil args, got %v", evs[1].Args)
	}

	var sb strings.Builder
	if err := tr.WriteJSON(&sb); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	var file struct {
		TraceEvents []TraceEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(sb.String()), &file); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if len(file.TraceEvents) != 2 {
		t.Fatalf("serialized %d events, want 2", len(file.TraceEvents))
	}
}

func TestNilTracerEvents(t *testing.T) {
	var tr *Tracer
	if evs := tr.Events(); evs != nil {
		t.Fatalf("nil tracer Events() = %v, want nil", evs)
	}
}
