package topo

import (
	"strings"
	"testing"
)

// TestTable2Inventory checks every generated topology matches the paper's
// Table 2 exactly and is 2-edge-connected (no bridges), so no single link
// failure disconnects it — the property the paper enforces by pruning.
func TestTable2Inventory(t *testing.T) {
	for _, info := range Table2 {
		tp, err := Load(info.Name)
		if err != nil {
			t.Fatal(err)
		}
		if got := tp.G.NumNodes(); got != info.Nodes {
			t.Errorf("%s: nodes = %d, want %d", info.Name, got, info.Nodes)
		}
		if got := tp.G.NumEdges(); got != info.Edges {
			t.Errorf("%s: edges = %d, want %d", info.Name, got, info.Edges)
		}
		for v := 1; v < tp.G.NumNodes(); v++ {
			if _, ok := tp.G.ShortestPath(0, v, nil); !ok {
				t.Errorf("%s: not connected: node %d unreachable from 0", info.Name, v)
				break
			}
		}
		if br := tp.G.Bridges(); len(br) != 0 {
			t.Errorf("%s: has bridges %v", info.Name, br)
		}
	}
}

func TestLoadDeterministic(t *testing.T) {
	a := MustLoad("IBM")
	b := MustLoad("IBM")
	if a.G.NumEdges() != b.G.NumEdges() {
		t.Fatal("nondeterministic edge count")
	}
	for e := 0; e < a.G.NumEdges(); e++ {
		if a.G.Edge(e) != b.G.Edge(e) {
			t.Fatalf("edge %d differs between loads", e)
		}
	}
}

func TestLoadCaseInsensitive(t *testing.T) {
	if _, err := Load("ibm"); err != nil {
		t.Fatal(err)
	}
	if _, err := Load("sprint"); err != nil {
		t.Fatal(err)
	}
}

func TestLoadUnknown(t *testing.T) {
	if _, err := Load("nonexistent"); err == nil {
		t.Fatal("want error for unknown topology")
	}
}

func TestTriangle(t *testing.T) {
	tr := Triangle()
	if tr.G.NumNodes() != 3 || tr.G.NumEdges() != 3 {
		t.Fatalf("triangle shape wrong")
	}
	// Edge 0 is A-B, edge 1 is A-C.
	if e := tr.G.Edge(0); e.A != 0 || e.B != 1 || e.Capacity != 1 {
		t.Fatalf("edge 0 = %+v", e)
	}
	nb := TriangleNoBC()
	if nb.G.NumEdges() != 2 {
		t.Fatalf("no-BC variant has %d edges", nb.G.NumEdges())
	}
}

func TestRichlyConnected(t *testing.T) {
	tr := Triangle()
	rich, orig := RichlyConnected(tr)
	if rich.G.NumEdges() != 6 {
		t.Fatalf("want 6 sublinks, got %d", rich.G.NumEdges())
	}
	if len(orig) != 6 {
		t.Fatalf("orig mapping length %d", len(orig))
	}
	for e := 0; e < 6; e++ {
		if orig[e] != e/2 {
			t.Fatalf("orig[%d] = %d, want %d", e, orig[e], e/2)
		}
		if got := rich.G.Edge(e).Capacity; got != 0.5 {
			t.Fatalf("sublink capacity %v, want 0.5", got)
		}
		// Sublink endpoints match the source edge.
		se := tr.G.Edge(orig[e])
		re := rich.G.Edge(e)
		if se.A != re.A || se.B != re.B {
			t.Fatalf("sublink %d endpoints %v != source %v", e, re, se)
		}
	}
}

func TestParseFormatRoundTrip(t *testing.T) {
	tp := MustLoad("Sprint")
	text := Format(tp)
	back, err := Parse("Sprint", text)
	if err != nil {
		t.Fatal(err)
	}
	if back.G.NumNodes() != tp.G.NumNodes() || back.G.NumEdges() != tp.G.NumEdges() {
		t.Fatalf("round trip changed shape: %d/%d vs %d/%d",
			back.G.NumNodes(), back.G.NumEdges(), tp.G.NumNodes(), tp.G.NumEdges())
	}
	for e := 0; e < tp.G.NumEdges(); e++ {
		a, b := tp.G.Edge(e), back.G.Edge(e)
		if tp.G.NodeName(a.A) != back.G.NodeName(b.A) || tp.G.NodeName(a.B) != back.G.NodeName(b.B) || a.Capacity != b.Capacity {
			t.Fatalf("edge %d differs after round trip", e)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"edge a b",         // missing capacity
		"edge a b xyz",     // bad capacity
		"node",             // missing name
		"frobnicate a b c", // unknown directive
	}
	for _, c := range cases {
		if _, err := Parse("t", c); err == nil {
			t.Errorf("Parse(%q) should fail", c)
		}
	}
}

func TestParseComments(t *testing.T) {
	tp, err := Parse("t", "# header\n\nnode A\nnode B\nedge A B 10\n")
	if err != nil {
		t.Fatal(err)
	}
	if tp.G.NumNodes() != 2 || tp.G.NumEdges() != 1 {
		t.Fatalf("parsed shape wrong: %d/%d", tp.G.NumNodes(), tp.G.NumEdges())
	}
	if tp.G.Edge(0).Capacity != 10 {
		t.Fatalf("capacity = %v", tp.G.Edge(0).Capacity)
	}
}

func TestParseCreatesNodesOnDemand(t *testing.T) {
	tp, err := Parse("t", "edge X Y 5\nedge Y Z 5\n")
	if err != nil {
		t.Fatal(err)
	}
	if tp.G.NumNodes() != 3 {
		t.Fatalf("want 3 nodes, got %d", tp.G.NumNodes())
	}
}

func TestNamesAndLookup(t *testing.T) {
	names := Names()
	if len(names) != 20 {
		t.Fatalf("Table 2 has 20 topologies, got %d", len(names))
	}
	if !strings.Contains(strings.Join(names, ","), "Deltacom") {
		t.Fatal("Deltacom missing")
	}
	info, ok := Lookup("Deltacom")
	if !ok || info.Nodes != 103 || info.Edges != 151 {
		t.Fatalf("Deltacom lookup: %+v %v", info, ok)
	}
}

func TestGeneratePanicsOnTooFewEdges(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("want panic for m < n")
		}
	}()
	Generate(10, 5, 1)
}

func TestComputeStats(t *testing.T) {
	st := ComputeStats(Triangle())
	if st.Nodes != 3 || st.Edges != 3 {
		t.Fatalf("shape: %+v", st)
	}
	if st.MinDegree != 2 || st.MaxDegree != 2 || st.AvgDegree != 2 {
		t.Fatalf("degrees: %+v", st)
	}
	if st.Diameter != 1 {
		t.Fatalf("diameter %d, want 1", st.Diameter)
	}
	if st.Bridges != 0 {
		t.Fatalf("bridges %d", st.Bridges)
	}
	if st.TotalCapacity != 3 {
		t.Fatalf("capacity %v", st.TotalCapacity)
	}
	// A Table-2 topology: sane aggregates.
	ibm := ComputeStats(MustLoad("IBM"))
	if ibm.MinDegree < 2 || ibm.Diameter < 2 || ibm.Bridges != 0 {
		t.Fatalf("IBM stats: %+v", ibm)
	}
}
