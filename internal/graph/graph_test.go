package graph

import (
	"math/rand"
	"sort"
	"testing"
)

// triangle builds A-B, A-C, B-C with unit capacity.
func triangle() *Graph {
	g := New(3)
	g.AddEdge(0, 1, 1) // e0: A-B
	g.AddEdge(0, 2, 1) // e1: A-C
	g.AddEdge(1, 2, 1) // e2: B-C
	return g
}

func TestConnectivity(t *testing.T) {
	g := triangle()
	if !g.Connected(0, 2, nil) {
		t.Fatal("triangle should be connected")
	}
	// Fail A-C and B-C: A cannot reach C.
	alive := func(e int) bool { return e == 0 }
	if g.Connected(0, 2, alive) {
		t.Fatal("A should not reach C with only A-B alive")
	}
	if !g.Connected(0, 1, alive) {
		t.Fatal("A should reach B over the alive edge")
	}
}

func TestIsConnected(t *testing.T) {
	g := triangle()
	if !g.IsConnected(nil) {
		t.Fatal("triangle connected")
	}
	if g.IsConnected(func(e int) bool { return e == 2 }) {
		t.Fatal("only B-C alive disconnects A")
	}
}

func TestShortestPathHops(t *testing.T) {
	g := New(4)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 3, 1)
	g.AddEdge(0, 3, 1)
	p, ok := g.ShortestPath(0, 2, nil, nil, nil)
	if !ok || p.Len() != 2 {
		t.Fatalf("path=%v ok=%v", p, ok)
	}
	if p.Nodes[0] != 0 || p.Nodes[len(p.Nodes)-1] != 2 {
		t.Fatalf("endpoints wrong: %v", p.Nodes)
	}
}

func TestShortestPathWeights(t *testing.T) {
	g := New(3)
	e01 := g.AddEdge(0, 1, 1)
	e12 := g.AddEdge(1, 2, 1)
	e02 := g.AddEdge(0, 2, 1)
	w := map[int]float64{e01: 1, e12: 1, e02: 5}
	p, ok := g.ShortestPath(0, 2, func(e int) float64 { return w[e] }, nil, nil)
	if !ok || p.Len() != 2 {
		t.Fatalf("want the 2-hop cheap path, got %v", p)
	}
	_ = e02
}

func TestShortestPathUnreachable(t *testing.T) {
	g := New(3)
	g.AddEdge(0, 1, 1)
	if _, ok := g.ShortestPath(0, 2, nil, nil, nil); ok {
		t.Fatal("node 2 is isolated")
	}
}

func TestKShortestPathsTriangle(t *testing.T) {
	g := triangle()
	paths := g.KShortestPaths(0, 1, 3, nil)
	if len(paths) != 2 {
		t.Fatalf("triangle has exactly 2 loopless A→B paths, got %d", len(paths))
	}
	if paths[0].Len() != 1 || paths[1].Len() != 2 {
		t.Fatalf("paths out of order: %v", paths)
	}
}

func TestKShortestPathsGrid(t *testing.T) {
	// 2x3 grid: 0-1-2 / 3-4-5 with verticals.
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(0, 3, 1)
	g.AddEdge(1, 4, 1)
	g.AddEdge(2, 5, 1)
	paths := g.KShortestPaths(0, 5, 4, nil)
	if len(paths) < 3 {
		t.Fatalf("expected ≥3 paths, got %d", len(paths))
	}
	for i := 1; i < len(paths); i++ {
		ci := cost(paths[i])
		cp := cost(paths[i-1])
		if ci < cp {
			t.Fatalf("paths not sorted: %v then %v", cp, ci)
		}
	}
	// All paths must be loopless and valid.
	for _, p := range paths {
		seen := map[int]bool{}
		for _, n := range p.Nodes {
			if seen[n] {
				t.Fatalf("loop in path %v", p.Nodes)
			}
			seen[n] = true
		}
		validatePath(t, g, p, 0, 5)
	}
	// All paths distinct.
	for i := range paths {
		for j := i + 1; j < len(paths); j++ {
			if paths[i].Equal(paths[j]) {
				t.Fatalf("duplicate paths %d and %d", i, j)
			}
		}
	}
}

func cost(p Path) int { return p.Len() }

func validatePath(t *testing.T, g *Graph, p Path, src, dst int) {
	t.Helper()
	if p.Nodes[0] != src || p.Nodes[len(p.Nodes)-1] != dst {
		t.Fatalf("endpoints: %v", p.Nodes)
	}
	if len(p.Nodes) != len(p.Edges)+1 {
		t.Fatalf("length mismatch: %d nodes %d edges", len(p.Nodes), len(p.Edges))
	}
	for i, e := range p.Edges {
		ed := g.Edge(e)
		a, b := p.Nodes[i], p.Nodes[i+1]
		if !(ed.A == a && ed.B == b) && !(ed.A == b && ed.B == a) {
			t.Fatalf("edge %d does not connect %d-%d", e, a, b)
		}
	}
}

// Property: on random graphs, Yen's first path equals Dijkstra and every
// returned path is simple, valid, and sorted by cost.
func TestKShortestPathsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 20; trial++ {
		n := 5 + rng.Intn(8)
		g := New(n)
		for i := 1; i < n; i++ {
			g.AddEdge(i, rng.Intn(i), 1) // random spanning tree
		}
		extra := rng.Intn(2 * n)
		for i := 0; i < extra; i++ {
			a, b := rng.Intn(n), rng.Intn(n)
			if a != b {
				g.AddEdge(a, b, 1)
			}
		}
		u, v := 0, n-1
		paths := g.KShortestPaths(u, v, 5, nil)
		if len(paths) == 0 {
			t.Fatalf("trial %d: spanning tree guarantees a path", trial)
		}
		sp, _ := g.ShortestPath(u, v, nil, nil, nil)
		if paths[0].Len() != sp.Len() {
			t.Fatalf("trial %d: first Yen path length %d != Dijkstra %d", trial, paths[0].Len(), sp.Len())
		}
		for i, p := range paths {
			validatePath(t, g, p, u, v)
			seen := map[int]bool{}
			for _, nn := range p.Nodes {
				if seen[nn] {
					t.Fatalf("trial %d: path %d has a loop", trial, i)
				}
				seen[nn] = true
			}
			if i > 0 && p.Len() < paths[i-1].Len() {
				t.Fatalf("trial %d: unsorted", trial)
			}
		}
	}
}

func TestBridges(t *testing.T) {
	// Two triangles joined by a single edge (the bridge).
	g := New(6)
	g.AddEdge(0, 1, 1)
	g.AddEdge(1, 2, 1)
	g.AddEdge(2, 0, 1)
	br := g.AddEdge(2, 3, 1)
	g.AddEdge(3, 4, 1)
	g.AddEdge(4, 5, 1)
	g.AddEdge(5, 3, 1)
	bridges := g.Bridges()
	if len(bridges) != 1 || bridges[0] != br {
		t.Fatalf("bridges = %v, want [%d]", bridges, br)
	}
}

func TestBridgesParallelEdges(t *testing.T) {
	g := New(2)
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 1, 1)
	if got := g.Bridges(); len(got) != 0 {
		t.Fatalf("parallel edges are not bridges: %v", got)
	}
}

func TestBridgesTree(t *testing.T) {
	g := New(4)
	e1 := g.AddEdge(0, 1, 1)
	e2 := g.AddEdge(1, 2, 1)
	e3 := g.AddEdge(1, 3, 1)
	got := g.Bridges()
	want := []int{e1, e2, e3}
	sort.Ints(got)
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("bridges = %v, want %v", got, want)
	}
}

func TestPathHelpers(t *testing.T) {
	g := triangle()
	p, _ := g.ShortestPath(0, 2, nil, nil, nil)
	if !p.UsesEdge(p.Edges[0]) {
		t.Fatal("UsesEdge false negative")
	}
	if p.UsesEdge(99) {
		t.Fatal("UsesEdge false positive")
	}
	if !p.Alive(func(int) bool { return true }) {
		t.Fatal("Alive with all edges up")
	}
	if p.Alive(func(e int) bool { return e != p.Edges[0] }) {
		t.Fatal("Alive with a dead edge on the path")
	}
	c := p.Clone()
	c.Nodes[0] = 99
	if p.Nodes[0] == 99 {
		t.Fatal("Clone aliases memory")
	}
}

func BenchmarkKShortestPaths(b *testing.B) {
	tp := testGraphIBM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := tp.KShortestPaths(0, tp.NumNodes()-1, 6, nil); len(got) == 0 {
			b.Fatal("no paths")
		}
	}
}

func BenchmarkMaxFlow(b *testing.B) {
	tp := testGraphIBM()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tp.MaxFlow(0, tp.NumNodes()-1, nil)
	}
}
