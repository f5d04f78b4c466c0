// Package topo provides the evaluation topologies.
//
// The paper evaluates on 20 wide-area topologies from the Internet Topology
// Zoo and YATES (its Table 2). Those datasets are not redistributable here,
// so this package ships a deterministic synthetic generator that produces,
// for each Table-2 name, a 2-edge-connected geometric random graph with
// exactly the node and edge counts the paper reports (see DESIGN.md §1 for
// why this preserves the evaluation's shape). A small text format
// (Parse/Format) lets users load real Topology Zoo exports instead.
package topo

import (
	"bufio"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"

	"flexile/internal/graph"
)

// DefaultCapacity is the uniform link capacity used by the generator.
// Traffic matrices are scaled relative to capacity (target MLU), so the
// absolute value is arbitrary.
const DefaultCapacity = 100.0

// Topology is a named network graph.
type Topology struct {
	Name string
	G    *graph.Graph
}

// Info describes one entry of the paper's Table 2.
type Info struct {
	Name  string
	Nodes int
	Edges int
}

// Table2 is the paper's topology inventory (name, nodes, edges).
var Table2 = []Info{
	{"B4", 12, 19},
	{"IBM", 17, 23},
	{"ATT", 25, 56},
	{"Quest", 19, 30},
	{"Tinet", 48, 84},
	{"Sprint", 10, 17},
	{"GEANT", 32, 50},
	{"Xeex", 22, 32},
	{"CWIX", 21, 26},
	{"Digex", 31, 35},
	{"JanetBackbone", 29, 45},
	{"Highwinds", 16, 29},
	{"BTNorthAmerica", 36, 76},
	{"CRLNetwork", 32, 37},
	{"Darkstrand", 28, 31},
	{"Integra", 23, 32},
	{"Xspedius", 33, 47},
	{"InternetMCI", 18, 32},
	{"Deltacom", 103, 151},
	{"IIJ", 27, 55},
}

// Names returns the Table-2 topology names in declaration order.
func Names() []string {
	out := make([]string, len(Table2))
	for i, t := range Table2 {
		out[i] = t.Name
	}
	return out
}

// Lookup returns the Table-2 entry for name (case-insensitive).
func Lookup(name string) (Info, bool) {
	for _, t := range Table2 {
		if strings.EqualFold(t.Name, name) {
			return t, true
		}
	}
	return Info{}, false
}

// Load builds the named Table-2 topology deterministically.
func Load(name string) (*Topology, error) {
	info, ok := Lookup(name)
	if !ok {
		return nil, fmt.Errorf("topo: unknown topology %q (known: %s)", name, strings.Join(Names(), ", "))
	}
	seed := nameSeed(info.Name)
	g := Generate(info.Nodes, info.Edges, seed)
	return &Topology{Name: info.Name, G: g}, nil
}

// MustLoad is Load that panics on error, for tests and examples.
func MustLoad(name string) *Topology {
	t, err := Load(name)
	if err != nil {
		panic(err)
	}
	return t
}

// nameSeed derives a stable seed from a topology name (FNV-1a).
func nameSeed(name string) int64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return int64(h & 0x7fffffffffffffff)
}

// Generate builds a deterministic 2-edge-connected geometric graph with
// exactly n nodes and m edges (m ≥ n required). Nodes are placed uniformly
// in the unit square; a nearest-neighbor tour forms a Hamiltonian cycle
// (guaranteeing 2-edge-connectivity, as in the paper after degree-one
// pruning) and the remaining m−n edges link the geometrically closest
// non-adjacent pairs, yielding the short-haul link structure of real WANs.
func Generate(n, m int, seed int64) *graph.Graph {
	if m < n {
		panic(fmt.Sprintf("topo: need m ≥ n for 2-edge-connectivity, got n=%d m=%d", n, m))
	}
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	ys := make([]float64, n)
	for i := 0; i < n; i++ {
		xs[i] = rng.Float64()
		ys[i] = rng.Float64()
	}
	dist := func(a, b int) float64 {
		dx, dy := xs[a]-xs[b], ys[a]-ys[b]
		return math.Sqrt(dx*dx + dy*dy)
	}
	g := graph.New(n)
	for i := 0; i < n; i++ {
		g.SetNodeName(i, fmt.Sprintf("n%d", i))
	}
	// Nearest-neighbor tour.
	visited := make([]bool, n)
	order := make([]int, 0, n)
	cur := 0
	visited[0] = true
	order = append(order, 0)
	for len(order) < n {
		best, bd := -1, math.Inf(1)
		for v := 0; v < n; v++ {
			if !visited[v] && dist(cur, v) < bd {
				best, bd = v, dist(cur, v)
			}
		}
		visited[best] = true
		order = append(order, best)
		cur = best
	}
	used := map[[2]int]bool{}
	addEdge := func(a, b int) bool {
		if a == b {
			return false
		}
		k := [2]int{min(a, b), max(a, b)}
		if used[k] {
			return false
		}
		used[k] = true
		g.AddEdge(a, b, DefaultCapacity)
		return true
	}
	for i := 0; i < n; i++ {
		addEdge(order[i], order[(i+1)%n])
	}
	// Fill with the closest remaining pairs.
	type pair struct {
		a, b int
		d    float64
	}
	var pairs []pair
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !used[[2]int{a, b}] {
				pairs = append(pairs, pair{a, b, dist(a, b)})
			}
		}
	}
	sort.Slice(pairs, func(i, j int) bool {
		if pairs[i].d != pairs[j].d {
			return pairs[i].d < pairs[j].d
		}
		if pairs[i].a != pairs[j].a {
			return pairs[i].a < pairs[j].a
		}
		return pairs[i].b < pairs[j].b
	})
	for _, p := range pairs {
		if g.NumEdges() >= m {
			break
		}
		addEdge(p.a, p.b)
	}
	if g.NumEdges() != m {
		panic(fmt.Sprintf("topo: could not reach %d edges on %d nodes", m, n))
	}
	return g
}

// Triangle returns the paper's Fig. 1 motivating topology: nodes A, B, C
// with unit-capacity links A−B, A−C and B−C. The returned edge ids are in
// that order.
func Triangle() *Topology {
	g := graph.New(3)
	g.SetNodeName(0, "A")
	g.SetNodeName(1, "B")
	g.SetNodeName(2, "C")
	g.AddEdge(0, 1, 1) // A-B
	g.AddEdge(0, 2, 1) // A-C
	g.AddEdge(1, 2, 1) // B-C
	return &Topology{Name: "Triangle", G: g}
}

// TriangleNoBC is the appendix Fig. 16 variant without the B−C link
// (where ScenBest does meet the flow objectives).
func TriangleNoBC() *Topology {
	g := graph.New(3)
	g.SetNodeName(0, "A")
	g.SetNodeName(1, "B")
	g.SetNodeName(2, "C")
	g.AddEdge(0, 1, 1)
	g.AddEdge(0, 2, 1)
	return &Topology{Name: "TriangleNoBC", G: g}
}

// RichlyConnected returns the §6.2 transform: every link becomes two
// parallel sublinks of half capacity that fail independently. origEdge maps
// each new edge id to the source edge id in t.G.
func RichlyConnected(t *Topology) (*Topology, []int) {
	src := t.G
	g := graph.New(src.NumNodes())
	for v := 0; v < src.NumNodes(); v++ {
		g.SetNodeName(v, src.NodeName(v))
	}
	origEdge := make([]int, 0, 2*src.NumEdges())
	for e := 0; e < src.NumEdges(); e++ {
		ed := src.Edge(e)
		g.AddEdge(ed.A, ed.B, ed.Capacity/2)
		g.AddEdge(ed.A, ed.B, ed.Capacity/2)
		origEdge = append(origEdge, e, e)
	}
	return &Topology{Name: t.Name + "-rich", G: g}, origEdge
}

// Parse reads the simple text topology format:
//
//	# comment
//	node <name>
//	edge <nameA> <nameB> <capacity>
//
// Node lines are optional; edge lines create missing nodes on demand.
func Parse(name, text string) (*Topology, error) {
	idx := map[string]int{}
	type rawEdge struct {
		a, b string
		c    float64
	}
	var nodes []string
	var edges []rawEdge
	sc := bufio.NewScanner(strings.NewReader(text))
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		switch fields[0] {
		case "node":
			if len(fields) != 2 {
				return nil, fmt.Errorf("topo: line %d: node wants 1 arg", lineNo)
			}
			if _, ok := idx[fields[1]]; !ok {
				idx[fields[1]] = len(nodes)
				nodes = append(nodes, fields[1])
			}
		case "edge":
			if len(fields) != 4 {
				return nil, fmt.Errorf("topo: line %d: edge wants 3 args", lineNo)
			}
			c, err := strconv.ParseFloat(fields[3], 64)
			if err != nil {
				return nil, fmt.Errorf("topo: line %d: bad capacity: %v", lineNo, err)
			}
			for _, nn := range fields[1:3] {
				if _, ok := idx[nn]; !ok {
					idx[nn] = len(nodes)
					nodes = append(nodes, nn)
				}
			}
			edges = append(edges, rawEdge{fields[1], fields[2], c})
		default:
			return nil, fmt.Errorf("topo: line %d: unknown directive %q", lineNo, fields[0])
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	g := graph.New(len(nodes))
	for i, nn := range nodes {
		g.SetNodeName(i, nn)
	}
	for _, e := range edges {
		g.AddEdge(idx[e.a], idx[e.b], e.c)
	}
	return &Topology{Name: name, G: g}, nil
}

// Format renders a topology in the text format accepted by Parse.
func Format(t *Topology) string {
	var b strings.Builder
	fmt.Fprintf(&b, "# topology %s: %d nodes, %d edges\n", t.Name, t.G.NumNodes(), t.G.NumEdges())
	for v := 0; v < t.G.NumNodes(); v++ {
		fmt.Fprintf(&b, "node %s\n", t.G.NodeName(v))
	}
	for e := 0; e < t.G.NumEdges(); e++ {
		ed := t.G.Edge(e)
		fmt.Fprintf(&b, "edge %s %s %g\n", t.G.NodeName(ed.A), t.G.NodeName(ed.B), ed.Capacity)
	}
	return b.String()
}

// Stats summarizes a topology's structure, for reports and the topogen
// CLI.
type Stats struct {
	Nodes, Edges  int
	MinDegree     int
	MaxDegree     int
	AvgDegree     float64
	Diameter      int // hop diameter (max over pairs of shortest-path hops)
	Bridges       int
	TotalCapacity float64
}

// ComputeStats derives Stats for a topology.
func ComputeStats(t *Topology) Stats {
	g := t.G
	st := Stats{Nodes: g.NumNodes(), Edges: g.NumEdges(), MinDegree: 1 << 30}
	for v := 0; v < g.NumNodes(); v++ {
		d := g.Degree(v)
		if d < st.MinDegree {
			st.MinDegree = d
		}
		if d > st.MaxDegree {
			st.MaxDegree = d
		}
		st.AvgDegree += float64(d)
	}
	if g.NumNodes() > 0 {
		st.AvgDegree /= float64(g.NumNodes())
	} else {
		st.MinDegree = 0
	}
	for u := 0; u < g.NumNodes(); u++ {
		for v := u + 1; v < g.NumNodes(); v++ {
			if p, ok := g.ShortestPath(u, v, nil); ok && p.Len() > st.Diameter {
				st.Diameter = p.Len()
			}
		}
	}
	st.Bridges = len(g.Bridges())
	for e := 0; e < g.NumEdges(); e++ {
		st.TotalCapacity += g.Edge(e).Capacity
	}
	return st
}
