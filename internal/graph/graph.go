// Package graph provides the wide-area-network graph substrate: an
// undirected capacitated multigraph with the path and connectivity
// machinery the TE schemes need — Dijkstra, Yen's k-shortest paths,
// connectivity under edge failures, bridge detection and the recursive
// degree-one pruning the paper applies to every topology.
package graph

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
)

// Edge is an undirected link between nodes A and B with a capacity.
type Edge struct {
	A, B     int
	Capacity float64
}

// Graph is an undirected capacitated multigraph. Nodes are dense integers
// 0..NumNodes-1; edges are dense integers 0..NumEdges-1.
type Graph struct {
	names []string
	edges []Edge
	adj   [][]half
}

type half struct {
	to   int
	edge int
}

// New creates a graph with n isolated nodes named "0".."n-1".
func New(n int) *Graph {
	g := &Graph{adj: make([][]half, n)}
	g.names = make([]string, n)
	for i := range g.names {
		g.names[i] = fmt.Sprint(i)
	}
	return g
}

// SetNodeName assigns a display name to node v.
func (g *Graph) SetNodeName(v int, name string) { g.names[v] = name }

// NodeName returns the display name of node v.
func (g *Graph) NodeName(v int) string { return g.names[v] }

// AddEdge inserts an undirected edge and returns its index.
func (g *Graph) AddEdge(a, b int, capacity float64) int {
	if a == b {
		panic("graph: self loop")
	}
	id := len(g.edges)
	g.edges = append(g.edges, Edge{a, b, capacity})
	g.adj[a] = append(g.adj[a], half{b, id})
	g.adj[b] = append(g.adj[b], half{a, id})
	return id
}

// NumNodes reports the node count.
func (g *Graph) NumNodes() int { return len(g.adj) }

// NumEdges reports the edge count.
func (g *Graph) NumEdges() int { return len(g.edges) }

// Edge returns edge e.
func (g *Graph) Edge(e int) Edge { return g.edges[e] }

// SetCapacity overrides the capacity of edge e.
func (g *Graph) SetCapacity(e int, c float64) { g.edges[e].Capacity = c }

// Degree reports the number of incident edges of node v.
func (g *Graph) Degree(v int) int { return len(g.adj[v]) }

// Path is a simple path: Nodes has one more element than Edges, and
// Edges[i] connects Nodes[i] to Nodes[i+1].
type Path struct {
	Nodes []int
	Edges []int
}

// Len reports the hop count.
func (p Path) Len() int { return len(p.Edges) }

// UsesEdge reports whether the path crosses edge e.
func (p Path) UsesEdge(e int) bool {
	for _, pe := range p.Edges {
		if pe == e {
			return true
		}
	}
	return false
}

// Alive reports whether every edge of the path is alive under the given
// predicate.
func (p Path) Alive(alive func(edge int) bool) bool {
	for _, e := range p.Edges {
		if !alive(e) {
			return false
		}
	}
	return true
}

// Equal reports whether two paths traverse the same edges in order.
func (p Path) Equal(q Path) bool {
	if len(p.Edges) != len(q.Edges) {
		return false
	}
	for i := range p.Edges {
		if p.Edges[i] != q.Edges[i] {
			return false
		}
	}
	return true
}

// Clone deep-copies the path.
func (p Path) Clone() Path {
	return Path{Nodes: append([]int(nil), p.Nodes...), Edges: append([]int(nil), p.Edges...)}
}

// Connected reports whether u can reach v using edges for which alive
// returns true (alive == nil means all edges).
func (g *Graph) Connected(u, v int, alive func(edge int) bool) bool {
	if u == v {
		return true
	}
	seen := make([]bool, g.NumNodes())
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[x] {
			if alive != nil && !alive(h.edge) {
				continue
			}
			if h.to == v {
				return true
			}
			if !seen[h.to] {
				seen[h.to] = true
				stack = append(stack, h.to)
			}
		}
	}
	return false
}

// ComponentOf returns the set of nodes reachable from u under alive.
func (g *Graph) ComponentOf(u int, alive func(edge int) bool) []bool {
	seen := make([]bool, g.NumNodes())
	stack := []int{u}
	seen[u] = true
	for len(stack) > 0 {
		x := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, h := range g.adj[x] {
			if alive != nil && !alive(h.edge) {
				continue
			}
			if !seen[h.to] {
				seen[h.to] = true
				stack = append(stack, h.to)
			}
		}
	}
	return seen
}

// IsConnected reports whether the whole graph is one component under alive.
func (g *Graph) IsConnected(alive func(edge int) bool) bool {
	if g.NumNodes() == 0 {
		return true
	}
	seen := g.ComponentOf(0, alive)
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

type pqItem struct {
	node int
	dist float64
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// ShortestPath runs Dijkstra from u to v with per-edge weights (weight ==
// nil means hop count) restricted to alive edges and allowed nodes
// (nil means no restriction). It returns the path and true, or false when v
// is unreachable.
func (g *Graph) ShortestPath(u, v int, weight func(edge int) float64, alive func(edge int) bool, nodeOK func(node int) bool) (Path, bool) {
	n := g.NumNodes()
	dist := make([]float64, n)
	prevNode := make([]int, n)
	prevEdge := make([]int, n)
	for i := range dist {
		dist[i] = math.Inf(1)
		prevNode[i] = -1
		prevEdge[i] = -1
	}
	dist[u] = 0
	q := &pq{{u, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(pqItem)
		if it.dist > dist[it.node] {
			continue
		}
		if it.node == v {
			break
		}
		for _, h := range g.adj[it.node] {
			if alive != nil && !alive(h.edge) {
				continue
			}
			if nodeOK != nil && h.to != v && h.to != u && !nodeOK(h.to) {
				continue
			}
			w := 1.0
			if weight != nil {
				w = weight(h.edge)
			}
			nd := it.dist + w
			if nd < dist[h.to]-1e-15 {
				dist[h.to] = nd
				prevNode[h.to] = it.node
				prevEdge[h.to] = h.edge
				heap.Push(q, pqItem{h.to, nd})
			}
		}
	}
	if math.IsInf(dist[v], 1) {
		return Path{}, false
	}
	var nodes, edges []int
	for x := v; x != -1; x = prevNode[x] {
		nodes = append(nodes, x)
		if prevEdge[x] != -1 {
			edges = append(edges, prevEdge[x])
		}
	}
	reverseInts(nodes)
	reverseInts(edges)
	return Path{Nodes: nodes, Edges: edges}, true
}

func reverseInts(a []int) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

// KShortestPaths returns up to k loopless shortest paths from u to v in
// nondecreasing weight order (Yen's algorithm). weight == nil means hop
// count.
func (g *Graph) KShortestPaths(u, v, k int, weight func(edge int) float64) []Path {
	if k <= 0 {
		return nil
	}
	w := weight
	if w == nil {
		w = func(int) float64 { return 1 }
	}
	pathCost := func(p Path) float64 {
		c := 0.0
		for _, e := range p.Edges {
			c += w(e)
		}
		return c
	}
	first, ok := g.ShortestPath(u, v, w, nil, nil)
	if !ok {
		return nil
	}
	result := []Path{first}
	type cand struct {
		p    Path
		cost float64
	}
	var candidates []cand
	for len(result) < k {
		last := result[len(result)-1]
		for i := 0; i < len(last.Nodes)-1; i++ {
			spurNode := last.Nodes[i]
			rootNodes := last.Nodes[:i+1]
			rootEdges := last.Edges[:i]
			// Edges to exclude: the next edge of any accepted path sharing
			// this root.
			banned := map[int]bool{}
			for _, rp := range result {
				if len(rp.Nodes) > i && sameInts(rp.Nodes[:i+1], rootNodes) && len(rp.Edges) > i {
					banned[rp.Edges[i]] = true
				}
			}
			// Nodes of the root (except spur) are off limits to keep paths
			// loopless.
			offLimit := map[int]bool{}
			for _, nn := range rootNodes[:i] {
				offLimit[nn] = true
			}
			alive := func(e int) bool { return !banned[e] }
			nodeOK := func(n int) bool { return !offLimit[n] }
			spur, ok := g.ShortestPath(spurNode, v, w, alive, nodeOK)
			if !ok {
				continue
			}
			// Guard against the spur path revisiting root nodes (can happen
			// through the endpoints exempted in ShortestPath).
			bad := false
			for _, nn := range spur.Nodes[1:] {
				if offLimit[nn] {
					bad = true
					break
				}
			}
			if bad {
				continue
			}
			total := Path{
				Nodes: append(append([]int(nil), rootNodes...), spur.Nodes[1:]...),
				Edges: append(append([]int(nil), rootEdges...), spur.Edges...),
			}
			dup := false
			for _, c := range candidates {
				if c.p.Equal(total) {
					dup = true
					break
				}
			}
			for _, rp := range result {
				if rp.Equal(total) {
					dup = true
					break
				}
			}
			if !dup {
				candidates = append(candidates, cand{total, pathCost(total)})
			}
		}
		if len(candidates) == 0 {
			break
		}
		sort.Slice(candidates, func(a, b int) bool {
			if candidates[a].cost != candidates[b].cost {
				return candidates[a].cost < candidates[b].cost
			}
			return candidates[a].p.Len() < candidates[b].p.Len()
		})
		result = append(result, candidates[0].p)
		candidates = candidates[1:]
	}
	return result
}

func sameInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// Bridges returns the set of bridge edges (edges whose removal disconnects
// their component), via Tarjan's low-link algorithm.
func (g *Graph) Bridges() []int {
	n := g.NumNodes()
	disc := make([]int, n)
	low := make([]int, n)
	for i := range disc {
		disc[i] = -1
	}
	var bridges []int
	timer := 0
	type frame struct {
		node, parentEdge int
		idx              int
	}
	for start := 0; start < n; start++ {
		if disc[start] != -1 {
			continue
		}
		stack := []frame{{start, -1, 0}}
		disc[start] = timer
		low[start] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			if f.idx < len(g.adj[f.node]) {
				h := g.adj[f.node][f.idx]
				f.idx++
				if h.edge == f.parentEdge {
					continue
				}
				if disc[h.to] == -1 {
					disc[h.to] = timer
					low[h.to] = timer
					timer++
					stack = append(stack, frame{h.to, h.edge, 0})
				} else if disc[h.to] < low[f.node] {
					low[f.node] = disc[h.to]
				}
			} else {
				stack = stack[:len(stack)-1]
				if len(stack) > 0 {
					p := &stack[len(stack)-1]
					if low[f.node] < low[p.node] {
						low[p.node] = low[f.node]
					}
					if low[f.node] > disc[p.node] {
						bridges = append(bridges, f.parentEdge)
					}
				}
			}
		}
	}
	sort.Ints(bridges)
	return bridges
}
