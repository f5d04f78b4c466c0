// Package graph provides the wide-area-network graph substrate: an
// undirected capacitated multigraph with the path machinery the TE schemes
// need — fewest-hop Dijkstra (optionally under edge failures), Yen's
// k-shortest paths over it, bridge detection, and the max-flow oracle of
// te's property test.
package graph

import (
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
	// parallel is set once two edges join the same pair of nodes; Yen's
	// deviation-index skip holds only while it is false.
	parallel bool
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
	for _, h := range g.adj[a] {
		if h.to == b {
			g.parallel = true
		}
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

// unreached is the hop distance of a node the search has not reached.
const unreached = math.MaxInt

// search is the workspace of one ShortestPath or KShortestPaths call: the
// Dijkstra buffers and heap, and the banned-edge and off-limit-node masks a
// Yen spur search sets and clears again. Once the heap and the edge lists
// have grown to the largest search's size, a spur search allocates nothing.
type search struct {
	g        *Graph
	dist     []int
	prev     []int // edge into each reached node; -1 at the source
	heap     []heapItem
	banned   []bool // per edge
	offLimit []bool // per node
	bans     []int  // the edges banned for the current spur
	spur     []int  // the edges of the last path found, source to target
}

func (g *Graph) newSearch() *search {
	n, m := g.NumNodes(), g.NumEdges()
	return &search{
		g:        g,
		dist:     make([]int, n),
		prev:     make([]int, n),
		banned:   make([]bool, m),
		offLimit: make([]bool, n),
	}
}

type heapItem struct {
	node, dist int
}

// push and pop are container/heap's Push and Pop on a slice ordered by
// dist alone: the same sift-up and sift-down, so equal distances leave the
// heap in the same order, and Dijkstra settles the same tree. They work on
// a local slice, not on a field of the search: a slice stored into the heap
// object on every push and pop costs a write barrier each while the
// collector runs.
func push(h []heapItem, it heapItem) []heapItem {
	h = append(h, it)
	j := len(h) - 1
	for j > 0 {
		i := (j - 1) / 2
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		j = i
	}
	return h
}

func pop(h []heapItem) ([]heapItem, heapItem) {
	n := len(h) - 1
	h[0], h[n] = h[n], h[0]
	i := 0
	for {
		j := 2*i + 1
		if j >= n {
			break
		}
		if j2 := j + 1; j2 < n && h[j2].dist < h[j].dist {
			j = j2
		}
		if h[j].dist >= h[i].dist {
			break
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
	return h[:n], h[n]
}

// dijkstra finds a fewest-hop path from u to v over edges that are not
// banned and through nodes that are not off limits, stopping when v is
// settled. On success s.spur holds its edges.
func (s *search) dijkstra(u, v int) bool {
	for i := range s.dist {
		s.dist[i] = unreached
	}
	for i := range s.prev {
		s.prev[i] = -1
	}
	s.dist[u] = 0
	heap := append(s.heap[:0], heapItem{u, 0})
	for len(heap) > 0 {
		var it heapItem
		heap, it = pop(heap)
		if it.dist > s.dist[it.node] {
			continue
		}
		if it.node == v {
			break
		}
		nd := it.dist + 1
		for _, h := range s.g.adj[it.node] {
			if s.banned[h.edge] || s.offLimit[h.to] || nd >= s.dist[h.to] {
				continue
			}
			s.dist[h.to] = nd
			s.prev[h.to] = h.edge
			heap = push(heap, heapItem{h.to, nd})
		}
	}
	s.heap = heap
	if s.dist[v] == unreached {
		return false
	}
	spur := s.spur[:0]
	for x := v; x != u; {
		e := s.prev[x]
		spur = append(spur, e)
		x = s.g.other(e, x)
	}
	reverseInts(spur)
	s.spur = spur
	return true
}

// other returns the endpoint of edge e that is not x.
func (g *Graph) other(e, x int) int {
	ed := g.edges[e]
	if ed.A == x {
		return ed.B
	}
	return ed.A
}

// path allocates the path whose edges are rootEdges then spur, walked from
// rootNodes[0]; spur starts at rootNodes' last node. Nodes and Edges share
// one array.
func (g *Graph) path(rootNodes, rootEdges, spur []int) Path {
	ne := len(rootEdges) + len(spur)
	buf := make([]int, ne+1+ne)
	nodes, edges := buf[:ne+1:ne+1], buf[ne+1:]
	copy(nodes, rootNodes)
	copy(edges, rootEdges)
	copy(edges[len(rootEdges):], spur)
	for i := len(rootNodes) - 1; i < ne; i++ {
		nodes[i+1] = g.other(edges[i], nodes[i])
	}
	return Path{Nodes: nodes, Edges: edges}
}

// ShortestPath returns a fewest-hop path from u to v over edges for which
// alive returns true (nil means all edges), and false when v is
// unreachable.
func (g *Graph) ShortestPath(u, v int, alive func(edge int) bool) (Path, bool) {
	s := g.newSearch()
	if alive != nil {
		for e := range s.banned {
			s.banned[e] = !alive(e)
		}
	}
	if !s.dijkstra(u, v) {
		return Path{}, false
	}
	return g.path([]int{u}, nil, s.spur), true
}

func reverseInts(a []int) {
	for i, j := 0, len(a)-1; i < j; i, j = i+1, j-1 {
		a[i], a[j] = a[j], a[i]
	}
}

// KShortestPaths returns up to k loopless fewest-hop paths from u to v by
// Yen's algorithm, in the order DESIGN.md §2.3 fixes: nondecreasing hop
// count, ties broken by the heap order of the Dijkstra beneath and by the
// candidate sort. The order does not depend on k, so the first k paths of
// a larger call are this call's paths.
//
// On a graph without parallel edges a round starts at the last accepted
// path's deviation index (Lawler): below it, the spur search at each index
// is one an earlier round already ran with the same bans, off-limit nodes
// and root, and its candidate would be dropped as a duplicate.
func (g *Graph) KShortestPaths(u, v, k int) []Path {
	if k <= 0 {
		return nil
	}
	s := g.newSearch()
	if !s.dijkstra(u, v) {
		return nil
	}
	result := []Path{g.path([]int{u}, nil, s.spur)}
	var c candidates
	dev := 0 // where the next round starts: 0 on a multigraph
	for len(result) < k {
		last := result[len(result)-1]
		for i := dev; i < len(last.Nodes)-1; i++ {
			spurNode := last.Nodes[i]
			rootNodes := last.Nodes[:i+1]
			rootEdges := last.Edges[:i]
			// Banned: the next edge of any accepted path sharing this
			// root. Off limits: the root's nodes before the spur node, so
			// that paths stay loopless.
			s.bans = s.bans[:0]
			for _, rp := range result {
				if len(rp.Edges) > i && sameInts(rp.Nodes[:i+1], rootNodes) {
					s.banned[rp.Edges[i]] = true
					s.bans = append(s.bans, rp.Edges[i])
				}
			}
			for _, nn := range rootNodes[:i] {
				s.offLimit[nn] = true
			}
			found := s.dijkstra(spurNode, v)
			for _, e := range s.bans {
				s.banned[e] = false
			}
			for _, nn := range rootNodes[:i] {
				s.offLimit[nn] = false
			}
			if found && !c.has(rootEdges, s.spur) && !joinedIn(result, rootEdges, s.spur) {
				c.add(rootEdges, s.spur, i)
			}
		}
		if len(c.list) == 0 {
			break
		}
		// The sort is not stable: the candidates' order going in is part
		// of the tie order, so it is kept as Yen leaves it.
		sort.Sort(byHops(c.list))
		best := c.list[0]
		result = append(result, g.path([]int{u}, nil, c.edges[best.off:best.off+best.hops]))
		if !g.parallel {
			dev = best.dev
		}
		c.list = c.list[1:]
	}
	return result
}

// candidates is Yen's candidate list. A candidate is not built into a Path
// until it is accepted: its edges sit in one buffer the call shares, so the
// list holds no pointers and the sort swaps plain words.
type candidates struct {
	list  []candidate
	edges []int
}

// candidate is a path of hops edges, edges[off:off+hops], with its
// deviation index: the spur index it left its parent path at.
type candidate struct {
	hops, dev, off int
}

// add appends the candidate with the edges root then spur, built at spur
// index dev.
func (c *candidates) add(root, spur []int, dev int) {
	c.list = append(c.list, candidate{hops: len(root) + len(spur), dev: dev, off: len(c.edges)})
	c.edges = append(append(c.edges, root...), spur...)
}

// has reports whether some candidate has the edges root then spur.
func (c *candidates) has(root, spur []int) bool {
	for _, x := range c.list {
		if x.hops == len(root)+len(spur) {
			e := c.edges[x.off : x.off+x.hops]
			if sameInts(e[:len(root)], root) && sameInts(e[len(root):], spur) {
				return true
			}
		}
	}
	return false
}

// byHops sorts candidates by hop count. sort.Sort over it runs the same
// pdqsort, comparison for comparison and swap for swap, as sort.Slice by
// Path.Len over the candidates' paths.
type byHops []candidate

func (b byHops) Len() int           { return len(b) }
func (b byHops) Less(i, j int) bool { return b[i].hops < b[j].hops }
func (b byHops) Swap(i, j int)      { b[i], b[j] = b[j], b[i] }

// joinedIn reports whether some path in ps has the edges root then spur.
func joinedIn(ps []Path, root, spur []int) bool {
	for _, p := range ps {
		if len(p.Edges) == len(root)+len(spur) &&
			sameInts(p.Edges[:len(root)], root) && sameInts(p.Edges[len(root):], spur) {
			return true
		}
	}
	return false
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
