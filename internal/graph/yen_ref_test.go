package graph

import (
	"container/heap"
	"math"
	"sort"
)

// The reference Yen: the k-shortest-paths code as it stood before the
// search workspace, kept as the oracle of KShortestPaths. It allocates per
// spur (maps for the banned edges and off-limit nodes, closures over them,
// fresh Dijkstra buffers, container/heap) and builds every candidate before
// checking it for a duplicate; KShortestPaths must return the same paths
// in the same order.

type refItem struct {
	node int
	dist float64
}

type refPQ []refItem

func (q refPQ) Len() int            { return len(q) }
func (q refPQ) Less(i, j int) bool  { return q[i].dist < q[j].dist }
func (q refPQ) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *refPQ) Push(x interface{}) { *q = append(*q, x.(refItem)) }
func (q *refPQ) Pop() interface{} {
	old := *q
	n := len(old)
	it := old[n-1]
	*q = old[:n-1]
	return it
}

// refShortestPath is Dijkstra from u to v with per-edge weights restricted
// to alive edges and allowed nodes (nil means no restriction).
func refShortestPath(g *Graph, u, v int, weight func(edge int) float64, alive func(edge int) bool, nodeOK func(node int) bool) (Path, bool) {
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
	q := &refPQ{{u, 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refItem)
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
				heap.Push(q, refItem{h.to, nd})
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

// refKShortestPaths is Yen's algorithm over refShortestPath with hop-count
// weights.
func refKShortestPaths(g *Graph, u, v, k int) []Path {
	if k <= 0 {
		return nil
	}
	w := func(int) float64 { return 1 }
	pathCost := func(p Path) float64 {
		c := 0.0
		for _, e := range p.Edges {
			c += w(e)
		}
		return c
	}
	first, ok := refShortestPath(g, u, v, w, nil, nil)
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
			spur, ok := refShortestPath(g, spurNode, v, w, alive, nodeOK)
			if !ok {
				continue
			}
			// Guard against the spur path revisiting root nodes (can happen
			// through the endpoints exempted in refShortestPath).
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
