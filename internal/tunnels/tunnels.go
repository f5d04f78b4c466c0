// Package tunnels implements the paper's §6 tunnel-selection policies.
//
// Tunnels are pre-established paths between site pairs; every TE scheme in
// the repository routes over them. The paper picks tunnels "balancing
// latency and disjointness like prior works":
//
//   - single-class experiments: three physical tunnels per pair that are as
//     disjoint as possible, preferring shorter ones among choices;
//   - latency-sensitive (high-priority) class: three shortest paths that are
//     not all disconnected by any single link failure;
//   - low-priority class: the high-priority three plus three more drawn from
//     a larger shortest-path pool prioritizing disjointness.
package tunnels

import "flexile/internal/graph"

// PoolSize is how many candidate shortest paths Yen's algorithm generates
// per pair before the selection heuristics run.
const PoolSize = 12

// Policy selects tunnels for one node pair. te.NewInstance may call a
// policy concurrently for different pairs of one graph, so a policy must
// not write shared state. Every policy here is a pure function of its
// arguments: it reads the graph and allocates what it returns.
type Policy func(g *graph.Graph, u, v int) []graph.Path

// SingleClass returns up to n tunnels that are as edge-disjoint as
// possible, preferring shorter paths among equally disjoint choices.
func SingleClass(n int) Policy {
	return func(g *graph.Graph, u, v int) []graph.Path {
		return greedyDisjoint(g, g.KShortestPaths(u, v, PoolSize), nil, n)
	}
}

// HighPriority returns up to n shortest paths chosen so that no single link
// failure disconnects all of them (when the graph allows it): the selected
// paths' edge sets have empty intersection. Among selections with that
// property it prefers shorter paths (the class is latency sensitive).
func HighPriority(n int) Policy {
	return func(g *graph.Graph, u, v int) []graph.Path {
		return highPriority(g, u, v, g.KShortestPaths(u, v, PoolSize), n)
	}
}

// highPriority is HighPriority's pick of up to n tunnels from pool, the
// first PoolSize hop-count shortest u-v paths.
func highPriority(g *graph.Graph, u, v int, pool []graph.Path, n int) []graph.Path {
	if len(pool) == 0 {
		return nil
	}
	sel := []graph.Path{pool[0]}
	// common lists the edges of the running intersection of the picks;
	// inCommon marks them.
	common := append([]int(nil), pool[0].Edges...)
	inCommon := make([]bool, g.NumEdges())
	for _, e := range common {
		inCommon[e] = true
	}
	used := make([]bool, len(pool))
	used[0] = true
	for nUsed := 1; len(sel) < n && nUsed < len(pool); nUsed++ {
		// Greedy: the earliest (shortest) pool path that shrinks the
		// running intersection the most.
		best, bestCommon := -1, 1<<30
		for i, p := range pool {
			if used[i] {
				continue
			}
			c := 0
			for _, e := range p.Edges {
				if inCommon[e] {
					c++
				}
			}
			if c < bestCommon {
				best, bestCommon = i, c
			}
		}
		if best < 0 {
			break
		}
		used[best] = true
		sel = append(sel, pool[best])
		var next []int
		for _, e := range pool[best].Edges {
			if inCommon[e] {
				next = append(next, e)
			}
		}
		for _, e := range common {
			inCommon[e] = false
		}
		for _, e := range next {
			inCommon[e] = true
		}
		common = next
	}
	if len(common) == 0 || len(sel) < 2 {
		return sel
	}
	// The shortest-path pool cannot break the intersection; fall back
	// to a graph-wide detour avoiding the shared edges and swap it in
	// for the last pick.
	if alt, ok := g.ShortestPath(u, v, func(e int) bool { return !inCommon[e] }); ok {
		sel[len(sel)-1] = alt
	}
	return sel
}

// LowPriority returns the high-priority selection plus up to extra more
// tunnels drawn from a larger pool prioritizing disjointness from the ones
// already picked. One Yen pool of PoolSize+extra paths serves both picks:
// its first PoolSize paths are HighPriority's pool (DESIGN.md §2.3).
func LowPriority(n, extra int) Policy {
	return func(g *graph.Graph, u, v int) []graph.Path {
		pool := g.KShortestPaths(u, v, PoolSize+extra)
		sel := highPriority(g, u, v, pool[:min(PoolSize, len(pool))], n)
		var rest []graph.Path
		for _, p := range pool {
			dup := false
			for _, s := range sel {
				if p.Equal(s) {
					dup = true
					break
				}
			}
			if !dup {
				rest = append(rest, p)
			}
		}
		more := greedyDisjoint(g, rest, sel, extra)
		return append(sel, more...)
	}
}

// greedyDisjoint picks up to n paths from pool minimizing edge overlap with
// already-used edges (from base plus earlier picks), breaking ties by hop
// count then pool order.
func greedyDisjoint(g *graph.Graph, pool, base []graph.Path, n int) []graph.Path {
	used := make([]bool, g.NumEdges())
	for _, p := range base {
		for _, e := range p.Edges {
			used[e] = true
		}
	}
	remaining := append([]graph.Path(nil), pool...)
	var out []graph.Path
	for len(out) < n && len(remaining) > 0 {
		bestIdx, bestOverlap, bestLen := -1, 1<<30, 1<<30
		for i, p := range remaining {
			ov := 0
			for _, e := range p.Edges {
				if used[e] {
					ov++
				}
			}
			if ov < bestOverlap || (ov == bestOverlap && p.Len() < bestLen) {
				bestIdx, bestOverlap, bestLen = i, ov, p.Len()
			}
		}
		p := remaining[bestIdx]
		out = append(out, p)
		for _, e := range p.Edges {
			used[e] = true
		}
		remaining = append(remaining[:bestIdx], remaining[bestIdx+1:]...)
	}
	return out
}
