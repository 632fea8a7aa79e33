// Package graph provides the undirected-graph substrate used by every
// algorithm in this repository: a compact adjacency representation,
// construction helpers, generators for the graph families the experiments
// sweep over, elementary traversals, and a deterministic text codec.
//
// Graphs are simple (no self-loops, no parallel edges) and undirected, which
// matches the communication model of the paper: an edge (u, v) is a
// bidirectional communication channel.
package graph

import (
	"fmt"
	"math"
	"sort"
)

// NodeID identifies a node. Nodes of a Graph with n nodes are always
// 0 … n-1, so a NodeID doubles as an index into per-node slices.
type NodeID int

// Graph is an immutable simple undirected graph in a CSR-like layout:
// the neighbors of node v are adj[off[v]:off[v+1]], sorted ascending.
// The zero value is the empty graph.
type Graph struct {
	n   int
	m   int // number of undirected edges
	off []int32
	adj []NodeID
}

// NumNodes returns the number of nodes.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return g.m }

// Degree returns the degree δ(v) of node v (not counting v itself).
func (g *Graph) Degree(v NodeID) int {
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns the open neighborhood of v, sorted ascending.
// The returned slice aliases internal storage and must not be modified.
func (g *Graph) Neighbors(v NodeID) []NodeID {
	return g.adj[g.off[v]:g.off[v+1]]
}

// HasEdge reports whether (u, v) is an edge. Runs in O(log δ(u)).
func (g *Graph) HasEdge(u, v NodeID) bool {
	if u == v {
		return false
	}
	ns := g.Neighbors(u)
	i := sort.Search(len(ns), func(i int) bool { return ns[i] >= v })
	return i < len(ns) && ns[i] == v
}

// MaxDegree returns Δ, the maximum degree over all nodes, and 0 for the
// empty graph.
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.n; v++ {
		if d := g.Degree(NodeID(v)); d > max {
			max = d
		}
	}
	return max
}

// MinDegree returns the minimum degree over all nodes, and 0 for the empty
// graph.
func (g *Graph) MinDegree() int {
	if g.n == 0 {
		return 0
	}
	min := g.Degree(0)
	for v := 1; v < g.n; v++ {
		if d := g.Degree(NodeID(v)); d < min {
			min = d
		}
	}
	return min
}

// AvgDegree returns the average degree 2m/n, and 0 for the empty graph.
func (g *Graph) AvgDegree() float64 {
	if g.n == 0 {
		return 0
	}
	return 2 * float64(g.m) / float64(g.n)
}

// Edges calls fn for every undirected edge exactly once, with u < v,
// in ascending (u, v) order.
func (g *Graph) Edges(fn func(u, v NodeID)) {
	for u := 0; u < g.n; u++ {
		for _, v := range g.Neighbors(NodeID(u)) {
			if NodeID(u) < v {
				fn(NodeID(u), v)
			}
		}
	}
}

// EdgeList returns all undirected edges with U < V in ascending order.
func (g *Graph) EdgeList() []Edge {
	es := make([]Edge, 0, g.m)
	g.Edges(func(u, v NodeID) { es = append(es, Edge{u, v}) })
	return es
}

// Edge is an undirected edge; canonical form has U < V.
type Edge struct {
	U, V NodeID
}

// Builder accumulates edges and produces an immutable Graph.
// Duplicate edges and self-loops are rejected at Build time with an error
// from AddEdge. The zero value is not usable; call NewBuilder.
type Builder struct {
	n     int
	edges map[Edge]struct{}
}

// NewBuilder returns a Builder for a graph with n nodes (0 … n-1).
func NewBuilder(n int) *Builder {
	if n < 0 {
		panic(fmt.Sprintf("graph: negative node count %d", n))
	}
	return &Builder{n: n, edges: make(map[Edge]struct{})}
}

// AddEdge records the undirected edge (u, v). It returns an error for
// self-loops, out-of-range endpoints, or duplicates.
func (b *Builder) AddEdge(u, v NodeID) error {
	if u == v {
		return fmt.Errorf("graph: self-loop at node %d", u)
	}
	if u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n {
		return fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, b.n)
	}
	if u > v {
		u, v = v, u
	}
	e := Edge{u, v}
	if _, dup := b.edges[e]; dup {
		return fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
	}
	b.edges[e] = struct{}{}
	return nil
}

// TryAddEdge records (u, v) if it is a valid new edge and reports whether it
// was added. Generators use it to skip duplicates without error plumbing.
func (b *Builder) TryAddEdge(u, v NodeID) bool {
	return b.AddEdge(u, v) == nil
}

// HasEdge reports whether (u, v) has been added.
func (b *Builder) HasEdge(u, v NodeID) bool {
	if u > v {
		u, v = v, u
	}
	_, ok := b.edges[Edge{u, v}]
	return ok
}

// NumEdges returns the number of edges added so far.
func (b *Builder) NumEdges() int { return len(b.edges) }

// Build produces the immutable Graph. The Builder remains usable and
// subsequent Builds reflect later additions.
func (b *Builder) Build() *Graph {
	// The map's iteration order does not reach the graph: FromEdges
	// orders every row.
	edges := make([]Edge, len(b.edges))
	i := 0
	for e := range b.edges {
		edges[i] = e
		i++
	}
	return MustFromEdges(b.n, edges)
}

// FromEdges builds a graph with n nodes from an edge list, in either
// orientation and any order. It returns an error for a negative n, for
// the first self-loop or out-of-range edge in input order, and otherwise
// for a duplicate edge, naming the smallest duplicated (u, v) with u < v.
//
// The CSR is built in O(n + m) with a constant number of allocations and
// no sort. Every arc is first scattered into its row in input order. The
// rows are then transposed: visiting the rows w in ascending order and
// appending w to the row of each entry. The graph is symmetric, so the
// transpose has the same rows, each now ascending, and a duplicate is two
// adjacent equal entries. Canonical input (every U < V, in strictly
// ascending (U, V) order, as Edges and Gnp emit it) scatters straight
// into ascending rows: a row receives its smaller neighbours while the
// edge cursor passes their rows and its larger ones during its own row.
// The transpose is then skipped.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	if len(edges) > math.MaxInt32/2 {
		return nil, fmt.Errorf("graph: %d edges exceed the limit of %d", len(edges), math.MaxInt32/2)
	}
	// off[v+1] counts v's degree, then becomes a prefix sum.
	off := make([]int32, n+1)
	canonical := true
	prev := Edge{-1, -1}
	for _, e := range edges {
		if e.U == e.V {
			return nil, fmt.Errorf("graph: self-loop at node %d", e.U)
		}
		if e.U < 0 || e.V < 0 || int(e.U) >= n || int(e.V) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", e.U, e.V, n)
		}
		off[e.U+1]++
		off[e.V+1]++
		if e.U > e.V || e.U < prev.U || e.U == prev.U && e.V <= prev.V {
			canonical = false
		}
		prev = e
	}
	for v := 0; v < n; v++ {
		off[v+1] += off[v]
	}
	// Scatter each row from its start, advancing off[v] as the row's
	// cursor; once full, off[v] is the end of row v, so a shift by one
	// slot restores the offsets.
	adj := make([]NodeID, off[n])
	for _, e := range edges {
		adj[off[e.U]] = e.V
		off[e.U]++
		adj[off[e.V]] = e.U
		off[e.V]++
	}
	copy(off[1:], off[:n])
	off[0] = 0
	if canonical {
		return &Graph{n: n, m: len(edges), off: off, adj: adj}, nil
	}
	sorted := make([]NodeID, len(adj))
	next := make([]int32, n)
	copy(next, off[:n])
	for w := 0; w < n; w++ {
		for _, x := range adj[off[w]:off[w+1]] {
			sorted[next[x]] = NodeID(w)
			next[x]++
		}
	}
	// Rows are scanned in ascending order, so the first duplicate found
	// is the smallest: a duplicated (u, v) with u < v shows up in row u
	// before it shows up in row v.
	for u := 0; u < n; u++ {
		row := sorted[off[u]:off[u+1]]
		for i := 1; i < len(row); i++ {
			if row[i] == row[i-1] {
				return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, row[i])
			}
		}
	}
	return &Graph{n: n, m: len(edges), off: off, adj: sorted}, nil
}

// MustFromEdges is FromEdges that panics on error; intended for tests and
// package-internal literals.
func MustFromEdges(n int, edges []Edge) *Graph {
	g, err := FromEdges(n, edges)
	if err != nil {
		panic(err)
	}
	return g
}

// ClosedNeighborhoodSize returns |N_v| = δ(v) + 1, the closed-neighborhood
// size the paper denotes |N_i|.
func (g *Graph) ClosedNeighborhoodSize(v NodeID) int {
	return g.Degree(v) + 1
}

// Subgraph returns the induced subgraph on keep (which must not contain
// duplicates) and the mapping from new IDs to original IDs.
func (g *Graph) Subgraph(keep []NodeID) (*Graph, []NodeID) {
	newID := make([]int32, g.n) // -1: not kept
	for v := range newID {
		newID[v] = -1
	}
	orig := make([]NodeID, len(keep))
	deg := 0
	for i, v := range keep {
		newID[v] = int32(i)
		orig[i] = v
		deg += g.Degree(v)
	}
	// Both endpoints of an induced edge count it in deg.
	edges := make([]Edge, 0, deg/2)
	for i, v := range keep {
		for _, w := range g.Neighbors(v) {
			if j := newID[w]; j > int32(i) {
				edges = append(edges, Edge{NodeID(i), NodeID(j)})
			}
		}
	}
	return MustFromEdges(len(keep), edges), orig
}

// RemoveNodes returns a copy of g with the given nodes (and incident edges)
// deleted, plus the new-to-old ID mapping. Used by failure experiments.
func (g *Graph) RemoveNodes(dead map[NodeID]bool) (*Graph, []NodeID) {
	keep := make([]NodeID, 0, g.n)
	for v := 0; v < g.n; v++ {
		if !dead[NodeID(v)] {
			keep = append(keep, NodeID(v))
		}
	}
	return g.Subgraph(keep)
}
