package graph

import (
	"fmt"
	"sort"
	"testing"
)

// refFromEdges is the map-backed construction FromEdges replaced, kept as
// the differential oracle: validate and deduplicate through a map of
// canonical edges, count degrees, fill rows in map order, then sort each
// row with sort.Slice.
func refFromEdges(n int, edges []Edge) (*Graph, error) {
	if n < 0 {
		return nil, fmt.Errorf("graph: negative node count %d", n)
	}
	set := make(map[Edge]struct{})
	for _, e := range edges {
		u, v := e.U, e.V
		if u == v {
			return nil, fmt.Errorf("graph: self-loop at node %d", u)
		}
		if u < 0 || v < 0 || int(u) >= n || int(v) >= n {
			return nil, fmt.Errorf("graph: edge (%d,%d) out of range [0,%d)", u, v, n)
		}
		if u > v {
			u, v = v, u
		}
		if _, dup := set[Edge{u, v}]; dup {
			return nil, fmt.Errorf("graph: duplicate edge (%d,%d)", u, v)
		}
		set[Edge{u, v}] = struct{}{}
	}
	deg := make([]int32, n)
	for e := range set {
		deg[e.U]++
		deg[e.V]++
	}
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + deg[v]
	}
	adj := make([]NodeID, off[n])
	fill := make([]int32, n)
	for e := range set {
		adj[off[e.U]+fill[e.U]] = e.V
		fill[e.U]++
		adj[off[e.V]+fill[e.V]] = e.U
		fill[e.V]++
	}
	for v := 0; v < n; v++ {
		ns := adj[off[v]:off[v+1]]
		sort.Slice(ns, func(i, j int) bool { return ns[i] < ns[j] })
	}
	return &Graph{n: n, m: len(set), off: off, adj: adj}, nil
}

// refSubgraph is the map-indexed Subgraph FromEdges' rewrite replaced,
// built through refFromEdges.
func refSubgraph(g *Graph, keep []NodeID) (*Graph, []NodeID) {
	newID := make(map[NodeID]NodeID, len(keep))
	for i, v := range keep {
		newID[v] = NodeID(i)
	}
	var edges []Edge
	for i, v := range keep {
		for _, w := range g.Neighbors(v) {
			if j, ok := newID[w]; ok && NodeID(i) < j {
				edges = append(edges, Edge{NodeID(i), j})
			}
		}
	}
	sub, err := refFromEdges(len(keep), edges)
	if err != nil {
		panic(err)
	}
	return sub, append([]NodeID{}, keep...)
}

// sameGraph fails t unless a and b have the same n, m, rows and
// canonical hash.
func sameGraph(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: n=%d m=%d vs n=%d m=%d",
			a.NumNodes(), a.NumEdges(), b.NumNodes(), b.NumEdges())
	}
	for v := 0; v < a.NumNodes(); v++ {
		ra, rb := a.Neighbors(NodeID(v)), b.Neighbors(NodeID(v))
		if len(ra) != len(rb) {
			t.Fatalf("row %d differs: %v vs %v", v, ra, rb)
		}
		for i := range ra {
			if ra[i] != rb[i] {
				t.Fatalf("row %d differs: %v vs %v", v, ra, rb)
			}
		}
	}
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("canonical hash differs on equal rows")
	}
}
