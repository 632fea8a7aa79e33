package graph

import (
	"bytes"
	"testing"
)

// FuzzCanonicalHash checks the digest's contract from both sides: the
// hash is invariant under edge-list permutation and re-insertion of
// duplicate edges (same node count + edge set ⇒ same hash), and it
// separates graphs that differ by a single edge (different edge set ⇒
// different hash). The raw bytes encode n plus a stream of candidate
// endpoint pairs.
func FuzzCanonicalHash(f *testing.F) {
	f.Add([]byte{5, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{3, 0, 1, 0, 1, 1, 2}) // duplicate (0,1) in the stream
	f.Add([]byte{1})
	f.Add([]byte{64, 9, 33, 12, 40, 40, 12, 63, 0})
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 1<<10 {
			return
		}
		n := int(in[0])%64 + 1
		var edges []Edge
		seen := make(map[Edge]bool)
		for i := 1; i+1 < len(in); i += 2 {
			u, v := NodeID(int(in[i])%n), NodeID(int(in[i+1])%n)
			if u == v {
				continue
			}
			if u > v {
				u, v = v, u
			}
			e := Edge{u, v}
			if !seen[e] {
				seen[e] = true
				edges = append(edges, e)
			}
		}

		g1 := MustFromEdges(n, edges)
		want := g1.CanonicalHash()

		// Permuted insertion order plus interleaved duplicates must not
		// change the digest: the CSR canonicalizes both away.
		b := NewBuilder(n)
		for i := len(edges) - 1; i >= 0; i-- {
			if err := b.AddEdge(edges[i].U, edges[i].V); err != nil {
				t.Fatalf("AddEdge(%v): %v", edges[i], err)
			}
			b.TryAddEdge(edges[i].V, edges[i].U) // duplicate, silently skipped
		}
		if got := b.Build().CanonicalHash(); got != want {
			t.Fatalf("hash differs under edge permutation: %s vs %s", got, want)
		}

		// Dropping any one edge must change the digest.
		if len(edges) > 0 {
			g3 := MustFromEdges(n, edges[1:])
			if g3.CanonicalHash() == want {
				t.Fatalf("hash unchanged after removing edge %v", edges[0])
			}
		}
	})
}

// FuzzCanonicalPairsHash checks the pair digest against the CSR from
// both sides: when CanonicalPairsHash accepts a list, FromEdges builds it
// and CanonicalHash agrees with the pair digest; and whenever FromEdges
// builds a graph, CanonicalPairsHash accepts its EdgeList, so any input
// already in that order, with the same digest. The first byte is a signed
// node count, each following byte pair a signed edge, as in FuzzFromEdges.
func FuzzCanonicalPairsHash(f *testing.F) {
	f.Add([]byte{5, 0, 1, 0, 3, 1, 2, 2, 4, 3, 4}) // canonical
	f.Add([]byte{0})                               // n = 0, no edges
	f.Add([]byte{3})                               // isolated nodes only
	f.Add([]byte{0xfe})                            // negative n
	f.Add([]byte{5, 0, 1, 0, 3, 0, 3, 2, 4})       // a repeated pair
	f.Add([]byte{5, 0, 3, 0, 1, 2, 4})             // V out of order in a row
	f.Add([]byte{5, 1, 2, 0, 4})                   // U out of order
	f.Add([]byte{5, 0, 1, 2, 1, 3, 4})             // one pair with U > V
	f.Add([]byte{3, 0, 1, 2, 2})                   // self-loop
	f.Add([]byte{3, 0xff, 1})                      // negative endpoint
	f.Add([]byte{3, 0, 1, 1, 3})                   // out of range
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 1<<12 {
			return
		}
		n := int(int8(in[0]))
		var pairs [][2]int
		var edges []Edge
		for i := 1; i+1 < len(in); i += 2 {
			u, v := int(int8(in[i])), int(int8(in[i+1]))
			pairs = append(pairs, [2]int{u, v})
			edges = append(edges, Edge{NodeID(u), NodeID(v)})
		}
		hash, ok := CanonicalPairsHash(n, pairs)
		g, err := FromEdges(n, edges)
		if ok && err != nil {
			t.Fatalf("CanonicalPairsHash accepted %d, %v, which FromEdges rejects: %v", n, pairs, err)
		}
		if err != nil {
			return
		}
		want := g.CanonicalHash()
		if ok && hash != want {
			t.Fatalf("pair digest %s, CanonicalHash %s for %d, %v", hash, want, n, pairs)
		}
		canon := make([][2]int, 0, g.NumEdges())
		for _, e := range g.EdgeList() {
			canon = append(canon, [2]int{int(e.U), int(e.V)})
		}
		if got, ok := CanonicalPairsHash(n, canon); !ok || got != want {
			t.Fatalf("EdgeList %v of %d nodes: CanonicalPairsHash = %s, %v; CanonicalHash %s", canon, n, got, ok, want)
		}
	})
}

// FuzzRead ensures the graph codec never panics and that anything it
// accepts re-encodes to a parseable, equivalent graph.
func FuzzRead(f *testing.F) {
	f.Add("graph 3 2\ne 0 1\ne 1 2\n")
	f.Add("graph 0 0\n")
	f.Add("# comment\ngraph 2 1\ne 0 1\n")
	f.Add("graph 5 0\n\n\n")
	f.Add("e 0 1\ngraph 2 1\n")
	f.Add("graph 999999999 0\n")
	f.Fuzz(func(t *testing.T, in string) {
		if len(in) > 1<<16 {
			return
		}
		g, err := Read(bytes.NewReader([]byte(in)))
		if err != nil {
			return
		}
		// Reject absurd accepted sizes to keep the round-trip cheap.
		if g.NumNodes() > 1<<14 {
			return
		}
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("re-encode failed: %v", err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("re-parse failed: %v", err)
		}
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round-trip changed shape: %v vs %v", back, g)
		}
	})
}

// FuzzFromEdges checks FromEdges against refFromEdges, the map-backed
// construction it replaced: when both accept, n, m, every row and the
// canonical hash match; otherwise both reject. The first byte is a signed
// node count, each following byte pair a signed edge, so negative and
// out-of-range endpoints, self-loops and duplicates in both orientations
// all occur.
func FuzzFromEdges(f *testing.F) {
	f.Add([]byte{4, 0, 1, 1, 2, 1, 0})       // duplicate, reversed orientation
	f.Add([]byte{4, 2, 3, 0, 1, 2, 3})       // duplicate, same orientation
	f.Add([]byte{3, 0, 1, 2, 2})             // self-loop
	f.Add([]byte{3, 0, 0xff})                // negative endpoint
	f.Add([]byte{3, 0, 3})                   // out of range
	f.Add([]byte{0xfe})                      // negative n
	f.Add([]byte{0})                         // n = 0
	f.Add([]byte{0, 0, 1})                   // n = 0 with an edge
	f.Add([]byte{6, 5, 0, 4, 1, 3, 2, 0, 5}) // valid, then a duplicate
	// Canonical order (U < V, strictly ascending) takes the scatter-only
	// path; each near miss must fall back to the transpose.
	f.Add([]byte{5, 0, 1, 0, 3, 1, 2, 2, 4, 3, 4}) // canonical
	f.Add([]byte{5, 0, 1, 0, 3, 0, 3, 2, 4})       // canonical but for a repeat
	f.Add([]byte{5, 0, 3, 0, 1, 2, 4})             // V out of order in a row
	f.Add([]byte{5, 1, 2, 0, 4})                   // U out of order
	f.Add([]byte{5, 0, 1, 2, 1, 3, 4})             // one edge with U > V
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 || len(in) > 1<<12 {
			return
		}
		n := int(int8(in[0]))
		var edges []Edge
		for i := 1; i+1 < len(in); i += 2 {
			edges = append(edges, Edge{NodeID(int8(in[i])), NodeID(int8(in[i+1]))})
		}
		got, err := FromEdges(n, edges)
		want, refErr := refFromEdges(n, edges)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("FromEdges(%d, %v): err %v, reference err %v", n, edges, err, refErr)
		}
		if err == nil {
			sameGraph(t, got, want)
		}
	})
}
