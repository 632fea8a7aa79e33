package graph

import "testing"

// CanonicalHash must allocate O(1) beyond the hash state no matter how
// many edges it digests: the streaming encoder reuses one fixed chunk
// buffer, so a 50k-edge graph costs the same handful of allocations as a
// tiny one (hash state, digest, hex string — never per-edge).
func TestCanonicalHashConstantAllocs(t *testing.T) {
	big := GnpAvgDegree(10000, 10, 3) // ~50k edges
	if m := big.NumEdges(); m < 40000 {
		t.Fatalf("test graph too small: %d edges", m)
	}
	small := MustFromEdges(3, []Edge{{0, 1}})
	allocsBig := testing.AllocsPerRun(10, func() { big.CanonicalHash() })
	allocsSmall := testing.AllocsPerRun(10, func() { small.CanonicalHash() })
	if allocsBig > allocsSmall+1 {
		t.Errorf("50k-edge hash allocates %v vs %v for a 1-edge graph — not O(1)",
			allocsBig, allocsSmall)
	}
	if allocsBig > 8 {
		t.Errorf("hash allocates %v per op, want ≤ 8", allocsBig)
	}
}

// BenchmarkCanonicalHash50kEdges digests one graph from its CSR and from
// its canonical pair list; the pair digest must be no slower.
func BenchmarkCanonicalHash50kEdges(b *testing.B) {
	g := GnpAvgDegree(10000, 10, 3)
	pairs := make([][2]int, 0, g.NumEdges())
	g.Edges(func(u, v NodeID) { pairs = append(pairs, [2]int{int(u), int(v)}) })
	b.Run("csr", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(16 + 8*g.NumEdges()))
		for i := 0; i < b.N; i++ {
			g.CanonicalHash()
		}
	})
	b.Run("pairs", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(16 + 8*len(pairs)))
		for i := 0; i < b.N; i++ {
			if _, ok := CanonicalPairsHash(g.NumNodes(), pairs); !ok {
				b.Fatal("Edges' order is not canonical")
			}
		}
	})
}

func TestCanonicalHashInsertionOrderIndependent(t *testing.T) {
	a := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}})
	b := MustFromEdges(4, []Edge{{0, 3}, {2, 3}, {0, 1}, {1, 2}})
	if a.CanonicalHash() != b.CanonicalHash() {
		t.Fatal("same edge set in different insertion order hashed differently")
	}
}

func TestCanonicalHashDistinguishesGraphs(t *testing.T) {
	base := MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}})
	cases := map[string]*Graph{
		"extra edge":       MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {2, 3}, {0, 3}}),
		"different edge":   MustFromEdges(4, []Edge{{0, 1}, {1, 2}, {1, 3}}),
		"extra iso node":   MustFromEdges(5, []Edge{{0, 1}, {1, 2}, {2, 3}}),
		"fewer edges":      MustFromEdges(4, []Edge{{0, 1}, {1, 2}}),
		"relabeledancestr": MustFromEdges(4, []Edge{{0, 2}, {1, 2}, {1, 3}}),
	}
	for name, g := range cases {
		if g.CanonicalHash() == base.CanonicalHash() {
			t.Errorf("%s: hash collides with base graph", name)
		}
	}
}

func TestCanonicalHashStableAndEmptyGraph(t *testing.T) {
	var empty Graph
	h1 := empty.CanonicalHash()
	h2 := empty.CanonicalHash()
	if h1 != h2 || len(h1) != 64 {
		t.Fatalf("empty-graph hash not stable 64-hex: %q vs %q", h1, h2)
	}
	g := MustFromEdges(3, []Edge{{0, 1}})
	if g.CanonicalHash() == h1 {
		t.Fatal("non-empty graph hashes like the empty graph")
	}
}
