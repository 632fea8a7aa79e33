package graph

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestBuilderBasics(t *testing.T) {
	b := NewBuilder(4)
	mustAdd := func(u, v NodeID) {
		t.Helper()
		if err := b.AddEdge(u, v); err != nil {
			t.Fatalf("AddEdge(%d,%d): %v", u, v, err)
		}
	}
	mustAdd(0, 1)
	mustAdd(2, 1)
	mustAdd(3, 0)
	g := b.Build()

	if g.NumNodes() != 4 {
		t.Errorf("NumNodes = %d, want 4", g.NumNodes())
	}
	if g.NumEdges() != 3 {
		t.Errorf("NumEdges = %d, want 3", g.NumEdges())
	}
	if got := g.Neighbors(1); !reflect.DeepEqual(got, []NodeID{0, 2}) {
		t.Errorf("Neighbors(1) = %v, want [0 2]", got)
	}
	if !g.HasEdge(1, 0) || !g.HasEdge(0, 1) {
		t.Error("HasEdge(1,0)/(0,1) should be true")
	}
	if g.HasEdge(0, 2) {
		t.Error("HasEdge(0,2) should be false")
	}
	if g.HasEdge(2, 2) {
		t.Error("self-loop HasEdge must be false")
	}
}

func TestBuilderRejectsInvalidEdges(t *testing.T) {
	b := NewBuilder(3)
	tests := []struct {
		name string
		u, v NodeID
	}{
		{"self-loop", 1, 1},
		{"negative", -1, 0},
		{"out of range", 0, 3},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := b.AddEdge(tt.u, tt.v); err == nil {
				t.Errorf("AddEdge(%d,%d) should fail", tt.u, tt.v)
			}
		})
	}
	if err := b.AddEdge(0, 1); err != nil {
		t.Fatalf("valid edge rejected: %v", err)
	}
	if err := b.AddEdge(1, 0); err == nil {
		t.Error("duplicate (reversed) edge should fail")
	}
}

func TestDegreeStats(t *testing.T) {
	g := Star(5) // center 0 with 4 leaves
	if got := g.MaxDegree(); got != 4 {
		t.Errorf("MaxDegree = %d, want 4", got)
	}
	if got := g.MinDegree(); got != 1 {
		t.Errorf("MinDegree = %d, want 1", got)
	}
	if got := g.AvgDegree(); got != 8.0/5.0 {
		t.Errorf("AvgDegree = %v, want 1.6", got)
	}
	if got := g.ClosedNeighborhoodSize(0); got != 5 {
		t.Errorf("ClosedNeighborhoodSize(center) = %d, want 5", got)
	}
}

func TestEdgesCanonicalOrder(t *testing.T) {
	g := MustFromEdges(4, []Edge{{2, 3}, {0, 2}, {1, 0}})
	var got []Edge
	g.Edges(func(u, v NodeID) { got = append(got, Edge{u, v}) })
	want := []Edge{{0, 1}, {0, 2}, {2, 3}}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Edges order = %v, want %v", got, want)
	}
	if !reflect.DeepEqual(g.EdgeList(), want) {
		t.Errorf("EdgeList = %v, want %v", g.EdgeList(), want)
	}
}

func TestGeneratorShapes(t *testing.T) {
	tests := []struct {
		name      string
		g         *Graph
		wantNodes int
		wantEdges int
	}{
		{"ring", Ring(10), 10, 10},
		{"path", Path(10), 10, 9},
		{"star", Star(7), 7, 6},
		{"complete", Complete(6), 6, 15},
		{"grid3x4", Grid(3, 4), 12, 17},
		{"caterpillar", Caterpillar(4, 2), 12, 11},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if tt.g.NumNodes() != tt.wantNodes {
				t.Errorf("nodes = %d, want %d", tt.g.NumNodes(), tt.wantNodes)
			}
			if tt.g.NumEdges() != tt.wantEdges {
				t.Errorf("edges = %d, want %d", tt.g.NumEdges(), tt.wantEdges)
			}
		})
	}
}

func TestRandomTreeIsTree(t *testing.T) {
	for _, n := range []int{1, 2, 3, 10, 57, 200} {
		g := RandomTree(n, 42)
		if n >= 1 && g.NumEdges() != n-1 && n > 1 {
			t.Errorf("n=%d: edges = %d, want %d", n, g.NumEdges(), n-1)
		}
		if !g.IsConnected() {
			t.Errorf("n=%d: tree not connected", n)
		}
	}
}

func TestGnpDeterministicAndPlausible(t *testing.T) {
	a := Gnp(100, 0.1, 7)
	b := Gnp(100, 0.1, 7)
	if a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed must give same graph")
	}
	c := Gnp(100, 0.1, 8)
	if a.NumEdges() == c.NumEdges() && reflect.DeepEqual(a.EdgeList(), c.EdgeList()) {
		t.Error("different seeds gave identical graphs")
	}
	// E[m] = 0.1 * 4950 = 495; allow wide slack.
	if m := a.NumEdges(); m < 350 || m > 650 {
		t.Errorf("Gnp edge count %d implausible for p=0.1", m)
	}
}

func TestRandomRegularishDegrees(t *testing.T) {
	g := RandomRegularish(100, 6, 3)
	if d := g.MaxDegree(); d > 6 {
		t.Errorf("MaxDegree = %d, want <= 6", d)
	}
	if d := g.AvgDegree(); d < 4.5 {
		t.Errorf("AvgDegree = %v, too far below 6", d)
	}
}

func TestPreferentialAttachmentConnected(t *testing.T) {
	g := PreferentialAttachment(200, 2, 11)
	if !g.IsConnected() {
		t.Error("PA graph with m=2 should be connected")
	}
	if g.MaxDegree() < 8 {
		t.Errorf("PA MaxDegree = %d, expected a hub", g.MaxDegree())
	}
}

func TestBFSAndDiameter(t *testing.T) {
	g := Path(5)
	dist := g.BFS(0)
	want := []int{0, 1, 2, 3, 4}
	if !reflect.DeepEqual(dist, want) {
		t.Errorf("BFS = %v, want %v", dist, want)
	}
	if d := g.Diameter(); d != 4 {
		t.Errorf("Diameter = %d, want 4", d)
	}
	g2 := MustFromEdges(4, []Edge{{0, 1}, {2, 3}})
	if d := g2.Diameter(); d != -1 {
		t.Errorf("disconnected Diameter = %d, want -1", d)
	}
}

func TestComponents(t *testing.T) {
	g := MustFromEdges(6, []Edge{{0, 1}, {1, 2}, {4, 5}})
	comp, nc := g.Components()
	if nc != 3 {
		t.Fatalf("components = %d, want 3", nc)
	}
	if comp[0] != comp[1] || comp[1] != comp[2] {
		t.Error("0,1,2 should share a component")
	}
	if comp[3] == comp[0] || comp[3] == comp[4] {
		t.Error("3 should be isolated")
	}
	if comp[4] != comp[5] {
		t.Error("4,5 should share a component")
	}
}

func TestKHopNeighborhood(t *testing.T) {
	g := Path(7)
	got := g.KHopNeighborhood(3, 2)
	want := []NodeID{1, 2, 3, 4, 5}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("KHop(3,2) = %v, want %v", got, want)
	}
	if got := g.KHopNeighborhood(0, 0); !reflect.DeepEqual(got, []NodeID{0}) {
		t.Errorf("KHop(0,0) = %v, want [0]", got)
	}
}

func TestMaxDegreeWithinHops(t *testing.T) {
	g := Star(6) // center 0 degree 5, leaves degree 1
	local := g.MaxDegreeWithinHops(1)
	for v := 0; v < 6; v++ {
		if local[v] != 5 {
			t.Errorf("local Δ at %d = %d, want 5 (center within 1 hop)", v, local[v])
		}
	}
	g2 := Path(5)
	local0 := g2.MaxDegreeWithinHops(0)
	if local0[0] != 1 || local0[2] != 2 {
		t.Errorf("0-hop local Δ = %v", local0)
	}
}

func TestSubgraphAndRemoveNodes(t *testing.T) {
	g := Complete(5)
	sub, orig := g.Subgraph([]NodeID{1, 3, 4})
	if sub.NumNodes() != 3 || sub.NumEdges() != 3 {
		t.Fatalf("induced K3 expected, got n=%d m=%d", sub.NumNodes(), sub.NumEdges())
	}
	if !reflect.DeepEqual(orig, []NodeID{1, 3, 4}) {
		t.Errorf("orig mapping = %v", orig)
	}
	rem, orig2 := g.RemoveNodes(map[NodeID]bool{0: true, 2: true})
	if rem.NumNodes() != 3 || rem.NumEdges() != 3 {
		t.Errorf("RemoveNodes gave n=%d m=%d", rem.NumNodes(), rem.NumEdges())
	}
	if !reflect.DeepEqual(orig2, []NodeID{1, 3, 4}) {
		t.Errorf("RemoveNodes mapping = %v", orig2)
	}

	// A shuffled keep renumbers out of ID order, so rows arrive unsorted;
	// an empty keep gives the empty graph. Both must match the map-backed
	// reference.
	big := Gnp(60, 0.2, 3)
	shuffled := make([]NodeID, 0, 40)
	for _, v := range rand.New(rand.NewSource(9)).Perm(60)[:40] {
		shuffled = append(shuffled, NodeID(v))
	}
	for _, keep := range [][]NodeID{shuffled, {}} {
		sub, orig := big.Subgraph(keep)
		refSub, refOrig := refSubgraph(big, keep)
		sameGraph(t, sub, refSub)
		if !reflect.DeepEqual(orig, refOrig) {
			t.Errorf("keep %v: mapping %v, reference %v", keep, orig, refOrig)
		}
	}
}

func TestFromEdgesErrors(t *testing.T) {
	cases := []struct {
		name  string
		n     int
		edges []Edge
		want  string
	}{
		{"negative n", -1, nil, "graph: negative node count -1"},
		{"input order", 4, []Edge{{2, 3}, {3, 2}, {1, 1}}, "graph: self-loop at node 1"},
		{"smallest duplicate", 5, []Edge{{3, 4}, {4, 3}, {2, 0}, {0, 2}}, "graph: duplicate edge (0,2)"},
	}
	for _, tc := range cases {
		if _, err := FromEdges(tc.n, tc.edges); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err %v, want %q", tc.name, err, tc.want)
		}
	}
}

// FromEdges allocates the offsets, the adjacency and the graph (plus,
// off canonical input, the transposed adjacency and its row cursors),
// never anything per edge or per row.
func TestFromEdgesConstantAllocs(t *testing.T) {
	allocs := func(m int) float64 {
		n := m / 5
		edges := make([]Edge, 0, m)
		for u := 0; len(edges) < m; u++ {
			for d := 1; d <= 5 && len(edges) < m; d++ {
				edges = append(edges, Edge{NodeID(u), NodeID((u + d) % n)})
			}
		}
		return testing.AllocsPerRun(5, func() { MustFromEdges(n, edges) })
	}
	if small, big := allocs(1000), allocs(100000); small != big {
		t.Errorf("FromEdges allocates %v objects at m = 1 000 but %v at m = 100 000", small, big)
	}
}

// BenchmarkFromEdges builds the CSR of a G(n, p) instance from its
// canonical edge list (the order Edges and Gnp emit) and from the same
// graph relabeled by a random permutation and shuffled, the order posted
// instances arrive in.
func BenchmarkFromEdges(b *testing.B) {
	for _, bc := range []struct {
		name    string
		n       int
		degree  float64
		relabel bool
	}{
		{"canonical/n=5000/d=10", 5000, 10, false},
		{"relabeled/n=5000/d=10", 5000, 10, true},
		{"relabeled/n=2000/d=40", 2000, 40, true},
	} {
		edges := GnpAvgDegree(bc.n, bc.degree, 1).EdgeList()
		if bc.relabel {
			r := rand.New(rand.NewSource(2))
			perm := r.Perm(bc.n)
			for i, e := range edges {
				edges[i] = Edge{NodeID(perm[e.U]), NodeID(perm[e.V])}
			}
			r.Shuffle(len(edges), func(i, j int) { edges[i], edges[j] = edges[j], edges[i] })
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				MustFromEdges(bc.n, edges)
			}
		})
	}
}

func TestIORoundTrip(t *testing.T) {
	gs := []*Graph{
		NewBuilder(0).Build(),
		NewBuilder(3).Build(),
		Ring(8),
		Gnp(50, 0.15, 5),
		Caterpillar(5, 3),
	}
	for i, g := range gs {
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			t.Fatalf("case %d: Write: %v", i, err)
		}
		back, err := Read(&buf)
		if err != nil {
			t.Fatalf("case %d: Read: %v", i, err)
		}
		if back.NumNodes() != g.NumNodes() || !reflect.DeepEqual(back.EdgeList(), g.EdgeList()) {
			t.Errorf("case %d: round-trip mismatch", i)
		}
	}
}

func TestReadRejectsMalformed(t *testing.T) {
	cases := []struct {
		name string
		in   string
	}{
		{"empty", ""},
		{"no header", "e 0 1\n"},
		{"bad counts", "graph -1 0\n"},
		{"edge count mismatch", "graph 3 2\ne 0 1\n"},
		{"self loop", "graph 2 1\ne 1 1\n"},
		{"duplicate", "graph 3 2\ne 0 1\ne 1 0\n"},
		{"unknown record", "graph 2 0\nx 0 1\n"},
		{"double header", "graph 2 0\ngraph 2 0\n"},
		{"absurd node count", "graph 999999999 0\n"},
	}
	for _, tt := range cases {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := Read(bytes.NewReader([]byte(tt.in))); err == nil {
				t.Errorf("Read(%q) should fail", tt.in)
			}
		})
	}
}

// Property: any generated graph round-trips through the codec.
func TestQuickIORoundTrip(t *testing.T) {
	f := func(seed int64, nRaw uint8, pRaw uint8) bool {
		n := int(nRaw%60) + 1
		p := float64(pRaw) / 255
		g := Gnp(n, p, seed)
		var buf bytes.Buffer
		if err := Write(&buf, g); err != nil {
			return false
		}
		back, err := Read(&buf)
		if err != nil {
			return false
		}
		return back.NumNodes() == g.NumNodes() &&
			reflect.DeepEqual(back.EdgeList(), g.EdgeList())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// Property: neighbor lists are sorted, deduplicated, and symmetric.
func TestQuickAdjacencyInvariants(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		n := r.Intn(80) + 2
		g := Gnp(n, r.Float64(), seed+1)
		for v := 0; v < g.NumNodes(); v++ {
			ns := g.Neighbors(NodeID(v))
			for i, w := range ns {
				if w == NodeID(v) {
					return false // self-loop
				}
				if i > 0 && ns[i-1] >= w {
					return false // unsorted or duplicate
				}
				if !g.HasEdge(w, NodeID(v)) {
					return false // asymmetric
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestGenerateFamilies(t *testing.T) {
	for _, f := range []Family{FamilyGnp, FamilyRegular, FamilyGrid, FamilyTree, FamilyPowerLaw, FamilyRing} {
		g, err := Generate(f, 64, 6, 1)
		if err != nil {
			t.Fatalf("Generate(%s): %v", f, err)
		}
		if g.NumNodes() < 60 {
			t.Errorf("Generate(%s): n = %d, want >= 60", f, g.NumNodes())
		}
	}
	if _, err := Generate(Family("nope"), 10, 2, 1); err == nil {
		t.Error("unknown family should error")
	}
}

func TestCliqueChain(t *testing.T) {
	g := CliqueChain(3, 4, nil)
	if g.NumNodes() != 12 {
		t.Fatalf("n = %d", g.NumNodes())
	}
	// 3 * C(4,2) + 2 bridges = 18 + 2
	if g.NumEdges() != 20 {
		t.Errorf("m = %d, want 20", g.NumEdges())
	}
	if !g.IsConnected() {
		t.Error("clique chain should be connected")
	}
}
