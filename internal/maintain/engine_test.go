package maintain

// The churn engine must stay bit-identical to the global-pass reference
// repair after every batch: same mask, same promotion count, same round
// count, computed from incrementally maintained coverage instead of a
// per-batch linear scan. The randomized churn test below drives hundreds
// of mixed batches (fail / revive / add_edge / del_edge / add_node)
// against a mirror of the topology and checks the engine against
// repairReference on the compacted graph each time.

import (
	"fmt"
	"math/rand"
	"testing"

	"ftclust/internal/graph"
	"ftclust/internal/rng"
)

// engineMirror tracks the topology and liveness the test believes the
// engine has, so it can generate valid batches and build reference inputs.
type engineMirror struct {
	n     int
	edges map[graph.Edge]bool
	dead  map[graph.NodeID]bool
}

func newEngineMirror(g *graph.Graph) *engineMirror {
	m := &engineMirror{n: g.NumNodes(), edges: map[graph.Edge]bool{}, dead: map[graph.NodeID]bool{}}
	g.Edges(func(u, v graph.NodeID) { m.edges[graph.Edge{U: u, V: v}] = true })
	return m
}

func (m *engineMirror) key(u, v graph.NodeID) graph.Edge {
	if u > v {
		u, v = v, u
	}
	return graph.Edge{U: u, V: v}
}

// applyBatch mutates the mirror the way the engine will.
func (m *engineMirror) applyBatch(ops []Op) {
	for _, op := range ops {
		switch op.Kind {
		case OpFail:
			for _, v := range op.Nodes {
				m.dead[v] = true
			}
		case OpRevive:
			for _, v := range op.Nodes {
				delete(m.dead, v)
			}
		case OpAddEdge:
			m.edges[m.key(op.U, op.V)] = true
		case OpDelEdge:
			delete(m.edges, m.key(op.U, op.V))
		case OpAddNode:
			m.n++
		}
	}
}

// randomBatch builds a valid batch of 1–8 ops against the mirror state,
// simulating the same-order semantics Validate enforces.
func (m *engineMirror) randomBatch(r *rand.Rand) []Op {
	nSim := m.n
	pending := map[graph.Edge]int8{}
	exists := func(u, v graph.NodeID) bool {
		k := m.key(u, v)
		if d, ok := pending[k]; ok {
			return d > 0
		}
		return m.edges[k]
	}
	deadSim := map[graph.NodeID]bool{}
	for v := range m.dead {
		deadSim[v] = true
	}
	var ops []Op
	count := 1 + r.Intn(8)
	for i := 0; i < count; i++ {
		switch r.Intn(10) {
		case 0: // add_node
			nSim++
			ops = append(ops, Op{Kind: OpAddNode})
		case 1, 2: // fail a live node
			v := graph.NodeID(r.Intn(nSim))
			deadSim[v] = true
			ops = append(ops, Op{Kind: OpFail, Nodes: []graph.NodeID{v}})
		case 3: // revive a dead node if any
			var dead []graph.NodeID
			for v := range deadSim {
				dead = append(dead, v)
			}
			if len(dead) == 0 {
				continue
			}
			sortNodeIDs(dead)
			v := dead[r.Intn(len(dead))]
			delete(deadSim, v)
			ops = append(ops, Op{Kind: OpRevive, Nodes: []graph.NodeID{v}})
		default: // toggle a random edge
			u := graph.NodeID(r.Intn(nSim))
			v := graph.NodeID(r.Intn(nSim))
			if u == v {
				continue
			}
			if exists(u, v) {
				pending[m.key(u, v)] = -1
				ops = append(ops, Op{Kind: OpDelEdge, U: u, V: v})
			} else {
				pending[m.key(u, v)] = 1
				ops = append(ops, Op{Kind: OpAddEdge, U: u, V: v})
			}
		}
	}
	return ops
}

// assertEngineMatchesReference checks the engine's post-repair state
// against repairReference on the compacted topology. preMask is the
// engine's member mask before the batch; the reference leader set is
// preMask minus the members the batch killed (Patch.Left), padded for
// nodes the batch added.
func assertEngineMatchesReference(t *testing.T, e *Engine, g *graph.Graph, preMask []bool, p Patch, dead map[graph.NodeID]bool, k int) {
	t.Helper()
	leader := make([]bool, g.NumNodes())
	copy(leader, preMask)
	for _, v := range p.Left {
		leader[v] = false
	}
	want, err := repairReference(g, leader, dead, k)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Entered) != want.Promoted || p.Iterations != want.Iterations {
		t.Fatalf("engine entered=%d iters=%d, reference promoted=%d iters=%d",
			len(p.Entered), p.Iterations, want.Promoted, want.Iterations)
	}
	got := e.InSet()
	for v := range want.InSet {
		if got[v] != want.InSet[v] {
			t.Fatalf("masks diverge at node %d: engine=%v reference=%v", v, got[v], want.InSet[v])
		}
	}
	if d := Assess(g, got, dead, k); d.DeficientNodes != 0 {
		t.Fatalf("engine left %d deficient nodes", d.DeficientNodes)
	}
}

// prunedMask strips redundant heads from a feasible mask (ascending-ID
// greedy removal), producing an irredundant cover: every remaining head
// has a node that depends on it, so targeted failures actually create
// deficits.
func prunedMask(g *graph.Graph, mask []bool, k int) []bool {
	n := g.NumNodes()
	out := append([]bool(nil), mask...)
	cov := make([]int, n)
	demand := make([]int, n)
	for v := 0; v < n; v++ {
		if out[v] {
			cov[v]++
		}
		deg := 0
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			deg++
			if out[w] {
				cov[v]++
			}
		}
		demand[v] = minInt(k, deg+1)
	}
	for v := 0; v < n; v++ {
		if !out[v] {
			continue
		}
		removable := cov[v] > demand[v]
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if cov[w] <= demand[w] {
				removable = false
				break
			}
		}
		if removable {
			out[v] = false
			cov[v]--
			for _, w := range g.Neighbors(graph.NodeID(v)) {
				cov[w]--
			}
		}
	}
	return out
}

func TestEngineMatchesReferenceUnderChurn(t *testing.T) {
	for _, k := range []int{1, 2, 3} {
		g := graph.GnpAvgDegree(250, 7, int64(k)*13+1)
		mask := feasibleMask(t, g, k)
		e, err := NewEngine(g, mask, k, Options{})
		if err != nil {
			t.Fatal(err)
		}
		mirror := newEngineMirror(g)
		r := rng.New(int64(k) * 1001)

		for batch := 0; batch < 60; batch++ {
			ops := mirror.randomBatch(r)
			if err := e.Validate(ops); err != nil {
				t.Fatalf("k=%d batch %d: generated batch rejected: %v", k, batch, err)
			}
			preMask := e.InSet()
			p := e.Apply(ops)
			mirror.applyBatch(ops)

			// Compact folds the overlay so the reference sees a plain CSR;
			// the engine keeps running on the compacted base.
			compacted := e.Compact()
			if compacted.NumNodes() != mirror.n || compacted.NumEdges() != len(mirror.edges) {
				t.Fatalf("k=%d batch %d: topology diverged from mirror (n=%d/%d m=%d/%d)",
					k, batch, compacted.NumNodes(), mirror.n, compacted.NumEdges(), len(mirror.edges))
			}
			// Pad preMask for nodes this batch appended.
			for len(preMask) < compacted.NumNodes() {
				preMask = append(preMask, false)
			}
			assertEngineMatchesReference(t, e, compacted, preMask, p, mirror.dead, k)
		}
	}
}

// TestEngineOverlayDriftEquivalence repeats the churn run without ever
// compacting, so the reference comparison exercises the merged
// base+delta iteration paths for real.
func TestEngineOverlayDriftEquivalence(t *testing.T) {
	const k = 2
	g := graph.GnpAvgDegree(200, 6, 21)
	mask := feasibleMask(t, g, k)
	// Huge drift bound: fallback must not trigger mid-test.
	e, err := NewEngine(g, mask, k, Options{MinDriftEdges: 1 << 20})
	if err != nil {
		t.Fatal(err)
	}
	mirror := newEngineMirror(g)
	r := rng.New(4242)
	for batch := 0; batch < 60; batch++ {
		ops := mirror.randomBatch(r)
		if err := e.Validate(ops); err != nil {
			t.Fatalf("batch %d rejected: %v", batch, err)
		}
		preMask := e.InSet()
		p := e.Apply(ops)
		if p.DriftExceeded {
			t.Fatalf("batch %d: drift fallback triggered under a huge bound", batch)
		}
		mirror.applyBatch(ops)
		// Reference runs on a compacted *copy*; the engine keeps its
		// drifted overlay.
		compacted := rebuildCompact(e)
		for len(preMask) < compacted.NumNodes() {
			preMask = append(preMask, false)
		}
		assertEngineMatchesReference(t, e, compacted, preMask, p, mirror.dead, k)
	}
	if e.Drift() == 0 {
		t.Fatal("churn run accumulated no drift; test exercised nothing")
	}
}

// rebuildCompact snapshots the engine's topology without resetting its
// overlay (Engine.Compact would).
func rebuildCompact(e *Engine) *graph.Graph {
	b := graph.NewBuilder(e.N())
	for v := 0; v < e.N(); v++ {
		vv := graph.NodeID(v)
		var fail error
		e.forEachNeighborTest(vv, func(w graph.NodeID) {
			if vv < w && fail == nil {
				fail = b.AddEdge(vv, w)
			}
		})
		if fail != nil {
			panic(fail)
		}
	}
	return b.Build()
}

// forEachNeighborTest exposes the overlay iteration to the test.
func (e *Engine) forEachNeighborTest(v graph.NodeID, fn func(w graph.NodeID)) {
	e.ov.ForNeighbors(v, fn)
}

func TestEngineOpSemantics(t *testing.T) {
	// Path 0-1-2-3-4, k=2; feasible mask via the reference greedy.
	g := graph.Path(5)
	const k = 2
	mask := feasibleMask(t, g, k)
	e, err := NewEngine(g, mask, k, Options{})
	if err != nil {
		t.Fatal(err)
	}

	// Fail + revive of the same node in one batch: the node must come back
	// live but demoted, and the batch must still leave the graph covered.
	victim := graph.NodeID(-1)
	for v, in := range e.InSet() {
		if in {
			victim = graph.NodeID(v)
			break
		}
	}
	ops := []Op{
		{Kind: OpFail, Nodes: []graph.NodeID{victim}},
		{Kind: OpRevive, Nodes: []graph.NodeID{victim}},
	}
	if err := e.Validate(ops); err != nil {
		t.Fatal(err)
	}
	p := e.Apply(ops)
	if e.IsDead(victim) {
		t.Fatal("revived node still dead")
	}
	if p.NewlyDead != 1 || p.Revived != 1 || p.LostHeads != 1 {
		t.Fatalf("patch counters: %+v", p)
	}
	// The fail demotes the node; if it is a member again, that membership
	// must have come from the repair (it is a legitimate candidate).
	if e.InSet()[victim] {
		found := false
		for _, u := range p.Entered {
			if u == victim {
				found = true
			}
		}
		if !found {
			t.Fatal("revived node kept membership without re-promotion")
		}
	}

	// Idempotence: failing a dead node and reviving a live one are no-ops.
	p = e.Apply([]Op{{Kind: OpFail, Nodes: []graph.NodeID{victim, victim}}})
	if p.NewlyDead != 1 {
		t.Fatalf("double fail counted twice: %+v", p)
	}
	p = e.Apply([]Op{{Kind: OpRevive, Nodes: []graph.NodeID{victim}}, {Kind: OpRevive, Nodes: []graph.NodeID{victim}}})
	if p.Revived != 1 {
		t.Fatalf("double revive counted twice: %+v", p)
	}

	// add_node: an isolated live node demands min(k,1)=1 and must promote
	// itself in one round.
	p = e.Apply([]Op{{Kind: OpAddNode}})
	if len(p.AddedNodes) != 1 || p.AddedNodes[0] != 5 {
		t.Fatalf("added nodes: %v", p.AddedNodes)
	}
	if len(p.Entered) != 1 || p.Entered[0] != 5 || p.Iterations != 1 {
		t.Fatalf("isolated node did not promote itself: %+v", p)
	}
	if !e.InSet()[5] {
		t.Fatal("new node not in S")
	}
}

func TestEngineValidateRejectsWholeBatchWithoutMutation(t *testing.T) {
	g := graph.Grid(4, 4)
	const k = 2
	e, err := NewEngine(g, feasibleMask(t, g, k), k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	before := e.InSet()
	beforeN, beforeM, beforeDrift := e.N(), e.NumEdges(), e.Drift()

	bad := [][]Op{
		// Last op out of range: earlier fail must not stick.
		{{Kind: OpFail, Nodes: []graph.NodeID{0}}, {Kind: OpFail, Nodes: []graph.NodeID{999}}},
		{{Kind: OpAddEdge, U: 0, V: 0}},
		{{Kind: OpAddEdge, U: 0, V: 1}},  // duplicate of a base edge
		{{Kind: OpDelEdge, U: 0, V: 15}}, // missing edge
		{{Kind: OpAddEdge, U: 0, V: 99}}, // out of range
		// Duplicate within the batch itself.
		{{Kind: OpAddEdge, U: 0, V: 5}, {Kind: OpAddEdge, U: 5, V: 0}},
	}
	for i, ops := range bad {
		if err := e.Validate(ops); err == nil {
			t.Errorf("bad batch %d accepted", i)
		}
	}
	after := e.InSet()
	for v := range before {
		if before[v] != after[v] {
			t.Fatalf("mask mutated at %d by rejected batches", v)
		}
	}
	if e.N() != beforeN || e.NumEdges() != beforeM || e.Drift() != beforeDrift {
		t.Fatal("topology mutated by rejected batches")
	}
	for v := 0; v < e.N(); v++ {
		if e.IsDead(graph.NodeID(v)) {
			t.Fatalf("node %d dead after rejected batches", v)
		}
	}
}

func TestEngineValidateRespectsOpOrder(t *testing.T) {
	g := graph.Path(4)
	e, err := NewEngine(g, feasibleMask(t, g, 1), 1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// An edge may target a node an earlier op in the same batch creates…
	ok := []Op{{Kind: OpAddNode}, {Kind: OpAddEdge, U: 4, V: 0}}
	if err := e.Validate(ok); err != nil {
		t.Fatalf("in-batch add_node then add_edge rejected: %v", err)
	}
	// …and may re-add an edge an earlier op deleted.
	ok2 := []Op{{Kind: OpDelEdge, U: 0, V: 1}, {Kind: OpAddEdge, U: 0, V: 1}}
	if err := e.Validate(ok2); err != nil {
		t.Fatalf("in-batch del then re-add rejected: %v", err)
	}
	// Without the creating op the same edge is out of range.
	if err := e.Validate([]Op{{Kind: OpAddEdge, U: 4, V: 0}}); err == nil {
		t.Fatal("edge to nonexistent node accepted")
	}
	// Delete twice in one batch: second must see the first.
	if err := e.Validate([]Op{{Kind: OpDelEdge, U: 0, V: 1}, {Kind: OpDelEdge, U: 0, V: 1}}); err == nil {
		t.Fatal("double delete accepted")
	}
}

func TestEngineDriftFallbackAndSetMask(t *testing.T) {
	const k = 2
	g := graph.GnpAvgDegree(120, 6, 9)
	mask := feasibleMask(t, g, k)
	e, err := NewEngine(g, mask, k, Options{DriftFraction: 1e-9, MinDriftEdges: 4})
	if err != nil {
		t.Fatal(err)
	}

	// Churn edges until the drift bound trips.
	r := rng.New(7)
	tripped := false
	for step := 0; step < 200 && !tripped; step++ {
		u := graph.NodeID(r.Intn(e.N()))
		v := graph.NodeID(r.Intn(e.N()))
		if u == v {
			continue
		}
		var ops []Op
		if e.HasEdgeTest(u, v) {
			ops = []Op{{Kind: OpDelEdge, U: u, V: v}}
		} else {
			ops = []Op{{Kind: OpAddEdge, U: u, V: v}}
		}
		if err := e.Validate(ops); err != nil {
			t.Fatal(err)
		}
		tripped = e.Apply(ops).DriftExceeded
	}
	if !tripped {
		t.Fatal("drift bound never tripped")
	}

	// Fallback protocol: full re-solve on the live subgraph, adopt via
	// SetMask. Here the "solver" is the reference greedy from empty.
	sub, ids := e.LiveSubgraph()
	res, err := repairReference(sub, make([]bool, sub.NumNodes()), nil, k)
	if err != nil {
		t.Fatal(err)
	}
	fresh := make([]bool, e.N())
	for i, in := range res.InSet {
		if in {
			fresh[ids[i]] = true
		}
	}
	entered, left, err := e.SetMask(fresh)
	if err != nil {
		t.Fatal(err)
	}
	if e.Drift() != 0 {
		t.Fatalf("SetMask must compact: drift=%d", e.Drift())
	}
	got := e.InSet()
	for v := range fresh {
		if got[v] != fresh[v] {
			t.Fatalf("adopted mask differs at %d", v)
		}
	}
	// The diff must be consistent with the masks.
	for _, v := range entered {
		if !fresh[v] {
			t.Fatalf("entered node %d not in new mask", v)
		}
	}
	for _, v := range left {
		if fresh[v] {
			t.Fatalf("left node %d still in new mask", v)
		}
	}
	// Engine keeps working after adoption.
	p := e.Apply([]Op{{Kind: OpAddNode}})
	if len(p.Entered) != 1 {
		t.Fatalf("post-adoption apply broken: %+v", p)
	}
}

// HasEdgeTest exposes overlay edge lookup to tests.
func (e *Engine) HasEdgeTest(u, v graph.NodeID) bool { return e.ov.HasEdge(u, v) }

func TestEngineSetMaskRejectsBadMasks(t *testing.T) {
	const k = 2
	g := graph.Grid(5, 5)
	e, err := NewEngine(g, feasibleMask(t, g, k), k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	e.Apply([]Op{{Kind: OpFail, Nodes: []graph.NodeID{3}}})
	before := e.InSet()

	// Dead member.
	bad := e.InSet()
	bad[3] = true
	if _, _, err := e.SetMask(bad); err == nil {
		t.Fatal("mask with dead member accepted")
	}
	// Wrong length.
	if _, _, err := e.SetMask(make([]bool, 3)); err == nil {
		t.Fatal("short mask accepted")
	}
	// Uncovering mask (empty).
	if _, _, err := e.SetMask(make([]bool, e.N())); err == nil {
		t.Fatal("empty mask accepted")
	}
	// All rejections must leave state untouched.
	after := e.InSet()
	for v := range before {
		if before[v] != after[v] {
			t.Fatalf("rejected SetMask mutated mask at %d", v)
		}
	}
}

// NewEngine rejects a mask that does not k-cover the graph and names the
// lowest-ID deficient node, whichever other nodes are deficient too.
func TestNewEngineNamesLowestDeficientNode(t *testing.T) {
	gnp := graph.GnpAvgDegree(200, 6, 4)
	gnpMask := feasibleMask(t, gnp, 2)
	for v := 150; v < 200; v++ {
		gnpMask[v] = false
	}
	cases := []struct {
		name string
		g    *graph.Graph
		mask []bool
		k    int
	}{
		// Nodes 3, 4, 5 and 9 have no member in their closed neighborhood.
		{"path", graph.Path(10), []bool{false, true, false, false, false, false, false, true, false, false}, 1},
		{"empty", graph.Grid(4, 4), make([]bool, 16), 1},
		{"gnp", gnp, gnpMask, 2},
	}
	for _, tc := range cases {
		lowest := -1
		for v := 0; v < tc.g.NumNodes() && lowest < 0; v++ {
			cov := 0
			if tc.mask[v] {
				cov++
			}
			for _, w := range tc.g.Neighbors(graph.NodeID(v)) {
				if tc.mask[w] {
					cov++
				}
			}
			if cov < minInt(tc.k, tc.g.Degree(graph.NodeID(v))+1) {
				lowest = v
			}
		}
		if lowest < 0 {
			t.Fatalf("%s: fixture mask is not deficient", tc.name)
		}
		_, err := NewEngine(tc.g, tc.mask, tc.k, Options{})
		want := fmt.Sprintf("maintain: mask does not %d-cover node %d", tc.k, lowest)
		if err == nil || err.Error() != want {
			t.Fatalf("%s: NewEngine error %v, want %q", tc.name, err, want)
		}
	}
}

// TestEngineTouchedScalesWithDamage is the streaming counterpart of the
// one-shot damage-proportionality test: a single failed head in a large
// sparse instance must touch a neighborhood, not the graph.
func TestEngineTouchedScalesWithDamage(t *testing.T) {
	const k = 2
	g := graph.GnpAvgDegree(5000, 8, 3)
	mask := prunedMask(g, feasibleMask(t, g, k), k)
	e, err := NewEngine(g, mask, k, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// The mask is irredundant, so failing heads quickly creates a deficit;
	// every repair along the way must stay confined to a neighborhood of
	// the 5000-node graph.
	var heads []graph.NodeID
	for v, in := range mask {
		if in {
			heads = append(heads, graph.NodeID(v))
		}
	}
	repaired := false
	for i := 0; i < 20 && i < len(heads); i++ {
		p := e.Apply([]Op{{Kind: OpFail, Nodes: []graph.NodeID{heads[i]}}})
		if p.Touched > 200 {
			t.Fatalf("single-head failure touched %d of %d nodes; not damage-proportional",
				p.Touched, e.N())
		}
		if len(p.Entered) > 0 {
			repaired = true
			break
		}
	}
	if !repaired {
		t.Fatal("no head failure triggered a repair; test exercised nothing")
	}
}
