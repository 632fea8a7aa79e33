package maintain

import (
	"fmt"
	"sort"

	"ftclust/internal/graph"
)

// OpKind enumerates the delta operations a churn stream may carry.
type OpKind uint8

const (
	// OpFail marks nodes dead. Dead nodes neither serve nor demand
	// coverage; failing an already-dead node is a no-op.
	OpFail OpKind = iota
	// OpRevive brings dead nodes back, as non-members that demand
	// coverage again; reviving a live node is a no-op.
	OpRevive
	// OpAddEdge inserts the undirected edge (U, V); it must not exist.
	OpAddEdge
	// OpDelEdge removes the undirected edge (U, V); it must exist.
	OpDelEdge
	// OpAddNode appends one fresh isolated live node.
	OpAddNode
)

// String returns the wire name of the op kind.
func (k OpKind) String() string {
	switch k {
	case OpFail:
		return "fail"
	case OpRevive:
		return "revive"
	case OpAddEdge:
		return "add_edge"
	case OpDelEdge:
		return "del_edge"
	case OpAddNode:
		return "add_node"
	}
	return fmt.Sprintf("OpKind(%d)", uint8(k))
}

// Op is one delta operation. Nodes is used by OpFail/OpRevive; U, V by
// OpAddEdge/OpDelEdge; OpAddNode takes no operands.
type Op struct {
	Kind  OpKind
	Nodes []graph.NodeID
	U, V  graph.NodeID
}

// Patch reports what one Apply did: the incremental repair delta a
// session streams back instead of a full solution.
type Patch struct {
	// Entered lists nodes newly promoted into S, ascending.
	Entered []graph.NodeID
	// Left lists nodes that left S this batch (members that died),
	// ascending.
	Left []graph.NodeID
	// AddedNodes lists the IDs assigned by OpAddNode ops, in op order.
	AddedNodes []graph.NodeID
	// Iterations is the number of promotion passes the repair used: 1 when
	// the batch left a deficit, else 0.
	Iterations int
	// Touched counts distinct nodes whose state the apply+repair pass
	// examined or updated — the measured damage, which scales with the
	// batch's neighborhoods rather than n.
	Touched int
	// LostHeads counts members that died this batch (== len(Left)).
	LostHeads int
	// DeficientBefore counts live nodes short of coverage after the batch
	// was applied and before repair.
	DeficientBefore int
	// NewlyDead and Revived count liveness transitions this batch.
	NewlyDead int
	Revived   int
	// DriftExceeded reports that the overlay drifted past the engine's
	// bound during this batch. The incremental mask is still feasible,
	// but set quality degrades monotonically under churn (repair only
	// promotes), so the owner should compact and run a certified full
	// re-solve, then adopt it with SetMask.
	DriftExceeded bool
}

// Options tunes an Engine. Zero values select the documented defaults.
type Options struct {
	// DriftFraction is the overlay drift (delta edges + added nodes, as a
	// fraction of base edges) beyond which Apply sets DriftExceeded
	// (default 0.25).
	DriftFraction float64
	// MinDriftEdges is the drift floor below which fallback never
	// triggers, so tiny instances aren't forced into re-solves by a
	// handful of deltas (default 64).
	MinDriftEdges int
}

func (o *Options) fillDefaults() {
	if o.DriftFraction <= 0 {
		o.DriftFraction = 0.25
	}
	if o.MinDriftEdges <= 0 {
		o.MinDriftEdges = 64
	}
}

// Engine is the incremental churn engine: a long-lived k-fold clustering
// that absorbs batches of liveness and topology deltas at a cost
// proportional to the damage. It maintains per-node live coverage
// incrementally — no global pass per batch; only construction scans every
// node — and keeps the invariant that between batches every live node
// has its capped demand min(k, liveDegree+1) covered.
//
// Engine is not safe for concurrent use; callers serialize access.
type Engine struct {
	ov   *graph.Overlay
	k    int
	opts Options

	inSet   []bool
	dead    []bool
	liveDeg []int32
	cov     []int32 // live members in the closed neighborhood (live nodes only)

	size      int
	deadCount int

	// dirty collects nodes whose deficit status may have changed since
	// the last repair; dirtyMark dedups it.
	dirty     []int32
	dirtyMark []bool

	// touch stamps nodes counted toward Patch.Touched this batch.
	touch      []int32
	touchEpoch int32
}

// NewEngine starts an engine on g with the given k and dominator mask.
// The mask must k-cover g (the usual case: it came from a solve); the
// engine verifies this while building its coverage state and returns an
// error naming the lowest-ID deficient node otherwise, because the
// incremental invariant starts there.
func NewEngine(g *graph.Graph, mask []bool, k int, opts Options) (*Engine, error) {
	e, err := newEngine(g, mask, nil, k, opts)
	if err != nil {
		return nil, err
	}
	if len(e.dirty) > 0 {
		return nil, fmt.Errorf("maintain: mask does not %d-cover node %d", k, e.dirty[0])
	}
	return e, nil
}

// newEngine builds an engine on g with the nodes in dead already failed
// (dead members leave the mask) and queues every deficient live node, in
// ascending ID order, for the next Apply's repair.
func newEngine(g *graph.Graph, mask []bool, dead map[graph.NodeID]bool, k int, opts Options) (*Engine, error) {
	n := g.NumNodes()
	if len(mask) != n {
		return nil, fmt.Errorf("maintain: mask has %d entries for %d nodes", len(mask), n)
	}
	if k < 1 {
		return nil, fmt.Errorf("maintain: k must be ≥ 1, got %d", k)
	}
	opts.fillDefaults()
	e := &Engine{
		ov:        graph.NewOverlay(g),
		k:         k,
		opts:      opts,
		inSet:     make([]bool, n),
		dead:      make([]bool, n),
		liveDeg:   make([]int32, n),
		cov:       make([]int32, n),
		dirtyMark: make([]bool, n),
		touch:     make([]int32, n),
	}
	for v := 0; v < n; v++ {
		switch {
		case dead[graph.NodeID(v)]:
			e.dead[v] = true
			e.deadCount++
		case mask[v]:
			e.inSet[v] = true
			e.size++
		}
	}
	for v := 0; v < n; v++ {
		if e.dead[v] {
			continue
		}
		if e.inSet[v] {
			e.cov[v]++
		}
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if !e.dead[w] {
				e.liveDeg[v]++
				if e.inSet[w] {
					e.cov[v]++
				}
			}
		}
		if e.cov[v] < e.demand(v) {
			e.markDirty(v)
		}
	}
	return e, nil
}

// N returns the current node count (including dead nodes).
func (e *Engine) N() int { return e.ov.NumNodes() }

// NumEdges returns the current undirected edge count.
func (e *Engine) NumEdges() int { return e.ov.NumEdges() }

// K returns the coverage parameter.
func (e *Engine) K() int { return e.k }

// Size returns |S|, the live member count.
func (e *Engine) Size() int { return e.size }

// DeadCount returns the number of currently dead nodes.
func (e *Engine) DeadCount() int { return e.deadCount }

// Drift returns the overlay's current distance from its base CSR.
func (e *Engine) Drift() int { return e.ov.DriftEdges() + e.ov.AddedNodes() }

// driftLimit is the bound beyond which Apply flags DriftExceeded.
func (e *Engine) driftLimit() int {
	lim := int(e.opts.DriftFraction * float64(e.ov.Base().NumEdges()))
	if lim < e.opts.MinDriftEdges {
		lim = e.opts.MinDriftEdges
	}
	return lim
}

// InSet returns a copy of the member mask.
func (e *Engine) InSet() []bool { return append([]bool(nil), e.inSet...) }

// IsDead reports whether v is currently dead.
func (e *Engine) IsDead(v graph.NodeID) bool { return e.dead[v] }

// Members returns the member IDs, ascending.
func (e *Engine) Members() []graph.NodeID {
	out := make([]graph.NodeID, 0, e.size)
	for v, in := range e.inSet {
		if in {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// Compact folds the current topology into a fresh CSR (same node IDs) and
// returns it. The engine keeps operating on a clean overlay over the new
// base; coverage state is untouched.
func (e *Engine) Compact() *graph.Graph {
	g := e.ov.Compact()
	e.ov = graph.NewOverlay(g)
	return g
}

// LiveSubgraph compacts the current topology restricted to live nodes and
// returns it with the live-to-engine ID mapping — the instance a
// certified full re-solve runs on during fallback.
func (e *Engine) LiveSubgraph() (*graph.Graph, []graph.NodeID) {
	full := e.ov.Compact()
	keep := make([]graph.NodeID, 0, full.NumNodes()-e.deadCount)
	for v := 0; v < full.NumNodes(); v++ {
		if !e.dead[v] {
			keep = append(keep, graph.NodeID(v))
		}
	}
	return full.Subgraph(keep)
}

// SetMask adopts an externally computed mask (typically a fresh solve on
// LiveSubgraph mapped back to engine IDs), rebuilds coverage state, and
// returns the member diff against the previous mask. Dead nodes must not
// be members. The engine also compacts its overlay: a fallback re-solve
// is the moment the drifted topology becomes the new base.
func (e *Engine) SetMask(mask []bool) (entered, left []graph.NodeID, err error) {
	n := e.ov.NumNodes()
	if len(mask) != n {
		return nil, nil, fmt.Errorf("maintain: mask has %d entries for %d nodes", len(mask), n)
	}
	for v := 0; v < n; v++ {
		if mask[v] && e.dead[v] {
			return nil, nil, fmt.Errorf("maintain: dead node %d in adopted mask", v)
		}
	}
	// Verify coverage of every live node against the candidate mask before
	// touching any state, so a bad mask leaves the engine intact.
	newCov := make([]int32, n)
	for v := 0; v < n; v++ {
		if e.dead[v] {
			continue
		}
		if mask[v] {
			newCov[v]++
		}
		e.ov.ForNeighbors(graph.NodeID(v), func(w graph.NodeID) {
			if !e.dead[w] && mask[w] {
				newCov[v]++
			}
		})
		if newCov[v] < e.demand(v) {
			return nil, nil, fmt.Errorf("maintain: adopted mask does not %d-cover node %d", e.k, v)
		}
	}
	for v := 0; v < n; v++ {
		if mask[v] && !e.inSet[v] {
			entered = append(entered, graph.NodeID(v))
		}
		if !mask[v] && e.inSet[v] {
			left = append(left, graph.NodeID(v))
		}
	}
	e.Compact()
	e.size = 0
	for v := 0; v < n; v++ {
		e.inSet[v] = mask[v]
		e.cov[v] = newCov[v]
		if mask[v] {
			e.size++
		}
	}
	e.clearDirty()
	return entered, left, nil
}

func (e *Engine) demand(v int) int32 {
	d := e.liveDeg[v] + 1
	if int32(e.k) < d {
		d = int32(e.k)
	}
	return d
}

func (e *Engine) markDirty(v int) {
	if !e.dirtyMark[v] {
		e.dirtyMark[v] = true
		e.dirty = append(e.dirty, int32(v))
	}
}

func (e *Engine) clearDirty() {
	for _, v := range e.dirty {
		e.dirtyMark[v] = false
	}
	e.dirty = e.dirty[:0]
}

// countTouch stamps v as touched this batch and returns 1 on first touch.
func (e *Engine) countTouch(v int) int {
	if e.touch[v] != e.touchEpoch {
		e.touch[v] = e.touchEpoch
		return 1
	}
	return 0
}

// edgeKey canonicalizes an undirected pair for the validation maps.
type edgeKey struct{ u, v int32 }

func mkEdgeKey(u, v graph.NodeID) edgeKey {
	if u > v {
		u, v = v, u
	}
	return edgeKey{int32(u), int32(v)}
}

// Validate checks a whole batch against the current state without
// mutating anything: op order is respected (an edge may reference a node
// an earlier OpAddNode creates; an OpAddEdge may re-add an edge an
// earlier OpDelEdge removed). A batch either applies in full or not at
// all — Apply must only be called after Validate accepts the batch.
func (e *Engine) Validate(ops []Op) error {
	nSim := e.ov.NumNodes()
	// pending tracks net edge changes simulated so far: +1 added, -1
	// deleted relative to the live overlay.
	pending := make(map[edgeKey]int8)
	exists := func(u, v graph.NodeID) bool {
		if d, ok := pending[mkEdgeKey(u, v)]; ok {
			return d > 0
		}
		return e.ov.HasEdge(u, v)
	}
	for i, op := range ops {
		switch op.Kind {
		case OpFail, OpRevive:
			for _, v := range op.Nodes {
				if v < 0 || int(v) >= nSim {
					return fmt.Errorf("op %d (%s): node %d out of range [0,%d)", i, op.Kind, v, nSim)
				}
			}
		case OpAddEdge:
			u, v := op.U, op.V
			if u == v {
				return fmt.Errorf("op %d (add_edge): self-loop at node %d", i, u)
			}
			if u < 0 || v < 0 || int(u) >= nSim || int(v) >= nSim {
				return fmt.Errorf("op %d (add_edge): edge (%d,%d) out of range [0,%d)", i, u, v, nSim)
			}
			if exists(u, v) {
				return fmt.Errorf("op %d (add_edge): edge (%d,%d) already exists", i, u, v)
			}
			pending[mkEdgeKey(u, v)] = 1
		case OpDelEdge:
			u, v := op.U, op.V
			if u == v || u < 0 || v < 0 || int(u) >= nSim || int(v) >= nSim || !exists(u, v) {
				return fmt.Errorf("op %d (del_edge): no edge (%d,%d)", i, op.U, op.V)
			}
			pending[mkEdgeKey(u, v)] = -1
		case OpAddNode:
			nSim++
		default:
			return fmt.Errorf("op %d: unknown kind %d", i, op.Kind)
		}
	}
	return nil
}

// Apply runs a validated batch: every op mutates topology and liveness
// state incrementally, then one frontier repair restores the coverage
// invariant. The returned Patch is the streamed delta — nodes entering
// and leaving S — plus the damage figures. Callers MUST Validate first;
// Apply panics on ops Validate would reject rather than half-apply them.
func (e *Engine) Apply(ops []Op) Patch {
	e.touchEpoch++
	var p Patch
	for i := range ops {
		e.applyOp(&ops[i], &p)
	}

	// Deficit frontier: dirty live nodes short of coverage, ascending.
	sort.Slice(e.dirty, func(i, j int) bool { return e.dirty[i] < e.dirty[j] })
	frontier := make([]int32, 0, len(e.dirty))
	for _, v := range e.dirty {
		p.Touched += e.countTouch(int(v))
		if !e.dead[v] && e.cov[v] < e.demand(int(v)) {
			frontier = append(frontier, v)
		}
	}
	p.DeficientBefore = len(frontier)
	e.repairFrontier(frontier, &p)
	e.clearDirty()

	sortNodeIDs(p.Entered)
	sortNodeIDs(p.Left)
	if e.Drift() > e.driftLimit() {
		p.DriftExceeded = true
	}
	return p
}

func (e *Engine) applyOp(op *Op, p *Patch) {
	switch op.Kind {
	case OpFail:
		for _, v := range op.Nodes {
			e.failNode(int(v), p)
		}
	case OpRevive:
		for _, v := range op.Nodes {
			e.reviveNode(int(v), p)
		}
	case OpAddEdge:
		if err := e.ov.AddEdge(op.U, op.V); err != nil {
			panic("maintain: Apply on unvalidated batch: " + err.Error())
		}
		u, v := int(op.U), int(op.V)
		p.Touched += e.countTouch(u) + e.countTouch(v)
		if !e.dead[u] && !e.dead[v] {
			e.liveDeg[u]++
			e.liveDeg[v]++
			if e.inSet[u] {
				e.cov[v]++
			}
			if e.inSet[v] {
				e.cov[u]++
			}
			// A higher live degree can raise capped demand: both
			// endpoints may now be deficient.
			e.markDirty(u)
			e.markDirty(v)
		}
	case OpDelEdge:
		if err := e.ov.DelEdge(op.U, op.V); err != nil {
			panic("maintain: Apply on unvalidated batch: " + err.Error())
		}
		u, v := int(op.U), int(op.V)
		p.Touched += e.countTouch(u) + e.countTouch(v)
		if !e.dead[u] && !e.dead[v] {
			e.liveDeg[u]--
			e.liveDeg[v]--
			if e.inSet[u] {
				e.cov[v]--
			}
			if e.inSet[v] {
				e.cov[u]--
			}
			e.markDirty(u)
			e.markDirty(v)
		}
	case OpAddNode:
		id := e.ov.AddNode()
		e.inSet = append(e.inSet, false)
		e.dead = append(e.dead, false)
		e.liveDeg = append(e.liveDeg, 0)
		e.cov = append(e.cov, 0)
		e.dirtyMark = append(e.dirtyMark, false)
		e.touch = append(e.touch, 0)
		p.AddedNodes = append(p.AddedNodes, id)
		p.Touched += e.countTouch(int(id))
		// An isolated live node demands min(k, 1) = 1 and has coverage 0:
		// the repair will promote it to cover itself.
		e.markDirty(int(id))
	}
}

func (e *Engine) failNode(v int, p *Patch) {
	if e.dead[v] {
		return
	}
	e.dead[v] = true
	e.deadCount++
	p.NewlyDead++
	p.Touched += e.countTouch(v)
	wasHead := e.inSet[v]
	if wasHead {
		e.inSet[v] = false
		e.size--
		p.LostHeads++
		p.Left = append(p.Left, graph.NodeID(v))
	}
	e.ov.ForNeighbors(graph.NodeID(v), func(w graph.NodeID) {
		if e.dead[w] {
			return
		}
		e.liveDeg[w]--
		if wasHead {
			e.cov[w]--
		}
		e.markDirty(int(w))
		p.Touched += e.countTouch(int(w))
	})
}

func (e *Engine) reviveNode(v int, p *Patch) {
	if !e.dead[v] {
		return
	}
	e.dead[v] = false
	e.deadCount--
	p.Revived++
	p.Touched += e.countTouch(v)
	// Rebuild v's own live view and bump neighbors' live degree (their
	// capped demand may rise, so they join the frontier).
	deg, cov := int32(0), int32(0)
	e.ov.ForNeighbors(graph.NodeID(v), func(w graph.NodeID) {
		if e.dead[w] {
			return
		}
		deg++
		if e.inSet[w] {
			cov++
		}
		e.liveDeg[w]++
		e.markDirty(int(w))
		p.Touched += e.countTouch(int(w))
	})
	e.liveDeg[v] = deg
	e.cov[v] = cov // v re-enters as a non-member
	e.markDirty(v)
}

// repairFrontier runs the promotion pass over the deficit frontier in
// ascending ID order: each deficient node promotes its lowest-ID live
// non-member closed neighbors to close its own gap, and every promotion's
// coverage lands before the next node computes its need, so neighbors
// sharing a gap never promote for it twice. Coverage never decreases and
// demand is fixed, so a node stays satisfied once its turn has passed,
// and its live closed neighborhood (at least demand nodes) always holds
// enough candidates: one pass leaves no deficit.
func (e *Engine) repairFrontier(frontier []int32, p *Patch) {
	if len(frontier) > 0 {
		p.Iterations = 1
	}
	for _, vv := range frontier {
		v := int(vv)
		need := e.demand(v) - e.cov[v]
		if need <= 0 {
			continue // covered by an earlier node's promotions
		}
		e.forClosedLive(v, func(u int) {
			if need <= 0 || e.inSet[u] {
				return
			}
			need--
			e.inSet[u] = true
			e.size++
			p.Entered = append(p.Entered, graph.NodeID(u))
			p.Touched += e.countTouch(u)
			e.cov[u]++
			e.ov.ForNeighbors(graph.NodeID(u), func(w graph.NodeID) {
				if !e.dead[w] {
					e.cov[w]++
					p.Touched += e.countTouch(int(w))
				}
			})
		})
	}
}

// forClosedLive visits the live members of v's closed neighborhood in
// ascending ID order, on the overlay topology.
func (e *Engine) forClosedLive(v int, fn func(u int)) {
	visitedSelf := false
	self := func() {
		if !e.dead[v] {
			fn(v)
		}
	}
	e.ov.ForNeighbors(graph.NodeID(v), func(w graph.NodeID) {
		if !visitedSelf && int(w) > v {
			self()
			visitedSelf = true
		}
		if !e.dead[w] {
			fn(int(w))
		}
	})
	if !visitedSelf {
		self()
	}
}

func sortNodeIDs(s []graph.NodeID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
