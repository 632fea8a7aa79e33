package ftclust

// Application-layer API: the network-lifecycle services built around the
// clustering core — neighborhood discovery (bootstrap), TDMA scheduling,
// backbone routing, and incremental repair under churn.

import (
	"fmt"

	"ftclust/internal/graph"
	"ftclust/internal/maintain"
	"ftclust/internal/radio"
	"ftclust/internal/routing"
	"ftclust/internal/tdma"
	"ftclust/internal/verify"
)

// DiscoveryResult reports a slotted-ALOHA neighbor-discovery run.
type DiscoveryResult struct {
	// Graph is the communication graph assembled from the mutually
	// discovered neighbor relations.
	Graph *Graph
	// Slots is the number of slots until every node knew all neighbors,
	// or -1 if the budget elapsed first (Graph then contains the partial
	// knowledge).
	Slots int
	// Complete reports whether discovery finished within the budget.
	Complete bool
}

// DiscoverNeighbors simulates the slotted-ALOHA initialization phase of a
// freshly deployed network (no neighbor knowledge, collision channel) on
// the true unit disk graph of pts and returns the discovered communication
// graph. With default options every node transmits with probability
// 1/(Δ+1) per slot.
func DiscoverNeighbors(pts []Point, seed int64) (*DiscoveryResult, error) {
	truth := UnitDiskGraph(pts)
	res, err := radio.Discover(truth, radio.Options{Seed: seed})
	if err != nil {
		return nil, err
	}
	// Keep an edge when both endpoints heard each other (bidirectional
	// links only, matching the Section 3 model).
	b := graph.NewBuilder(truth.NumNodes())
	truth.Edges(func(u, v NodeID) {
		if res.Discovered[u][v] && res.Discovered[v][u] {
			b.TryAddEdge(u, v)
		}
	})
	return &DiscoveryResult{
		Graph:    b.Build(),
		Slots:    res.SlotsToComplete,
		Complete: res.SlotsToComplete >= 0,
	}, nil
}

// TDMASchedule is the two-level frame produced by BuildTDMA.
type TDMASchedule struct {
	// HeadSlot[v] is head v's control slot (-1 for non-heads).
	HeadSlot []int
	// MemberSlot[v] is node v's intra-cluster data slot (-1 for heads).
	MemberSlot []int
	// Head[v] is the head node v is affiliated with.
	Head []NodeID
	// FrameLength is the total slots per frame.
	FrameLength int
}

// BuildTDMA derives a collision-free two-level TDMA frame from a
// clustering solution: distance-2-colored control slots for heads,
// per-cluster data slots for members.
func BuildTDMA(g *Graph, sol *Solution) (*TDMASchedule, error) {
	s, err := tdma.Build(g, sol.InSet)
	if err != nil {
		return nil, err
	}
	if err := tdma.Validate(g, sol.InSet, s); err != nil {
		return nil, fmt.Errorf("ftclust: internal error: %w", err)
	}
	return &TDMASchedule{
		HeadSlot:    s.HeadSlot,
		MemberSlot:  s.MemberSlot,
		Head:        s.Head,
		FrameLength: s.FrameLength(),
	}, nil
}

// RepairAfterFailures restores k-fold domination after the nodes in dead
// fail, promoting only where coverage is deficient. It returns the
// repaired solution and the number of newly promoted nodes.
func RepairAfterFailures(g *Graph, sol *Solution, dead []NodeID, k int) (*Solution, int, error) {
	dm := make(map[NodeID]bool, len(dead))
	for _, v := range dead {
		dm[v] = true
	}
	res, err := maintain.Repair(g, sol.InSet, dm, k)
	if err != nil {
		return nil, 0, err
	}
	return &Solution{
		InSet:     res.InSet,
		Members:   verify.SetFromMask(res.InSet),
		Rounds:    res.Iterations,
		Algorithm: sol.Algorithm + " + repair",
	}, res.Promoted, nil
}

// ChurnOpKind selects the kind of a ChurnOp.
type ChurnOpKind int

// Churn operation kinds, value-identical to the engine's so conversion is
// a cast.
const (
	ChurnFail    = ChurnOpKind(maintain.OpFail)
	ChurnRevive  = ChurnOpKind(maintain.OpRevive)
	ChurnAddEdge = ChurnOpKind(maintain.OpAddEdge)
	ChurnDelEdge = ChurnOpKind(maintain.OpDelEdge)
	ChurnAddNode = ChurnOpKind(maintain.OpAddNode)
)

// ChurnOp is one operation in a churn batch. Build ops with the
// constructors (FailOp, ReviveOp, AddEdgeOp, DelEdgeOp, AddNodeOp).
type ChurnOp struct {
	Kind  ChurnOpKind
	Nodes []NodeID // fail / revive
	U, V  NodeID   // add_edge / del_edge
}

// FailOp marks the given nodes dead (idempotent for already-dead nodes).
func FailOp(nodes ...NodeID) ChurnOp { return ChurnOp{Kind: ChurnFail, Nodes: nodes} }

// ReviveOp brings nodes back as live non-members.
func ReviveOp(nodes ...NodeID) ChurnOp { return ChurnOp{Kind: ChurnRevive, Nodes: nodes} }

// AddEdgeOp inserts the undirected edge {u, v}.
func AddEdgeOp(u, v NodeID) ChurnOp { return ChurnOp{Kind: ChurnAddEdge, U: u, V: v} }

// DelEdgeOp removes the undirected edge {u, v}.
func DelEdgeOp(u, v NodeID) ChurnOp { return ChurnOp{Kind: ChurnDelEdge, U: u, V: v} }

// AddNodeOp appends a fresh isolated live node.
func AddNodeOp() ChurnOp { return ChurnOp{Kind: ChurnAddNode} }

// ChurnPatch reports what one Apply call changed: the membership diff, the
// repair effort, and whether accumulated topology drift crossed the bound
// (a hint to call Resolve for a certified full re-solve).
type ChurnPatch struct {
	// Entered and Left are the nodes that joined and departed the
	// dominating set, ascending.
	Entered, Left []NodeID
	// AddedNodes are the IDs assigned to AddNodeOp ops, in op order.
	AddedNodes []NodeID
	// Iterations is the number of promotion passes the repair ran: 1 when
	// the batch left a deficit, else 0.
	Iterations int
	// Touched counts distinct nodes the repair inspected — the damage
	// proportionality measure (scales with the dirty region, not n).
	Touched int
	// LostHeads, NewlyDead and Revived count membership and liveness
	// transitions caused by the batch itself.
	LostHeads, NewlyDead, Revived int
	// DeficientBefore is how many live nodes were under-covered after the
	// batch mutations, before repair.
	DeficientBefore int
	// DriftExceeded reports that overlay drift passed the engine's bound;
	// repairs stay correct, but Resolve will recover full solve quality.
	DriftExceeded bool
}

// ChurnEngine maintains a k-fold dominating set under node failures,
// revivals and topology changes with damage-proportional incremental
// repairs — the long-lived form of RepairAfterFailures. Batches are
// transactional: Apply validates every op against current state first and
// rejects the whole batch without mutating anything if any op is invalid.
// Between batches every live node keeps min(k, liveDeg+1) live dominators
// in its closed neighborhood, so the maintained set is always feasible.
//
// ChurnEngine is not safe for concurrent use; guard it with a mutex when
// sharing (the service layer does exactly that per session).
type ChurnEngine struct {
	eng *maintain.Engine
}

// NewChurnEngine starts maintaining sol (a feasible k-fold dominating set
// on g, e.g. from SolveKMDS) under churn. The graph is copied into the
// engine's overlay; later changes to g are not observed.
func NewChurnEngine(g *Graph, sol *Solution, k int) (*ChurnEngine, error) {
	eng, err := maintain.NewEngine(g, sol.InSet, k, maintain.Options{})
	if err != nil {
		return nil, err
	}
	return &ChurnEngine{eng: eng}, nil
}

// Apply validates the whole batch and then applies it, repairing coverage
// incrementally. On error nothing was changed.
func (e *ChurnEngine) Apply(ops ...ChurnOp) (*ChurnPatch, error) {
	mops := make([]maintain.Op, len(ops))
	for i, op := range ops {
		mops[i] = maintain.Op{
			Kind:  maintain.OpKind(op.Kind),
			Nodes: op.Nodes,
			U:     op.U,
			V:     op.V,
		}
	}
	if err := e.eng.Validate(mops); err != nil {
		return nil, err
	}
	p := e.eng.Apply(mops)
	return &ChurnPatch{
		Entered:         p.Entered,
		Left:            p.Left,
		AddedNodes:      p.AddedNodes,
		Iterations:      p.Iterations,
		Touched:         p.Touched,
		LostHeads:       p.LostHeads,
		NewlyDead:       p.NewlyDead,
		Revived:         p.Revived,
		DeficientBefore: p.DeficientBefore,
		DriftExceeded:   p.DriftExceeded,
	}, nil
}

// Solution snapshots the maintained dominating set.
func (e *ChurnEngine) Solution() *Solution {
	mask := e.eng.InSet()
	return &Solution{
		InSet:     mask,
		Members:   verify.SetFromMask(mask),
		Algorithm: "churn-engine",
	}
}

// N returns the current node count (grows with AddNodeOp).
func (e *ChurnEngine) N() int { return e.eng.N() }

// Size returns the current dominating-set size.
func (e *ChurnEngine) Size() int { return e.eng.Size() }

// DeadCount returns how many nodes are currently dead.
func (e *ChurnEngine) DeadCount() int { return e.eng.DeadCount() }

// IsDead reports node v's liveness.
func (e *ChurnEngine) IsDead(v NodeID) bool { return e.eng.IsDead(v) }

// Drift returns the accumulated topology drift (edge changes plus added
// nodes) since the engine last compacted its overlay.
func (e *ChurnEngine) Drift() int { return e.eng.Drift() }

// Resolve runs the full deterministic solver on the live subgraph,
// verifies the result, and adopts it — the recovery path after a patch
// reported DriftExceeded, trading one full solve for a compact overlay and
// an incrementally-repaired set replaced by a freshly optimized one. The
// incremental state stays valid if Resolve errors.
func (e *ChurnEngine) Resolve(opts ...Option) (*Solution, error) {
	sub, ids := e.eng.LiveSubgraph()
	if sub.NumNodes() == 0 {
		// All nodes dead: the empty set is vacuously feasible.
		if _, _, err := e.eng.SetMask(make([]bool, e.eng.N())); err != nil {
			return nil, err
		}
		return e.Solution(), nil
	}
	sol, err := SolveKMDS(sub, e.eng.K(), opts...)
	if err != nil {
		return nil, err
	}
	if err := Verify(sub, sol, e.eng.K(), ClosedPP); err != nil {
		return nil, fmt.Errorf("ftclust: resolve certification failed: %w", err)
	}
	mask := make([]bool, e.eng.N())
	for _, v := range sol.Members {
		mask[ids[v]] = true
	}
	if _, _, err := e.eng.SetMask(mask); err != nil {
		return nil, err
	}
	return e.Solution(), nil
}

// RouteLength returns the hop count from src to dst when all intermediate
// hops must be members of the (connected) backbone solution; ok is false
// for disconnected pairs. Build the backbone with ConnectBackbone first.
func RouteLength(g *Graph, backbone *Solution, src, dst NodeID) (hops int, ok bool, err error) {
	r, err := routing.New(g, backbone.InSet)
	if err != nil {
		return 0, false, err
	}
	h, ok := r.PathLength(src, dst)
	return h, ok, nil
}
