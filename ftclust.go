// Package ftclust is a library for fault-tolerant clustering in ad hoc and
// sensor networks, reproducing Kuhn, Moscibroda and Wattenhofer,
// "Fault-Tolerant Clustering in Ad Hoc and Sensor Networks" (ICDCS 2006).
//
// A k-fold dominating set of a graph G = (V, E) is a subset S ⊆ V such
// that every node outside S has at least k neighbors in S; it is the
// fault-tolerant generalization of dominating-set clustering: any k-1
// cluster heads may fail and every sensor still has a live head in range.
//
// The package offers the paper's two distributed algorithms behind one
// façade:
//
//   - SolveKMDS runs the general-graph pipeline (Algorithm 1, a
//     distributed LP approximation with a checkable dual certificate,
//     followed by Algorithm 2, distributed randomized rounding). It takes
//     O(t²) communication rounds and guarantees an
//     O(t·Δ^(2/t)·log Δ)-approximation in expectation.
//   - SolveUDGKMDS runs the unit-disk-graph algorithm (Algorithm 3):
//     O(log log n) rounds and an expected O(1)-approximation when nodes
//     are deployed in the plane and can sense distances.
//
// Both use O(log n)-bit messages. The heavy lifting lives in internal
// packages (internal/core, internal/udg, internal/sim, …); this package
// re-exports the types needed to use them and keeps the API small.
package ftclust

import (
	"context"
	"errors"
	"fmt"

	"ftclust/internal/cds"
	"ftclust/internal/core"
	"ftclust/internal/geom"
	"ftclust/internal/graph"
	"ftclust/internal/obs"
	"ftclust/internal/udg"
	"ftclust/internal/verify"
)

// Sentinel errors returned by the solvers' input validation; match them
// with errors.Is. Wrapped variants carry the offending values.
var (
	// ErrBadK reports an out-of-range fault-tolerance parameter: k < 1,
	// or k larger than the number of nodes (no graph can supply more than
	// n dominators, even under the capped-demand convention).
	ErrBadK = errors.New("ftclust: invalid k")
	// ErrEmptyGraph reports a nil graph, a graph with zero nodes, or an
	// empty deployment.
	ErrEmptyGraph = errors.New("ftclust: nil or empty graph")
	// ErrCanceled reports that a solve was abandoned because the context
	// installed with WithContext was canceled or its deadline expired.
	ErrCanceled = core.ErrCanceled
)

// validateInstance applies the common solver preconditions.
func validateInstance(n, k int) error {
	if n == 0 {
		return ErrEmptyGraph
	}
	if k < 1 {
		return fmt.Errorf("%w: k must be ≥ 1, got %d", ErrBadK, k)
	}
	if k > n {
		return fmt.Errorf("%w: k = %d exceeds the node count %d", ErrBadK, k, n)
	}
	return nil
}

// Re-exported aliases so callers outside this module can name the types
// returned by the API without importing internal packages.
type (
	// Graph is a simple undirected graph; see NewGraph and GenerateGraph.
	Graph = graph.Graph
	// NodeID identifies a node (0 … n-1).
	NodeID = graph.NodeID
	// Edge is an undirected edge.
	Edge = graph.Edge
	// Point is a node location in the plane for UDG deployments.
	Point = geom.Point
	// Convention selects the feasibility definition used by Verify.
	Convention = verify.Convention
	// SolveObserver receives per-phase and per-solve callbacks from
	// SolveKMDS; install one with WithObserver. See WithObserver for the
	// cost model and threading contract.
	SolveObserver = obs.SolveObserver
	// SolvePhaseInfo describes one completed solver phase (name, wall
	// time, communication rounds, approximate allocations).
	SolvePhaseInfo = obs.PhaseInfo
	// SolveStats summarizes a finished solve: LP rounds, rounding passes,
	// κ, the certified lower bound and the dual gap.
	SolveStats = obs.SolveStats
)

// Feasibility conventions (see the verify package for exact semantics).
const (
	// Standard is the Section 1 definition: members of S are exempt.
	Standard = verify.Standard
	// ClosedPP is the (PP) convention of Section 4.1: every node needs
	// k coverage in its closed neighborhood. ClosedPP implies Standard.
	ClosedPP = verify.ClosedPP
)

// NewGraph builds a graph with n nodes from an edge list. It returns an
// error for a negative n, a self-loop, an out-of-range endpoint or a
// duplicate edge.
func NewGraph(n int, edges []Edge) (*Graph, error) {
	return graph.FromEdges(n, edges)
}

// GenerateGraph builds a random graph from a named family: "gnp",
// "regular", "grid", "tree", "powerlaw" or "ring"; d is the average-degree
// knob (interpreted per family).
func GenerateGraph(family string, n int, d float64, seed int64) (*Graph, error) {
	return graph.Generate(graph.Family(family), n, d, seed)
}

// UniformDeployment places n sensor nodes uniformly at random in a
// side × side square.
func UniformDeployment(n int, side float64, seed int64) []Point {
	return geom.UniformPoints(n, side, seed)
}

// UnitDiskGraph builds the unit disk graph of a deployment: nodes are
// adjacent iff their distance is at most 1.
func UnitDiskGraph(pts []Point) *Graph {
	g, _ := geom.UnitUDG(pts)
	return g
}

// Solution is the result of a solve call.
type Solution struct {
	// InSet marks the chosen dominators.
	InSet []bool
	// Members lists the chosen dominators in ascending order.
	Members []NodeID
	// Rounds is the number of synchronous communication rounds the
	// distributed algorithm uses for this instance.
	Rounds int
	// FractionalObjective is Σx of Algorithm 1's fractional solution
	// (general graphs only, 0 otherwise).
	FractionalObjective float64
	// CertifiedLowerBound is a proven lower bound on the optimal
	// fractional solution, extracted from Algorithm 1's dual certificate
	// via weak duality. Only the unweighted general-graph pipeline
	// (SolveKMDS) builds a dual certificate; the weighted and UDG solvers
	// leave this 0.
	CertifiedLowerBound float64
	// Kappa is Algorithm 1's dual infeasibility factor t·(Δ+1)^{1/t}
	// (Lemma 4.4), the divisor already applied to CertifiedLowerBound.
	// Like the lower bound it is only set by SolveKMDS.
	Kappa float64
	// Algorithm names the algorithm that produced the solution.
	Algorithm string
}

// Size returns |S|.
func (s *Solution) Size() int { return verify.SetSize(s.InSet) }

// Scratch is a reusable solver arena for SolveKMDS: it preallocates every
// working array of Algorithms 1 and 2 and is refilled in place on each
// solve, so a caller that solves many instances in a loop (a benchmark
// harness, a service worker) allocates nothing in steady state. Create one
// with NewScratch and pass it via WithScratch.
//
// A Scratch is NOT safe for concurrent use — give each worker goroutine
// its own. A scratch-backed Solution's InSet aliases the arena and is
// overwritten by the next solve through the same Scratch; Members is
// always a fresh copy, so keep that (or copy InSet) if the mask must
// outlive the next call.
type Scratch struct {
	s *core.Scratch
}

// NewScratch returns an empty arena; it grows to fit the first instances
// it sees and is reused thereafter.
func NewScratch() *Scratch { return &Scratch{s: core.NewScratch()} }

// config collects options for both solvers.
type config struct {
	t          int
	seed       int64
	localDelta bool
	fanOut     int
	workers    int
	bitset     core.BitsetMode
	ctx        context.Context
	scratch    *Scratch
	observer   *SolveObserver
}

// Option customizes a solve call.
type Option func(*config)

// WithT sets Algorithm 1's trade-off parameter t (default 3): time grows
// as O(t²) while the approximation factor shrinks as O(t·Δ^(2/t)·log Δ).
// Ignored by the UDG solver.
func WithT(t int) Option { return func(c *config) { c.t = t } }

// WithSeed fixes the randomness (default 1); equal seeds give equal
// results.
func WithSeed(seed int64) Option { return func(c *config) { c.seed = seed } }

// WithLocalDelta makes Algorithm 1 use 2-hop-local maximum degrees instead
// of assuming the global maximum degree is known. Ignored by the UDG
// solver.
func WithLocalDelta() Option { return func(c *config) { c.localDelta = true } }

// WithFanOut caps the per-leader promotion fan-out of the UDG algorithm's
// Part II (default k). Ignored by the general-graph solver.
func WithFanOut(f int) Option { return func(c *config) { c.fanOut = f } }

// WithWorkers distributes the in-memory engines' per-round sweeps over w
// goroutines (default 1, sequential); runtime.GOMAXPROCS(0) is the natural
// choice on multicore machines. Results are bit-identical to the
// sequential execution for equal seeds, whatever the worker count.
// Ignored by the UDG solver.
func WithWorkers(w int) Option { return func(c *config) { c.workers = w } }

// BitsetMode selects whether the rounding phase's dense coverage sweeps
// run over packed []uint64 closed-neighborhood rows (AND + popcount)
// instead of the CSR adjacency scan. Results are identical either way —
// the bitset kernels visit candidates in the same ascending order the
// CSR scan does — only the constant factor changes, in the packed
// kernels' favor on dense graphs.
type BitsetMode = core.BitsetMode

// Bitset modes for WithBitset.
const (
	// BitsetAuto (the default) packs rows only when the instance is dense
	// enough for popcount scans to win: average closed neighborhood at
	// least a quarter of the packed row stride, and at most 128 MiB of
	// rows in total.
	BitsetAuto = core.BitsetAuto
	// BitsetOn forces the packed kernels (subject to the memory cap).
	BitsetOn = core.BitsetOn
	// BitsetOff forces the CSR scan.
	BitsetOff = core.BitsetOff
)

// WithBitset overrides the automatic bitset-kernel gating of the
// rounding phase; see BitsetMode. Honored by SolveKMDS and
// SolveWeightedKMDS; ignored by the UDG solver.
func WithBitset(m BitsetMode) Option { return func(c *config) { c.bitset = m } }

// WithScratch makes SolveKMDS draw its working arrays from the reusable
// arena s instead of allocating fresh ones; see Scratch for the aliasing
// and concurrency contract. The solution is bit-identical either way.
// Ignored by the weighted and UDG solvers.
func WithScratch(s *Scratch) Option { return func(c *config) { c.scratch = s } }

// WithContext makes the solve honor ctx: the engines check it between
// communication rounds and abandon the run with an error matching
// ErrCanceled once ctx is done. A live context never changes the result.
// Honored by SolveKMDS and SolveWeightedKMDS; the UDG solver runs in
// O(log log n) rounds and ignores it.
func WithContext(ctx context.Context) Option { return func(c *config) { c.ctx = ctx } }

// WithObserver installs o on the solve: its OnPhase callback fires at
// each phase boundary of the general-graph pipeline (fractional,
// rounding, verify — wall time, communication rounds, approximate
// allocations) and OnDone fires once with the solve summary (LP rounds,
// rounding passes, κ, certified lower bound, dual gap). Callbacks run
// synchronously on the solving goroutine and must not call back into the
// solver. WithObserver(nil) is exactly the un-instrumented solve: no
// clocks are read and nothing is allocated, so the scratch-backed steady
// state keeps its zero-allocation property. Honored by SolveKMDS;
// ignored by the weighted and UDG solvers.
func WithObserver(o *SolveObserver) Option { return func(c *config) { c.observer = o } }

// SolveKMDS computes a k-fold dominating set of g with the general-graph
// pipeline (Algorithms 1 and 2). The result satisfies the ClosedPP
// convention (which implies Standard) with per-node demands capped at
// closed-neighborhood sizes, so it exists for every graph and 1 ≤ k ≤ n.
// Invalid inputs return errors matching ErrEmptyGraph or ErrBadK.
func SolveKMDS(g *Graph, k int, opts ...Option) (*Solution, error) {
	if g == nil {
		return nil, ErrEmptyGraph
	}
	if err := validateInstance(g.NumNodes(), k); err != nil {
		return nil, err
	}
	c := config{t: 3, seed: 1}
	for _, o := range opts {
		o(&c)
	}
	coreOpts := core.Options{
		K:          float64(k),
		T:          c.t,
		Seed:       c.seed,
		LocalDelta: c.localDelta,
		Workers:    c.workers,
		Bitset:     c.bitset,
		Ctx:        c.ctx,
		Observer:   c.observer,
	}
	if c.scratch != nil {
		coreOpts.Scratch = c.scratch.s
	}
	res, err := core.Solve(g, coreOpts)
	if err != nil {
		return nil, err
	}
	return &Solution{
		//ftlint:allow scratchalias Solution.InSet documents the arena-backed aliasing contract; Members below is the durable copy
		InSet:               res.InSet,
		Members:             verify.SetFromMask(res.InSet),
		Rounds:              res.Fractional.LoopRounds + 4,
		FractionalObjective: res.Fractional.Objective(),
		CertifiedLowerBound: res.Fractional.DualObjective(res.K) / res.Fractional.Kappa,
		Kappa:               res.Fractional.Kappa,
		Algorithm:           "general-graph (Alg 1+2)",
	}, nil
}

// SolveUDGKMDS computes a k-fold dominating set of the unit disk graph
// induced by pts using Algorithm 3 (O(log log n) rounds, expected O(1)
// approximation). It returns the solution and the induced graph.
func SolveUDGKMDS(pts []Point, k int, opts ...Option) (*Solution, *Graph, error) {
	if err := validateInstance(len(pts), k); err != nil {
		return nil, nil, err
	}
	c := config{seed: 1}
	for _, o := range opts {
		o(&c)
	}
	g, idx := geom.UnitUDG(pts)
	res, err := udg.Solve(pts, g, idx, udg.Options{K: k, Seed: c.seed, FanOut: c.fanOut})
	if err != nil {
		return nil, nil, err
	}
	return &Solution{
		InSet:     res.Leader,
		Members:   verify.SetFromMask(res.Leader),
		Rounds:    2*res.PartIRounds + 3*res.PartIIIters + 1,
		Algorithm: "unit-disk-graph (Alg 3)",
	}, g, nil
}

// Verify checks that sol is a k-fold dominating set of g under the given
// convention; it returns nil on success and a descriptive error naming the
// first violated node otherwise. Per-node demands are capped at
// closed-neighborhood sizes with the same EffectiveDemands vector the
// solvers optimize against, so a solution a solver reports as feasible
// always verifies — even on graphs with nodes of degree < k, where the
// raw demand k is unsatisfiable.
func Verify(g *Graph, sol *Solution, k int, conv Convention) error {
	return verify.CheckKFoldVector(g, sol.InSet, core.EffectiveDemands(g, float64(k)), conv)
}

// SolveWeightedKMDS computes a k-fold dominating set minimizing total node
// cost (e.g. inverse battery level) with the weighted extension of
// Algorithm 1 the paper sketches in Section 4.1. costs[v] must be positive.
func SolveWeightedKMDS(g *Graph, k int, costs []float64, opts ...Option) (*Solution, error) {
	if g == nil {
		return nil, ErrEmptyGraph
	}
	if err := validateInstance(g.NumNodes(), k); err != nil {
		return nil, err
	}
	c := config{t: 3, seed: 1}
	for _, o := range opts {
		o(&c)
	}
	res, err := core.SolveWeighted(g, core.WeightedOptions{
		K: float64(k), T: c.t, Seed: c.seed, Costs: costs,
		Workers: c.workers, Bitset: c.bitset, Ctx: c.ctx,
	})
	if err != nil {
		return nil, err
	}
	return &Solution{
		//ftlint:allow scratchalias Solution.InSet documents the arena-backed aliasing contract; Members below is the durable copy
		InSet:   res.InSet,
		Members: verify.SetFromMask(res.InSet),
		// Engine-reported double-loop rounds plus the four fixed rounds of
		// the guarantee sweep and rounding, matching SolveKMDS's
		// accounting. CertifiedLowerBound stays 0: the weighted engine
		// builds no dual certificate (see core.SolveWeighted).
		Rounds:              res.LoopRounds + 4,
		FractionalObjective: res.FractionalCost,
		Algorithm:           "weighted general-graph (Alg 1W+2W)",
	}, nil
}

// ConnectBackbone augments a dominating-set solution with bridge nodes so
// the members form a connected routing backbone inside every connected
// component of g (the classical CDS post-processing of the clustering
// literature). It returns a new Solution; the input is not modified.
func ConnectBackbone(g *Graph, sol *Solution) (*Solution, error) {
	res, err := cds.Connect(g, sol.InSet)
	if err != nil {
		return nil, err
	}
	return &Solution{
		InSet:     res.InSet,
		Members:   verify.SetFromMask(res.InSet),
		Rounds:    sol.Rounds,
		Algorithm: sol.Algorithm + " + connect",
	}, nil
}

// IsConnectedBackbone reports whether the solution's members form one
// connected subgraph inside every connected component of g.
func IsConnectedBackbone(g *Graph, sol *Solution) bool {
	return cds.IsConnectedBackbone(g, sol.InSet)
}

// SurvivesFailures reports how coverage degrades when the dominators in
// dead fail: the number of surviving non-member nodes with zero live
// dominators, and the minimum surviving coverage.
func SurvivesFailures(g *Graph, sol *Solution, dead []NodeID) (uncovered, minCoverage int) {
	dm := make(map[NodeID]bool, len(dead))
	for _, v := range dead {
		dm[v] = true
	}
	rep := verify.AfterFailures(g, sol.InSet, dm)
	return rep.UncoveredNodes, rep.MinCoverage
}
