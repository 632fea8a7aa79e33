// Package core implements the paper's contribution for general graphs
// (Section 4): Algorithm 1, the distributed LP approximation computing a
// fractional k-fold dominating set together with a dual certificate, and
// Algorithm 2, the distributed randomized rounding scheme converting the
// fractional solution into an integral k-fold dominating set.
//
// Every algorithm exists in two semantically identical forms: a pure
// in-memory engine (this file and rounding.go) that emulates the global
// synchronous execution and is convenient for large experiments, and a
// sim.Program (program.go) that runs on the message-passing simulator with
// bit-level message accounting. Tests assert the two produce identical
// results for identical seeds.
//
// The in-memory engine stores all per-node state in flat contiguous
// arrays over a shared closed-neighborhood CSR layout (layout.go) and can
// distribute each per-round sweep over a work-claiming pool
// (FractionalOptions.Workers; par.Pool). Every sweep touches only the
// state of the node it iterates, so results are bit-identical to the
// sequential execution whatever the worker count or chunk interleaving.
package core

import (
	"context"
	"fmt"
	"math"
	"sort"

	"ftclust/internal/graph"
	"ftclust/internal/par"
)

// FractionalOptions configure Algorithm 1.
type FractionalOptions struct {
	// T is the trade-off parameter t ≥ 1: time O(t²), approximation
	// O(t·Δ^{2/t}·…).
	T int
	// Ctx, when non-nil, is checked between inner iterations (i.e. every
	// two communication rounds); a done context aborts the solve with a
	// wrapped ErrCanceled.
	Ctx context.Context
	// LocalDelta, when true, replaces the globally known maximum degree Δ
	// with each node's maximum degree within two hops (the relaxation the
	// paper's final remark points to via [16, 11]).
	LocalDelta bool
	// Workers distributes the per-round sweeps over this many goroutines.
	// Values ≤ 1 run sequentially. Results are bit-identical for every
	// worker count and equal seeds.
	Workers int
	// Scratch, when non-nil, supplies every working array from a reusable
	// arena: repeated solves on same-shape graphs allocate nothing in
	// steady state. The returned X/Y/Z vectors then alias the arena and
	// are overwritten by the next solve using it; see Scratch.
	Scratch *Scratch

	// pool, when non-nil, is a started work-claiming pool owned by the
	// caller (Solve shares one across both phases); nil with Workers > 1
	// makes the phase start its own.
	pool *par.Pool
}

// FractionalResult carries the primal solution, the dual certificate, and
// enough metadata to check every claim of Section 4.1.
type FractionalResult struct {
	// X is the fractional primal solution of (PP), per node.
	X []float64
	// Y and Z form the dual solution of (DP) built by Algorithm 1; it is
	// feasible up to the factor Kappa (Lemma 4.4).
	Y, Z []float64
	// BetaSum is Σ_i Σ_{j∈N_i} β_{i,j}; Lemma 4.3 states it equals the
	// dual objective Σ (k_i·y_i − z_i).
	BetaSum float64
	// Kappa is t·(Δ+1)^{1/t}, the dual infeasibility factor of Lemma 4.4,
	// always computed from the global Δ — even under LocalDelta. This is
	// sound because Lemma 4.4 bounds each dual constraint Σ_{i∈N_j} y_i
	// per outer phase p: the neighbors of j covered while threshold level
	// p was active contribute y_i = 1/(Δ_i+1)^{p/t} against β-mass
	// accrued at the same per-node rate, and the overshoot of the last
	// x-increase before c_i reaches k_i is at most a factor
	// (Δ_i+1)^{1/t}. Each local Δ_i is a maximum over a 2-hop ball, so
	// Δ_i ≤ Δ and (Δ_i+1)^{1/t} ≤ (Δ+1)^{1/t}; summing over the t phases
	// gives a per-constraint violation of at most t·(Δ+1)^{1/t} = κ. The
	// claims test TestClaimLocalDeltaDualCertificate asserts this bound
	// empirically with LocalDelta enabled.
	Kappa float64
	// Delta is the maximum degree used (global Δ unless LocalDelta).
	Delta int
	// T echoes the trade-off parameter.
	T int
	// LoopRounds is the communication-round count of the double loop,
	// exactly 2t² (each inner iteration costs two rounds).
	LoopRounds int
}

// Objective returns Σ x_i.
func (r FractionalResult) Objective() float64 {
	s := 0.0
	for _, v := range r.X {
		s += v
	}
	return s
}

// DualObjective returns Σ (k_i·y_i − z_i) for the given demands.
func (r FractionalResult) DualObjective(k []float64) float64 {
	s := 0.0
	for i := range r.Y {
		s += k[i]*r.Y[i] - r.Z[i]
	}
	return s
}

// TheoreticalRatio returns Theorem 4.5's bound t((Δ+1)^{2/t} + (Δ+1)^{1/t})
// on Σx/OPT_f.
func TheoreticalRatio(t, delta int) float64 {
	d := float64(delta + 1)
	tf := float64(t)
	return tf * (math.Pow(d, 2/tf) + math.Pow(d, 1/tf))
}

// LowerBoundRatio returns the Ω(Δ^{1/t}/t) distributed-approximation lower
// bound of [13] for algorithms running in O(t) rounds (constants omitted).
func LowerBoundRatio(t, delta int) float64 {
	return math.Pow(float64(delta), 1/float64(t)) / float64(t)
}

// SolveFractional runs Algorithm 1 on g with per-node demands k (capped at
// closed-neighborhood size, mirroring (PP)'s feasibility requirement) and
// returns the fractional solution with its dual certificate. The execution
// is an exact, deterministic emulation of the synchronous algorithm; the
// sim.Program in program.go reproduces it bit for bit.
func SolveFractional(g *graph.Graph, k []float64, opts FractionalOptions) (FractionalResult, error) {
	return solveFractionalWithLayout(g, layoutFor(g, opts.Scratch), k, opts)
}

// solveFractionalWithLayout is SolveFractional on a precomputed layout, so
// Solve can share one layout between the fractional and rounding phases.
func solveFractionalWithLayout(g *graph.Graph, lay *layout, k []float64, opts FractionalOptions) (FractionalResult, error) {
	t := opts.T
	if t < 1 {
		return FractionalResult{}, fmt.Errorf("core: t must be ≥ 1, got %d", t)
	}
	n := g.NumNodes()
	if len(k) != n {
		return FractionalResult{}, fmt.Errorf("core: k has %d entries for %d nodes", len(k), n)
	}

	globalDelta := g.MaxDegree()
	var deltas []int // per-node Δ the node believes in; nil = global
	if opts.LocalDelta {
		deltas = g.MaxDegreeWithinHops(2)
	}

	pool := opts.pool
	if pool == nil && opts.Workers > 1 {
		pool = poolFor(opts.Scratch)
		pool.Start(opts.Workers)
		defer pool.Stop()
	}

	meta := FractionalResult{
		Kappa:      float64(t) * math.Pow(float64(globalDelta+1), 1/float64(t)),
		Delta:      globalDelta,
		T:          t,
		LoopRounds: 2 * t * t,
	}

	st := fracStateFor(opts.Scratch)
	st.prepare(lay, k, deltas, globalDelta, t, pool)
	for p := t - 1; p >= 0; p-- {
		for q := t - 1; q >= 0; q-- {
			if err := checkCtx(opts.Ctx); err != nil {
				return FractionalResult{}, err
			}
			st.innerIteration(p, q)
		}
	}
	st.finishDuals()
	meta.X, meta.Y, meta.Z = st.x, st.y, st.z
	meta.BetaSum = st.betaSum()
	return meta, nil
}

// fracState is the global emulation of Algorithm 1's per-node state. All
// per-neighborhood quantities live in flat arrays aligned with the shared
// CSR layout: alpha[s], beta[s] hold α_{j,v}, β_{j,v} where v is the node
// owning slot s and j = lay.adj[s] — the share of neighbor j's x-increase
// attributed to covering v.
type fracState struct {
	lay    *layout
	mir    []int32 // mirror slots for finishDuals
	n      int
	t      int
	k      []float64 // effective demands (capped)
	x      []float64
	xPlus  []float64
	dyn    []int32 // dynamic degrees δ̃_i (white nodes in closed neighborhood)
	white  []bool
	turned []bool // scratch: nodes whose color flipped this iteration
	c      []float64
	y, z   []float64
	// Threshold tables (Δ_v+1)^{p/t} and their reciprocals. With a global
	// Δ every node shares one t-entry table (perNode=false); under
	// LocalDelta the tables are per-node, flattened as thresh[v*t+p].
	thresh  []float64
	inc     []float64
	perNode bool
	alpha   []float64
	beta    []float64

	// Parallel execution. pool is non-nil iff this solve runs with
	// workers > 1. The sweep bodies are bound ONCE (cached across solves
	// by the arena) and parameterized through the p/q fields, so a pooled
	// sweep dispatch allocates nothing — binding a fresh closure or
	// method value per par call was the dominant share of the old
	// parallel path's 209 allocs/op.
	pool       *par.Pool
	p, q       int
	nodeDeltas []int // transient: deltas slice during a pooled table fill
	roundAFn   func(worker, lo, hi int)
	roundBFn   func(worker, lo, hi int)
	finishFn   func(worker, lo, hi int)
}

// prepare initializes the emulation state for one solve. On an
// arena-embedded state it reuses every array capacity (slots are either
// zeroed or overwritten below), so repeated solves allocate nothing.
func (st *fracState) prepare(lay *layout, k []float64, deltas []int, globalDelta, t int, pool *par.Pool) {
	n := lay.n
	st.lay, st.n, st.t, st.pool = lay, n, t, pool
	st.mir = lay.mirrorInto(st.mir)
	st.k = growNoClear(st.k, n)
	st.x = growZero(st.x, n)
	st.xPlus = growZero(st.xPlus, n)
	st.dyn = growNoClear(st.dyn, n)
	st.white = growNoClear(st.white, n)
	st.turned = growZero(st.turned, n)
	st.c = growZero(st.c, n)
	st.y = growZero(st.y, n)
	st.z = growZero(st.z, n)
	st.alpha = growZero(st.alpha, len(lay.adj))
	st.beta = growZero(st.beta, len(lay.adj))
	if pool != nil && st.roundAFn == nil {
		st.roundAFn = func(_, lo, hi int) { st.roundA(lo, hi, st.p, st.q) }
		st.roundBFn = func(_, lo, hi int) { st.roundB(lo, hi, st.p) }
		st.finishFn = func(_, lo, hi int) { st.finishRange(lo, hi) }
	}
	if deltas == nil {
		st.perNode = false
		st.thresh = growNoClear(st.thresh, t)
		st.inc = growNoClear(st.inc, t)
		fillPowTables(st.thresh, st.inc, globalDelta, t)
	} else {
		st.perNode = true
		st.thresh = growNoClear(st.thresh, n*t)
		st.inc = growNoClear(st.inc, n*t)
		if pool != nil {
			st.nodeDeltas = deltas
			st.pool.Run(n, st.tablesFor)
			st.nodeDeltas = nil
		} else {
			st.fillNodeTables(deltas, 0, n)
		}
	}
	for v := 0; v < n; v++ {
		size := lay.size(v)
		st.k[v] = math.Min(k[v], float64(size))
		st.white[v] = true
		st.dyn[v] = int32(size)
	}
}

// fillPowTables fills dst[e] = (δ+1)^{e/t} and rec[e] = its reciprocal.
func fillPowTables(dst, rec []float64, delta, t int) {
	d1 := float64(delta + 1)
	for e := 0; e < t; e++ {
		th := math.Pow(d1, float64(e)/float64(t))
		dst[e] = th
		rec[e] = 1 / th
	}
}

// fillNodeTables fills the per-node threshold tables for nodes [lo, hi).
func (st *fracState) fillNodeTables(deltas []int, lo, hi int) {
	t := st.t
	for v := lo; v < hi; v++ {
		fillPowTables(st.thresh[v*t:(v+1)*t], st.inc[v*t:(v+1)*t], deltas[v], t)
	}
}

// tablesFor is the pooled form of fillNodeTables: the deltas slice rides
// in nodeDeltas for the duration of the dispatch (a method, not a
// closure, so the init sweep allocates nothing).
func (st *fracState) tablesFor(_, lo, hi int) {
	st.fillNodeTables(st.nodeDeltas, lo, hi)
}

// threshAt returns (Δ_v+1)^{e/t}; incAt its reciprocal.
func (st *fracState) threshAt(v, e int) float64 {
	if st.perNode {
		return st.thresh[v*st.t+e]
	}
	return st.thresh[e]
}

func (st *fracState) incAt(v, e int) float64 {
	if st.perNode {
		return st.inc[v*st.t+e]
	}
	return st.inc[e]
}

// innerIteration performs one (p, q) iteration for every node — two
// communication rounds in the distributed execution. Rounds A and B touch
// only per-node state and parallelize; the dynamic-degree maintenance is
// incremental (each node turning black decrements its closed neighbors'
// counters once, O(Δ) amortized per color flip), replacing the original
// full O(n·Δ) neighborhood rescan per iteration.
func (st *fracState) innerIteration(p, q int) {
	if st.pool != nil {
		// The bound sweep bodies read p/q through the state; the pool's
		// signal send orders these writes before any worker runs.
		st.p, st.q = p, q
		st.pool.Run(st.n, st.roundAFn)
		st.pool.Run(st.n, st.roundBFn)
	} else {
		st.roundA(0, st.n, p, q)
		st.roundB(0, st.n, p)
	}
	// Round B part 2: maintain dynamic degrees (Line 24) incrementally.
	// Sequential on purpose: total cost over the whole run is one O(Δ)
	// decrement sweep per node, which is dwarfed by Round B part 1.
	for v := 0; v < st.n; v++ {
		if !st.turned[v] {
			continue
		}
		st.turned[v] = false
		for _, w := range st.lay.closed(v) {
			st.dyn[w]--
		}
	}
}

// roundA raises x-values (Lines 5–8) for nodes in [lo, hi).
func (st *fracState) roundA(lo, hi, p, q int) {
	for v := lo; v < hi; v++ {
		st.xPlus[v] = 0
		if st.x[v] < 1 && float64(st.dyn[v]) >= st.threshAt(v, p) {
			xp := min(st.incAt(v, q), 1-st.x[v])
			st.xPlus[v] = xp
			st.x[v] += xp
		}
	}
}

// roundB is Round B part 1: white nodes in [lo, hi) account coverage and
// duals (Lines 10–21).
func (st *fracState) roundB(lo, hi, p int) {
	for v := lo; v < hi; v++ {
		if !st.white[v] {
			continue
		}
		closed := st.lay.closed(v)
		cPlus := 0.0
		for _, w := range closed {
			cPlus += st.xPlus[w]
		}
		lambda := 1.0
		if cPlus > 0 {
			lambda = min(1, (st.k[v]-st.c[v])/cPlus)
		}
		st.c[v] += cPlus
		base := int(st.lay.off[v])
		// Division (not a precomputed reciprocal) to stay bit-identical
		// with the sim.Program's per-node arithmetic.
		th := st.threshAt(v, p)
		for s, w := range closed {
			st.beta[base+s] += lambda * st.xPlus[w] / th
			st.alpha[base+s] += lambda * st.xPlus[w]
		}
		if st.c[v] >= st.k[v] {
			st.white[v] = false
			st.turned[v] = true
			st.y[v] = 1 / th
		}
	}
}

// finishDuals computes z_i = Σ_{j∈N_i} (α_{i,j}·y_j − β_{i,j}) (Line 27).
// α_{i,j} and β_{i,j} are stored at node j (the covered side), so the
// distributed execution needs one extra exchange round here; the engine
// reads them through the precomputed mirror slots.
func (st *fracState) finishDuals() {
	if st.pool != nil {
		st.pool.Run(st.n, st.finishFn)
	} else {
		st.finishRange(0, st.n)
	}
}

func (st *fracState) finishRange(lo, hi int) {
	for v := lo; v < hi; v++ {
		sum := 0.0
		for s := st.lay.off[v]; s < st.lay.off[v+1]; s++ {
			w := st.lay.adj[s]
			m := st.mir[s]
			sum += st.alpha[m]*st.y[w] - st.beta[m]
		}
		st.z[v] = sum
	}
}

// betaSum returns Σ β over every slot, summed sequentially so the order
// (and therefore the result) is deterministic.
func (st *fracState) betaSum() float64 {
	total := 0.0
	for _, b := range st.beta {
		total += b
	}
	return total
}

// ClosedNeighborhood returns N_v = {v} ∪ neighbors(v) in ascending ID
// order, the paper's N_i. The solvers use the shared flat layout instead;
// this helper remains for one-off queries and tests.
func ClosedNeighborhood(g *graph.Graph, v graph.NodeID) []graph.NodeID {
	ns := g.Neighbors(v)
	out := make([]graph.NodeID, 0, len(ns)+1)
	out = append(out, ns...)
	out = append(out, v)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// EffectiveDemands returns the demand vector k_i = min(k, |N_i|) used
// throughout (the paper's feasibility requirement).
func EffectiveDemands(g *graph.Graph, k float64) []float64 {
	n := g.NumNodes()
	out := make([]float64, n)
	for v := 0; v < n; v++ {
		out[v] = math.Min(k, float64(g.Degree(graph.NodeID(v))+1))
	}
	return out
}
