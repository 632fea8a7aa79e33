package core

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"

	"ftclust/internal/graph"
	"ftclust/internal/par"
	"ftclust/internal/rng"
	"ftclust/internal/verify"
)

// Weighted k-MDS. The paper notes (Section 4.1) that Algorithm 1 "can be
// adapted … to also solve the weighted version of the k-MDS problem". This
// file implements that extension:
//
//   - the fractional phase replaces the dynamic-degree threshold
//     δ̃_i ≥ (Δ+1)^{p/t} by a cost-effectiveness threshold
//     δ̃_i/c_i ≥ S_p, where S_p sweeps the possible effectiveness range
//     [1/c_max, (Δ+1)/c_min] geometrically in t steps — the distributed
//     analogue of the weighted greedy's pick-max-gain-per-cost rule [21];
//     the last step degenerates to δ̃_i ≥ c_i/c_max ≤ 1, so feasibility is
//     unconditional, exactly as in the unit-cost algorithm;
//   - the rounding phase keeps the inclusion probability
//     min{1, x_i·ln(Δ+1)} and repairs deficits by recruiting the CHEAPEST
//     available neighbors instead of random ones.
//
// No approximation factor is claimed for the weighted variant (the paper
// only sketches it), and it builds no dual certificate — callers get the
// fractional cost as a reference point, not a certified lower bound.
// Experiment E12 measures its cost against the weighted LP optimum and the
// weighted greedy.
//
// Like the unit-cost engine, the hot sweeps run over the shared flat
// closed-neighborhood layout, maintain dynamic degrees incrementally, and
// optionally fan out over a worker pool with bit-identical results.

// WeightedOptions configure SolveWeighted.
type WeightedOptions struct {
	// K is the fault-tolerance parameter.
	K float64
	// T is the trade-off parameter of the fractional phase.
	T int
	// Seed drives the rounding randomness.
	Seed int64
	// Costs[v] > 0 is node v's cost (e.g. inverse battery level).
	Costs []float64
	// Workers distributes the per-round sweeps over this many goroutines
	// (≤ 1 = sequential); results are bit-identical for equal seeds.
	Workers int
	// Bitset selects packed []uint64 closed-neighborhood rows for the
	// repair sweep's coverage and candidate scans; see BitsetMode.
	// Results are identical in every mode.
	Bitset BitsetMode
	// Ctx, when non-nil, is checked between communication rounds of both
	// phases; a done context aborts with a wrapped ErrCanceled.
	Ctx context.Context
}

// WeightedResult is the outcome of the weighted solver.
type WeightedResult struct {
	// InSet marks the selected dominators.
	InSet []bool
	// X is the weighted fractional solution.
	X []float64
	// FractionalCost is Σ c_i·x_i.
	FractionalCost float64
	// Cost is the total cost of InSet.
	Cost float64
	// K echoes the effective demands.
	K []float64
	// LoopRounds is the communication-round count of the fractional
	// phase's double loop, exactly 2t² — the weighted analogue of
	// FractionalResult.LoopRounds, reported by the engine so callers do
	// not re-derive it from t.
	LoopRounds int
}

// SolveWeighted runs the weighted pipeline on g.
func SolveWeighted(g *graph.Graph, opts WeightedOptions) (WeightedResult, error) {
	n := g.NumNodes()
	if opts.K < 1 {
		return WeightedResult{}, fmt.Errorf("core: k must be ≥ 1, got %v", opts.K)
	}
	if opts.T < 1 {
		return WeightedResult{}, fmt.Errorf("core: t must be ≥ 1, got %d", opts.T)
	}
	if len(opts.Costs) != n {
		return WeightedResult{}, fmt.Errorf("core: %d costs for %d nodes", len(opts.Costs), n)
	}
	cMin, cMax := math.Inf(1), 0.0
	for v, c := range opts.Costs {
		if c <= 0 || math.IsNaN(c) || math.IsInf(c, 0) {
			return WeightedResult{}, fmt.Errorf("core: invalid cost %v at node %d", c, v)
		}
		cMin = math.Min(cMin, c)
		cMax = math.Max(cMax, c)
	}
	if n == 0 {
		return WeightedResult{K: []float64{}, LoopRounds: 2 * opts.T * opts.T}, nil
	}

	k := EffectiveDemands(g, opts.K)
	delta := g.MaxDegree()
	lay := newLayout(g)
	var pool *par.Pool
	if opts.Workers > 1 {
		pool = &par.Pool{}
		pool.Start(opts.Workers)
		defer pool.Stop()
	}
	x, loopRounds, err := weightedFractional(lay, k, opts.Costs, opts.T, delta, cMin, cMax, pool, opts.Ctx)
	if err != nil {
		return WeightedResult{}, err
	}
	inSet, err := weightedRound(lay, k, x, opts.Costs, delta, opts.Seed, opts.Bitset, pool, opts.Ctx)
	if err != nil {
		return WeightedResult{}, err
	}

	res := WeightedResult{InSet: inSet, X: x, K: k, LoopRounds: loopRounds}
	for v := 0; v < n; v++ {
		res.FractionalCost += opts.Costs[v] * x[v]
		if inSet[v] {
			res.Cost += opts.Costs[v]
		}
	}
	if err := verify.CheckKFoldVector(g, inSet, k, verify.ClosedPP); err != nil {
		return res, fmt.Errorf("core: internal error: weighted solution infeasible: %w", err)
	}
	return res, nil
}

// weightedFractional is Algorithm 1 with the cost-effectiveness threshold.
// It returns the fractional solution and the double loop's round count.
func weightedFractional(lay *layout, k, costs []float64, t, delta int, cMin, cMax float64, pool *par.Pool, ctx context.Context) ([]float64, int, error) {
	n := lay.n
	x := make([]float64, n)
	xPlus := make([]float64, n)
	white := make([]bool, n)
	turned := make([]bool, n)
	dyn := make([]int32, n)
	cov := make([]float64, n)
	for v := 0; v < n; v++ {
		white[v] = true
		dyn[v] = int32(lay.size(v))
	}
	d1 := float64(delta + 1)
	// Effectiveness sweep S_p = (1/cMax)·R^{p/t}, R = (Δ+1)·cMax/cMin.
	bigR := d1 * cMax / cMin
	sP := func(p int) float64 {
		return math.Pow(bigR, float64(p)/float64(t)) / cMax
	}
	inc := func(q int) float64 {
		return 1 / math.Pow(d1, float64(q)/float64(t))
	}

	// The sweep bodies are bound once, outside the double loop, and read
	// the per-iteration threshold through captured variables (the pool's
	// signal send orders the writes) — no per-iteration closures.
	var thresholdS, incQ float64
	var raiseFn, coverFn func(worker, lo, hi int)
	if pool != nil {
		raiseFn = func(_, lo, hi int) {
			weightedRaiseSweep(lo, hi, x, xPlus, costs, dyn, thresholdS, incQ)
		}
		coverFn = func(_, lo, hi int) {
			weightedCoverSweep(lo, hi, lay, k, xPlus, cov, white, turned)
		}
	}
	for p := t - 1; p >= 0; p-- {
		for q := t - 1; q >= 0; q-- {
			if err := checkCtx(ctx); err != nil {
				return nil, 0, err
			}
			thresholdS = sP(p)
			incQ = inc(q)
			if pool != nil {
				pool.Run(n, raiseFn)
				pool.Run(n, coverFn)
			} else {
				weightedRaiseSweep(0, n, x, xPlus, costs, dyn, thresholdS, incQ)
				weightedCoverSweep(0, n, lay, k, xPlus, cov, white, turned)
			}
			// Incremental dynamic-degree maintenance, amortized O(Δ) per
			// color flip over the whole run (replaces the per-iteration
			// O(n·Δ) rescan).
			for v := 0; v < n; v++ {
				if !turned[v] {
					continue
				}
				turned[v] = false
				for _, w := range lay.closed(v) {
					dyn[w]--
				}
			}
		}
	}
	// Final guarantee sweep: anyone still white after the loop is covered
	// by its closed neighborhood raising x to 1, mirroring the unit-cost
	// algorithm's p=q=0 behaviour for nodes whose cost kept them below
	// every threshold. Sequential: several nodes may write the same slot.
	for v := 0; v < n; v++ {
		if !white[v] {
			continue
		}
		for _, w := range lay.closed(v) {
			x[w] = 1
		}
	}
	return x, 2 * t * t, nil
}

// weightedRaiseSweep applies the effectiveness-threshold test to nodes
// [lo, hi): an unsaturated node whose cost-normalized dynamic degree
// clears thresholdS raises its own x by incQ (clamped at 1). Each node
// writes only its own slots, so chunks are independent.
func weightedRaiseSweep(lo, hi int, x, xPlus, costs []float64, dyn []int32, thresholdS, incQ float64) {
	for v := lo; v < hi; v++ {
		xPlus[v] = 0
		if x[v] < 1 && float64(dyn[v])/costs[v] >= thresholdS {
			xp := math.Min(incQ, 1-x[v])
			xPlus[v] = xp
			x[v] += xp
		}
	}
}

// weightedCoverSweep accumulates this iteration's raises into each white
// node's coverage for nodes [lo, hi) and turns nodes whose demand is met.
// Reads xPlus (frozen by the preceding raise sweep), writes only v's own
// cov/white/turned slots.
func weightedCoverSweep(lo, hi int, lay *layout, k, xPlus, cov []float64, white, turned []bool) {
	for v := lo; v < hi; v++ {
		if !white[v] {
			continue
		}
		for _, w := range lay.closed(v) {
			cov[v] += xPlus[w]
		}
		if cov[v] >= k[v] {
			white[v] = false
			turned[v] = true
		}
	}
}

// weightedRepairSweep recruits the cheapest non-member candidates for
// every deficient node in [lo, hi), using the caller-supplied candidate
// buffer (one per worker lane — with guided chunking a lane runs many
// chunks, so a per-chunk buffer would allocate per claim). inSet is
// frozen and recruit slots only ever receive 1 (atomically), so the
// sweep is order-independent. With non-nil bits the coverage count and
// candidate collection run on the packed rows — identical results, the
// candidate sort re-orders by cost either way.
func weightedRepairSweep(lo, hi int, lay *layout, bits *bitRows, inBits []uint64, k, costs []float64, inSet []bool, recruit []uint32, candidates []graph.NodeID) {
	for v := lo; v < hi; v++ {
		var cov int
		if bits != nil {
			cov = countAnd(bits.row(v), inBits)
		} else {
			for _, w := range lay.closed(v) {
				if inSet[w] {
					cov++
				}
			}
		}
		deficit := int(math.Ceil(k[v] - float64(cov) - 1e-12))
		if deficit <= 0 {
			continue
		}
		if bits != nil {
			candidates = appendAndNot(candidates[:0], bits.row(v), inBits)
		} else {
			candidates = candidates[:0]
			for _, w := range lay.closed(v) {
				if !inSet[w] {
					candidates = append(candidates, w)
				}
			}
		}
		sort.Slice(candidates, func(i, j int) bool {
			ci, cj := costs[candidates[i]], costs[candidates[j]]
			if ci != cj {
				return ci < cj
			}
			return candidates[i] < candidates[j]
		})
		for i := 0; i < deficit && i < len(candidates); i++ {
			atomic.StoreUint32(&recruit[candidates[i]], 1)
		}
	}
}

// weightedRound samples like Algorithm 2 and repairs deficits with the
// cheapest candidates.
func weightedRound(lay *layout, k, x, costs []float64, delta int, seed int64, mode BitsetMode, pool *par.Pool, ctx context.Context) ([]bool, error) {
	n := lay.n
	lnD := math.Log(float64(delta + 1))
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	inSet := make([]bool, n)
	sampleCoins(rng.NewStream(0, 0), x[:n], lnD, seed, inSet)
	// Cheapest-candidate repair: inSet is frozen, recruit slots only ever
	// receive 1, so the sweep is order-independent (see roundWithLayout).
	if err := checkCtx(ctx); err != nil {
		return nil, err
	}
	recruit := make([]uint32, n)
	var bits *bitRows
	var inBits []uint64
	if useBitset(mode, lay) {
		bits = &bitRows{}
		bits.rebuild(lay)
		inBits = packInto(nil, inSet)
	}
	maxClosed := lay.maxSize()
	if pool != nil {
		lanes := make([][]graph.NodeID, pool.Workers())
		for i := range lanes {
			lanes[i] = make([]graph.NodeID, 0, maxClosed)
		}
		pool.Run(n, func(worker, lo, hi int) {
			weightedRepairSweep(lo, hi, lay, bits, inBits, k, costs, inSet, recruit, lanes[worker])
		})
	} else {
		weightedRepairSweep(0, n, lay, bits, inBits, k, costs, inSet, recruit, make([]graph.NodeID, 0, maxClosed))
	}
	for v := 0; v < n; v++ {
		if recruit[v] == 1 {
			inSet[v] = true
		}
	}
	return inSet, nil
}
