package core

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"sync/atomic"

	"ftclust/internal/graph"
	"ftclust/internal/par"
)

// RoundingOptions configure Algorithm 2.
type RoundingOptions struct {
	// Seed drives the per-node random streams (stream v+1 for node v,
	// matching the simulator's convention so engine and sim.Program
	// executions coincide).
	Seed int64
	// SkipRepair disables the REQ step (Lines 4–7). Used by the ablation
	// experiment that demonstrates the repair step is what guarantees
	// feasibility.
	SkipRepair bool
	// Workers distributes the REQ repair sweep over this many goroutines
	// (≤ 1 = sequential); the sampling coins are one O(1) draw per node and
	// stay sequential. Each node consumes only its own random stream, so
	// results are bit-identical for every worker count.
	Workers int
	// Bitset selects the packed-row kernels for the REQ coverage and
	// candidate scans; see BitsetMode. Results are identical either way.
	Bitset BitsetMode
	// Ctx, when non-nil, is checked before the sampling round and again
	// before the REQ round; a done context aborts with a wrapped
	// ErrCanceled.
	Ctx context.Context
	// Scratch, when non-nil, supplies the rounding buffers and the
	// per-worker generators from a reusable arena (results never change).
	// The returned InSet then aliases the arena; see Scratch.
	Scratch *Scratch

	// pool, when non-nil, is a started work-claiming pool owned by the
	// caller (Solve shares one across both phases); nil with Workers > 1
	// makes the phase start its own.
	pool *par.Pool
}

// RoundingResult is the outcome of Algorithm 2.
type RoundingResult struct {
	// InSet marks the nodes of the integral solution x'.
	InSet []bool
	// Sampled counts nodes selected by the randomized test (Line 2).
	Sampled int
	// Repaired counts additional nodes recruited via REQ (Lines 5–7).
	Repaired int
}

// Size returns |S|.
func (r RoundingResult) Size() int {
	n := 0
	for _, in := range r.InSet {
		if in {
			n++
		}
	}
	return n
}

// RoundingBlowupBound returns Theorem 4.6's multiplicative factor
// ln(Δ+1) + O(1) (the additive constant folded as +2, covering E[Y]).
func RoundingBlowupBound(delta int) float64 {
	return math.Log(float64(delta+1)) + 2
}

// RoundSolution runs Algorithm 2: it samples each node with probability
// min{1, x_i·ln(Δ+1)} and then repairs residual deficits by recruiting
// uncovered nodes' neighbors (REQ messages). k demands are capped at
// closed-neighborhood sizes; with the repair step enabled the result is
// always a feasible k-fold cover in the (PP) sense.
func RoundSolution(g *graph.Graph, k []float64, x []float64, delta int, opts RoundingOptions) (RoundingResult, error) {
	n := g.NumNodes()
	if len(x) != n || len(k) != n {
		return RoundingResult{}, fmt.Errorf("core: x/k length mismatch with graph (%d nodes)", n)
	}
	return roundWithLayout(layoutFor(g, opts.Scratch), k, x, delta, opts)
}

// roundWithLayout is RoundSolution over a precomputed closed-neighborhood
// layout (shared with the fractional phase by Solve), so no per-node
// neighborhood slices are allocated or sorted.
func roundWithLayout(lay *layout, k []float64, x []float64, delta int, opts RoundingOptions) (RoundingResult, error) {
	n := lay.n
	lnD := math.Log(float64(delta + 1))
	if err := checkCtx(opts.Ctx); err != nil {
		return RoundingResult{}, err
	}

	pool := opts.pool
	if pool == nil && opts.Workers > 1 {
		pool = poolFor(opts.Scratch)
		pool.Start(opts.Workers)
		defer pool.Stop()
	}

	scratch := opts.Scratch
	var inSet []bool
	var recruit []uint32
	if scratch != nil {
		scratch.inSet = growZero(scratch.inSet, n)
		scratch.recruit = growZero(scratch.recruit, n)
		inSet, recruit = scratch.inSet, scratch.recruit
	} else {
		inSet = make([]bool, n)
		recruit = make([]uint32, n)
	}
	workers := 1
	if pool != nil {
		workers = pool.Workers()
	}
	maxClosed := lay.maxSize()
	lanes := lanesFor(scratch, workers)
	for i := range lanes {
		lanes[i].reset(maxClosed)
	}

	// Sampling (Line 2) stays sequential on lane 0's generator: seeding a
	// stream is O(1).
	sampled := sampleCoins(lanes[0].rnd, x[:n], lnD, opts.Seed, inSet)
	if opts.SkipRepair {
		return RoundingResult{InSet: inSet, Sampled: sampled}, nil
	}
	if err := checkCtx(opts.Ctx); err != nil {
		return RoundingResult{}, err
	}

	// REQ step: deficits are computed against the sampled set only (the
	// algorithm is one-shot; concurrent REQs may overlap, which only
	// helps). inSet is frozen here, every node reads its own stream, and
	// recruit slots only ever receive the value 1, so the sweep is
	// order-independent; atomic stores keep the parallel path race-free.
	// Each pool worker owns one lane (candidate and permutation buffers
	// plus a generator), never one per node or per chunk.

	// Packed kernels: with inSet frozen, coverage is popcount(row &
	// members) and candidates are the set bits of row &^ members.
	var bits *bitRows
	var inBits []uint64
	if useBitset(opts.Bitset, lay) {
		if scratch != nil {
			bits = &scratch.bits
			scratch.inBits = packInto(scratch.inBits, inSet)
			inBits = scratch.inBits
		} else {
			bits = &bitRows{}
			inBits = packInto(nil, inSet)
		}
		bits.rebuild(lay)
	}

	// Closure literals handed to the pool heap-allocate even when they
	// never run (fn reaches a goroutine), so the literal stays in the
	// pool != nil branch and the sequential path calls the named body
	// directly — the sequential scratch path must not allocate at all.
	seed := opts.Seed
	if pool != nil {
		pool.Run(n, func(worker, lo, hi int) {
			reqSweep(lo, hi, lay, bits, inBits, k, inSet, seed, recruit, &lanes[worker])
		})
	} else {
		reqSweep(0, n, lay, bits, inBits, k, inSet, seed, recruit, &lanes[0])
	}
	repaired := 0
	for v := 0; v < n; v++ {
		if recruit[v] == 1 && !inSet[v] {
			inSet[v] = true
			repaired++
		}
	}
	return RoundingResult{InSet: inSet, Sampled: sampled, Repaired: repaired}, nil
}

// reqSweep runs the REQ round (Lines 4–7) for nodes in [lo, hi) with the
// lane's buffers and generator. With non-nil bits the coverage count and
// candidate collection run on the packed rows: identical deficits (exact
// integer coverage either way) and identical candidate order (ascending
// bit order = ascending CSR order), so identical recruits and draws.
func reqSweep(lo, hi int, lay *layout, bits *bitRows, inBits []uint64, k []float64, inSet []bool, seed int64, recruit []uint32, ln *reqLane) {
	for v := lo; v < hi; v++ {
		closed := lay.closed(v)
		cov := 0
		if bits != nil {
			cov = countAnd(bits.row(v), inBits)
		} else {
			for _, w := range closed {
				if inSet[w] {
					cov++
				}
			}
		}
		deficit := reqDeficit(k[v], len(closed), cov)
		if deficit <= 0 {
			continue
		}
		cand := ln.cand[:0]
		if bits != nil {
			cand = appendAndNot(cand, bits.row(v), inBits)
		} else {
			for _, w := range closed {
				if !inSet[w] {
					cand = append(cand, w)
				}
			}
		}
		reqRecruit(ln, seed, v, recruit, cand, deficit)
	}
}

// sampleCoins flips Algorithm 2's independent coins (Line 2): node v joins
// inSet with probability min(1, x_v·ln(Δ+1)), drawn from its own stream
// through r, re-seeded per node. It returns how many nodes joined.
func sampleCoins(r *rand.Rand, x []float64, lnD float64, seed int64, inSet []bool) int {
	sampled := 0
	for v, xv := range x {
		seedNode(r, seed, v)
		if r.Float64() < math.Min(1, xv*lnD) {
			inSet[v] = true
			sampled++
		}
	}
	return sampled
}

// reqDeficit returns how many additional members node v must recruit.
func reqDeficit(kv float64, closedSize, cov int) int {
	kv = math.Min(kv, float64(closedSize))
	return int(math.Ceil(kv - float64(cov) - 1e-12))
}

// reqRecruit draws a uniform permutation of the candidates from node v's
// stream and recruits the first deficit of them. The stream is re-seeded
// and its sampling coin replayed first, so the permutation uses the same
// draws as a stream kept alive since Line 2 — and as the simulator's.
// |N_v| ≥ k_v guarantees enough candidates.
func reqRecruit(ln *reqLane, seed int64, v int, recruit []uint32, candidates []graph.NodeID, deficit int) {
	seedNode(ln.rnd, seed, v)
	ln.rnd.Float64()
	perm := ln.perm[:len(candidates)]
	permInto(ln.rnd, perm)
	for i := 0; i < deficit && i < len(candidates); i++ {
		atomic.StoreUint32(&recruit[candidates[perm[i]]], 1)
	}
}
