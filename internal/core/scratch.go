package core

import (
	"math"
	"math/rand"

	"ftclust/internal/graph"
	"ftclust/internal/par"
	"ftclust/internal/rng"
)

// Scratch is a reusable solver-state arena for the general-graph pipeline.
// A Solve (or SolveFractional / RoundSolution) call that receives one
// through its options draws every working array — the closed-neighborhood
// layout, the mirror slots, the fractional state and the rounding lanes —
// from the arena instead of the heap, growing it on first use and reusing
// it afterwards. Repeated solves on same-shape graphs therefore run with
// zero steady-state allocations.
//
// Parallel solves (Workers > 1) draw their machinery from the arena too:
// the work-claiming pool's signal channels, the pre-bound sweep closures
// cached inside the fractional state, and one rounding lane per worker —
// so a scratch-backed parallel solve costs only the goroutine spawns on
// top of the sequential budget (pinned by
// TestSolveParallelScratchSteadyStateAllocs).
//
// Results returned from a scratch-backed solve ALIAS the arena:
// Result.InSet, .K and the Fractional X/Y/Z vectors are views into
// Scratch-owned memory and are overwritten by the next solve that uses the
// same Scratch. Callers must copy whatever they keep. A Scratch is not
// safe for concurrent use; give each worker its own (the service's solver
// pool does exactly that).
type Scratch struct {
	lay  layout
	frac fracState
	pool par.Pool

	kEff []float64

	// Bitset kernels: packed closed-neighborhood rows plus the packed
	// membership vector the coverage sweeps intersect against.
	bits   bitRows
	inBits []uint64

	// Rounding state: the sampled/recruited masks and one lane per
	// worker (lane 0 serves the sequential path).
	inSet   []bool
	recruit []uint32
	lanes   []reqLane
}

// reqLane is one worker's private rounding state, reused across chunks
// and solves: the REQ candidate and permutation buffers, and a generator
// re-seeded to each node's stream in turn (seeding is O(1), so a lane
// needs one generator, not one per node).
type reqLane struct {
	rnd  *rand.Rand
	cand []graph.NodeID
	perm []int
}

// reset sizes the lane's buffers for closed neighborhoods of up to
// maxClosed nodes, creating its generator on first use.
func (ln *reqLane) reset(maxClosed int) {
	if ln.rnd == nil {
		ln.rnd = rng.NewStream(0, 0)
	}
	ln.cand = growNoClear(ln.cand, maxClosed)
	ln.perm = growNoClear(ln.perm, maxClosed)
}

// seedNode re-seeds r, a generator from rng.NewStream, to node v's stream
// v+1 — the simulator's convention, so engine and sim.Program executions
// coincide draw for draw.
func seedNode(r *rand.Rand, seed int64, v int) {
	rng.Reseed(r, seed, uint64(v)+1)
}

// NewScratch returns an empty arena; arrays are allocated lazily on first
// use and sized to the largest (n, m) seen.
func NewScratch() *Scratch { return &Scratch{} }

// fracStateFor returns the fractional state, arena-embedded when s is
// non-nil (reusing arrays and the cached sweep closures).
func fracStateFor(s *Scratch) *fracState {
	if s == nil {
		return &fracState{}
	}
	return &s.frac
}

// poolFor returns a stopped pool ready to Start, arena-embedded when s is
// non-nil so its signal channels persist across solves.
func poolFor(s *Scratch) *par.Pool {
	if s == nil {
		return &par.Pool{}
	}
	return &s.pool
}

// lanesFor returns w rounding lanes, arena-embedded when s is non-nil.
func lanesFor(s *Scratch, w int) []reqLane {
	if s == nil {
		return make([]reqLane, w)
	}
	s.lanes = growKeep(s.lanes, w)
	return s.lanes
}

// growNoClear resizes buf to n reusing its capacity; contents are
// unspecified — every slot must be written by the caller.
func growNoClear[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// growZero resizes buf to n reusing its capacity and zeroes it.
func growZero[T any](buf []T, n int) []T {
	buf = growNoClear(buf, n)
	clear(buf)
	return buf
}

// growKeep resizes buf to n preserving existing elements (and, when
// shrinking then regrowing within capacity, resurrecting earlier ones) —
// used for the rounding lanes, whose stale buffers and generators are
// reusable as they are.
func growKeep[T any](buf []T, n int) []T {
	if cap(buf) >= n {
		return buf[:n]
	}
	nb := make([]T, n)
	copy(nb, buf)
	return nb
}

// layoutFor returns the closed-neighborhood layout of g, carved out of s
// when non-nil and freshly allocated otherwise.
func layoutFor(g *graph.Graph, s *Scratch) *layout {
	if s == nil {
		return newLayout(g)
	}
	s.lay.rebuild(g)
	return &s.lay
}

// effectiveDemandsInto is EffectiveDemands writing into a reusable buffer.
func effectiveDemandsInto(buf []float64, g *graph.Graph, k float64) []float64 {
	n := g.NumNodes()
	buf = growNoClear(buf, n)
	for v := 0; v < n; v++ {
		buf[v] = math.Min(k, float64(g.Degree(graph.NodeID(v))+1))
	}
	return buf
}

// permInto fills m with a uniformly random permutation of [0, len(m))
// using exactly the draws of rand.Rand.Perm (one Intn(i+1) per position),
// so the rounding consumes the identical stream prefix as the simulator's
// Perm without allocating.
func permInto(r *rand.Rand, m []int) {
	for i := range m {
		j := r.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
}
