package core

import (
	"context"
	"fmt"

	"ftclust/internal/graph"
	"ftclust/internal/obs"
	"ftclust/internal/par"
	"ftclust/internal/verify"
)

// Options configure the end-to-end k-MDS solver (Algorithm 1 followed by
// Algorithm 2).
type Options struct {
	// K is the fault-tolerance parameter k ≥ 1 (per-node demands are
	// capped at closed-neighborhood sizes).
	K float64
	// T is Algorithm 1's trade-off parameter; values around log₂ Δ give
	// the paper's O(log Δ)-approximation remark.
	T int
	// Seed drives Algorithm 2's randomness.
	Seed int64
	// LocalDelta switches Algorithm 1 to 2-hop-local maximum degrees.
	LocalDelta bool
	// SkipRepair disables Algorithm 2's REQ step (ablation only; the
	// result may then be infeasible and Solve will report it).
	SkipRepair bool
	// Workers distributes both phases' per-round sweeps over this many
	// goroutines (≤ 1 = sequential). One work-claiming pool spans both
	// phases. Results are bit-identical to the sequential execution for
	// equal seeds, whatever the worker count or chunk interleaving.
	Workers int
	// Bitset selects packed []uint64 closed-neighborhood rows for the
	// dense rounding sweeps; see BitsetMode. Results are identical in
	// every mode.
	Bitset BitsetMode
	// Ctx, when non-nil, is checked between communication rounds of both
	// phases; a done context aborts the solve with a wrapped ErrCanceled.
	// Cancellation never yields a partial Result.
	Ctx context.Context
	// Scratch, when non-nil, supplies every working array of both phases
	// from a reusable arena: repeated solves on same-shape graphs run with
	// zero steady-state allocations. The returned Result then ALIASES the
	// arena (InSet, K, Fractional.X/Y/Z) and is overwritten by the next
	// solve using the same Scratch; copy what you keep. Not safe for
	// concurrent use — one Scratch per worker.
	Scratch *Scratch
	// Observer, when non-nil, receives a callback at each phase boundary
	// (fractional, rounding, verify: wall time, communication rounds,
	// approximate allocations) and a final summary carrying the paper's
	// per-solve figures (LP rounds, κ, certified lower bound, dual gap).
	// A nil observer costs one branch per phase — no clocks are read and
	// nothing is allocated, preserving the scratch path's zero
	// steady-state allocations. Callbacks run on the solving goroutine.
	Observer *obs.SolveObserver
}

// Result is the full outcome of the combined solver.
type Result struct {
	// InSet is the integral k-fold dominating set (PP convention).
	InSet []bool
	// Fractional carries Algorithm 1's solution and dual certificate.
	Fractional FractionalResult
	// Rounding carries Algorithm 2's statistics.
	Rounding RoundingResult
	// K echoes the effective per-node demands.
	K []float64
	// Feasible reports whether InSet satisfies the (PP) convention
	// (always true when the repair step is enabled).
	Feasible bool
}

// Size returns |S|.
func (r Result) Size() int { return verify.SetSize(r.InSet) }

// FractionalObjective returns Σ x_i.
func (r Result) FractionalObjective() float64 { return r.Fractional.Objective() }

// Solve runs the paper's general-graph pipeline on g: Algorithm 1 computes
// a fractional solution in 2t² rounds, Algorithm 2 rounds it in O(1)
// rounds. The combined approximation guarantee against the fractional
// optimum is t((Δ+1)^{2/t}+(Δ+1)^{1/t})·(ln(Δ+1)+O(1)) in expectation
// (Theorems 4.5 and 4.6).
func Solve(g *graph.Graph, opts Options) (Result, error) {
	if opts.K < 1 {
		return Result{}, fmt.Errorf("core: k must be ≥ 1, got %v", opts.K)
	}
	if opts.T < 1 {
		return Result{}, fmt.Errorf("core: t must be ≥ 1, got %d", opts.T)
	}
	var k []float64
	if opts.Scratch != nil {
		opts.Scratch.kEff = effectiveDemandsInto(opts.Scratch.kEff, g, opts.K)
		k = opts.Scratch.kEff
	} else {
		k = EffectiveDemands(g, opts.K)
	}
	// Phase instrumentation: clocks and the runtime alloc counter are read
	// only when an observer is installed, so the nil-observer path stays
	// branch-only (the scratch steady state depends on it).
	var ph *obs.PhaseClock
	if opts.Observer != nil {
		ph = obs.NewPhaseClock(opts.Observer)
	}

	// One closed-neighborhood layout and one worker pool shared by both
	// phases (spawning goroutines once per solve, not once per phase).
	lay := layoutFor(g, opts.Scratch)
	var pool *par.Pool
	if opts.Workers > 1 {
		pool = poolFor(opts.Scratch)
		pool.Start(opts.Workers)
		defer pool.Stop()
	}
	ph.Start()
	frac, err := solveFractionalWithLayout(g, lay, k, FractionalOptions{
		T:          opts.T,
		LocalDelta: opts.LocalDelta,
		Workers:    opts.Workers,
		Ctx:        opts.Ctx,
		Scratch:    opts.Scratch,
		pool:       pool,
	})
	if err != nil {
		return Result{}, err
	}
	ph.End("fractional", frac.LoopRounds)
	rounded, err := roundWithLayout(lay, k, frac.X, frac.Delta, RoundingOptions{
		Seed:       opts.Seed,
		SkipRepair: opts.SkipRepair,
		Workers:    opts.Workers,
		Bitset:     opts.Bitset,
		Ctx:        opts.Ctx,
		Scratch:    opts.Scratch,
		pool:       pool,
	})
	if err != nil {
		return Result{}, err
	}
	// The +4 of the pipeline's round accounting (guarantee sweep +
	// rounding) belongs to this phase.
	ph.End("rounding", 4)
	res := Result{
		InSet:      rounded.InSet,
		Fractional: frac,
		Rounding:   rounded,
		K:          k,
	}
	res.Feasible = verify.CheckKFoldVector(g, rounded.InSet, k, verify.ClosedPP) == nil
	ph.End("verify", 0)
	if o := opts.Observer; o != nil && o.OnDone != nil {
		passes := 1
		if !opts.SkipRepair {
			passes = 2
		}
		objective := frac.Objective()
		lower := frac.DualObjective(k) / frac.Kappa
		o.OnDone(obs.SolveStats{
			LPRounds:            frac.LoopRounds,
			RoundingPasses:      passes,
			Sampled:             rounded.Sampled,
			Repaired:            rounded.Repaired,
			SetSize:             res.Size(),
			FractionalObjective: objective,
			Kappa:               frac.Kappa,
			DualLowerBound:      lower,
			DualGap:             objective - lower,
			Feasible:            res.Feasible,
		})
	}
	if !opts.SkipRepair && !res.Feasible {
		// The repair step guarantees feasibility; reaching this line
		// would be an implementation bug, not bad luck.
		return res, fmt.Errorf("core: internal error: repaired solution infeasible")
	}
	return res, nil
}
