package core

import (
	"math"
	"os"
	"runtime"
	"testing"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/par"
)

// Tests for the work-claiming scheduler and the packed bitset kernels:
// every path must be bit-identical to the sequential CSR reference.

func schedulerTestGraphs(tb testing.TB, n int) map[string]*graph.Graph {
	tb.Helper()
	side := 1
	for side*side < n {
		side++
	}
	return map[string]*graph.Graph{
		"star": graph.Star(n),
		"path": graph.Path(n),
		"gnp":  graph.GnpAvgDegree(n, 10, 3),
		"grid": graph.Grid(side, side),
	}
}

func assertSameSolve(t *testing.T, label string, seq, got Result) {
	t.Helper()
	if !sameFloats(seq.Fractional.X, got.Fractional.X) {
		t.Errorf("%s: X diverges", label)
	}
	if !sameFloats(seq.Fractional.Y, got.Fractional.Y) {
		t.Errorf("%s: Y diverges", label)
	}
	if !sameFloats(seq.Fractional.Z, got.Fractional.Z) {
		t.Errorf("%s: Z diverges", label)
	}
	if seq.Fractional.BetaSum != got.Fractional.BetaSum {
		t.Errorf("%s: BetaSum diverges", label)
	}
	if !sameBools(seq.InSet, got.InSet) {
		t.Errorf("%s: InSet diverges", label)
	}
	if seq.Rounding.Sampled != got.Rounding.Sampled ||
		seq.Rounding.Repaired != got.Rounding.Repaired {
		t.Errorf("%s: rounding counters diverge", label)
	}
}

// Forcing grain 1 makes every claimed range a single index — the maximal
// stolen-work interleaving: every pair of adjacent indices may run on
// different workers in any order. Results must not move.
func TestSolveForcedGrainInterleavingsMatchSequential(t *testing.T) {
	defer par.SetForceGrain(par.SetForceGrain(1))
	for name, g := range schedulerTestGraphs(t, 400) {
		seq, err := Solve(g, Options{K: 3, T: 3, Seed: 11})
		if err != nil {
			t.Fatalf("%s: sequential: %v", name, err)
		}
		for _, workers := range []int{2, 4, 8} {
			got, err := Solve(g, Options{K: 3, T: 3, Seed: 11, Workers: workers})
			if err != nil {
				t.Fatalf("%s w=%d: %v", name, workers, err)
			}
			assertSameSolve(t, name, seq, got)
		}
	}
}

// The packed kernels must be invisible in the results, sequential and
// pooled, forced on — including on graphs the Auto heuristic would keep
// on CSR.
func TestSolveBitsetMatchesCSR(t *testing.T) {
	for name, g := range schedulerTestGraphs(t, 400) {
		seq, err := Solve(g, Options{K: 3, T: 3, Seed: 7, Bitset: BitsetOff})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, workers := range []int{1, 4} {
			got, err := Solve(g, Options{K: 3, T: 3, Seed: 7, Workers: workers, Bitset: BitsetOn})
			if err != nil {
				t.Fatalf("%s w=%d bitset: %v", name, workers, err)
			}
			assertSameSolve(t, name+" bitset", seq, got)
		}
	}
}

func TestSolveWeightedBitsetMatchesCSR(t *testing.T) {
	for name, g := range schedulerTestGraphs(t, 300) {
		costs := make([]float64, g.NumNodes())
		for v := range costs {
			costs[v] = 1 + float64(v%7)
		}
		seq, err := SolveWeighted(g, WeightedOptions{K: 2, T: 3, Seed: 5, Costs: costs, Bitset: BitsetOff})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		got, err := SolveWeighted(g, WeightedOptions{K: 2, T: 3, Seed: 5, Costs: costs, Bitset: BitsetOn, Workers: 4})
		if err != nil {
			t.Fatalf("%s bitset: %v", name, err)
		}
		if !sameFloats(seq.X, got.X) || !sameBools(seq.InSet, got.InSet) || seq.Cost != got.Cost {
			t.Errorf("%s: weighted bitset run diverges from CSR", name)
		}
	}
}

func TestUseBitsetGating(t *testing.T) {
	dense := newLayout(graph.GnpAvgDegree(200, 60, 1))
	sparse := newLayout(graph.GnpAvgDegree(2000, 6, 1))
	if !useBitset(BitsetAuto, dense) {
		t.Error("Auto should pack a dense 200-node graph (stride 4, avg degree ~60)")
	}
	if useBitset(BitsetAuto, sparse) {
		t.Error("Auto should keep a sparse 2000-node graph on CSR")
	}
	if useBitset(BitsetOff, dense) {
		t.Error("Off must never pack")
	}
	if !useBitset(BitsetOn, sparse) {
		t.Error("On must pack whenever rows fit the cap")
	}
}

// Satellite budget: a scratch-backed parallel solve must stay within ~40
// allocs/op — the pool's goroutine spawns plus two rounding closures, on
// top of the sequential path's ≤ 4 (the 209-allocs/op regression came
// from per-iteration sweep closures, now cached in the arena).
func TestSolveParallelScratchSteadyStateAllocs(t *testing.T) {
	g := graph.GnpAvgDegree(500, 10, 3)
	sc := NewScratch()
	opts := Options{K: 2, T: 3, Seed: 7, Workers: 4, Scratch: sc, Observer: nil}
	if _, err := Solve(g, opts); err != nil { // warm the arena
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Solve(g, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 40 {
		t.Errorf("parallel scratch-backed Solve: %v allocs/op steady-state, want ≤ 40", allocs)
	}
}

// Opt-in smoke (FTCLUST_SPEEDUP_SMOKE=1, ≥ 4 CPUs): workers=4 must beat
// workers=1 on a gnp instance big enough to amortize the fan-out. CI runs
// this on its 4-core runners; laptops and 1-CPU containers skip it.
func TestParallelSpeedupSmoke(t *testing.T) {
	if os.Getenv("FTCLUST_SPEEDUP_SMOKE") == "" {
		t.Skip("set FTCLUST_SPEEDUP_SMOKE=1 to run the speedup smoke")
	}
	if runtime.NumCPU() < 4 {
		t.Skipf("need ≥ 4 CPUs, have %d", runtime.NumCPU())
	}
	g := graph.GnpAvgDegree(20000, 12, 3)
	k := EffectiveDemands(g, 2)
	sc := NewScratch()
	best := func(workers int) time.Duration {
		b := time.Duration(math.MaxInt64)
		for i := 0; i < 3; i++ {
			start := time.Now()
			if _, err := SolveFractional(g, k, FractionalOptions{T: 3, Workers: workers, Scratch: sc}); err != nil {
				t.Fatal(err)
			}
			if d := time.Since(start); d < b {
				b = d
			}
		}
		return b
	}
	best(1) // warm the arena before timing either side
	seq := best(1)
	par4 := best(4)
	t.Logf("sequential %v, workers=4 %v (%.2fx)", seq, par4, float64(seq)/float64(par4))
	if par4 >= seq {
		t.Errorf("workers=4 (%v) not faster than sequential (%v) on gnp n=20000", par4, seq)
	}
}
