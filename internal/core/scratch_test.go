package core

import (
	"math"
	"reflect"
	"testing"

	"ftclust/internal/graph"
	"ftclust/internal/obs"
)

func scratchTestGraphs() map[string]*graph.Graph {
	return map[string]*graph.Graph{
		"gnp":      graph.GnpAvgDegree(300, 8, 3),
		"grid":     graph.Grid(17, 18),
		"powerlaw": graph.PreferentialAttachment(250, 3, 5),
		"star":     graph.Star(40),
		"path":     graph.Path(60),
	}
}

// A scratch-backed solve must be bit-identical to the allocating solve —
// same primal, duals, and rounded set — including when one scratch is
// dragged across graphs of different shapes and sizes in sequence.
func TestSolveWithScratchBitIdentical(t *testing.T) {
	sc := NewScratch()
	for name, g := range scratchTestGraphs() {
		for _, localDelta := range []bool{false, true} {
			opts := Options{K: 2, T: 3, Seed: 7, LocalDelta: localDelta}
			plain, err := Solve(g, opts)
			if err != nil {
				t.Fatalf("%s: plain solve: %v", name, err)
			}
			opts.Scratch = sc
			pooled, err := Solve(g, opts)
			if err != nil {
				t.Fatalf("%s: scratch solve: %v", name, err)
			}
			if !reflect.DeepEqual(plain.InSet, pooled.InSet) {
				t.Errorf("%s localDelta=%v: InSet differs with scratch", name, localDelta)
			}
			if !reflect.DeepEqual(plain.Fractional.X, pooled.Fractional.X) ||
				!reflect.DeepEqual(plain.Fractional.Y, pooled.Fractional.Y) ||
				!reflect.DeepEqual(plain.Fractional.Z, pooled.Fractional.Z) {
				t.Errorf("%s localDelta=%v: fractional solution differs with scratch", name, localDelta)
			}
			if plain.Fractional.BetaSum != pooled.Fractional.BetaSum {
				t.Errorf("%s: BetaSum %v vs %v", name, plain.Fractional.BetaSum, pooled.Fractional.BetaSum)
			}
			if !reflect.DeepEqual(plain.K, pooled.K) {
				t.Errorf("%s: effective demands differ", name)
			}
			if !pooled.Feasible {
				t.Errorf("%s: scratch solve infeasible", name)
			}
		}
	}
}

// Scratch reuse must also be bit-identical under a worker pool (the
// parallel path shares the arena across sweep goroutines).
func TestSolveWithScratchParallelBitIdentical(t *testing.T) {
	g := graph.GnpAvgDegree(400, 10, 11)
	plain, err := Solve(g, Options{K: 3, T: 3, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	for _, workers := range []int{2, 4, 8} {
		pooled, err := Solve(g, Options{K: 3, T: 3, Seed: 5, Workers: workers, Scratch: sc})
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain.InSet, pooled.InSet) ||
			!reflect.DeepEqual(plain.Fractional.X, pooled.Fractional.X) {
			t.Errorf("workers=%d: scratch+parallel result differs from sequential", workers)
		}
	}
}

// SolveFractional and RoundSolution honor the scratch on their own too.
func TestPhasesWithScratchBitIdentical(t *testing.T) {
	g := graph.GnpAvgDegree(250, 9, 2)
	k := EffectiveDemands(g, 2)
	plainFrac, err := SolveFractional(g, k, FractionalOptions{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	sc := NewScratch()
	pooledFrac, err := SolveFractional(g, k, FractionalOptions{T: 3, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainFrac.X, pooledFrac.X) {
		t.Error("SolveFractional differs with scratch")
	}
	plainRound, err := RoundSolution(g, k, plainFrac.X, plainFrac.Delta, RoundingOptions{Seed: 9})
	if err != nil {
		t.Fatal(err)
	}
	// Copy X: the scratch-owned vector is invalidated by the next
	// scratch-backed call.
	x := append([]float64(nil), pooledFrac.X...)
	pooledRound, err := RoundSolution(g, k, x, pooledFrac.Delta, RoundingOptions{Seed: 9, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plainRound.InSet, pooledRound.InSet) ||
		plainRound.Sampled != pooledRound.Sampled || plainRound.Repaired != pooledRound.Repaired {
		t.Error("RoundSolution differs with scratch")
	}
}

// Scratch results alias the arena: a second solve overwrites the first
// result's backing arrays. This is the documented contract — assert it so
// a future change to copying semantics updates the docs too.
func TestScratchResultsAliasArena(t *testing.T) {
	g1 := graph.Star(30) // k=1 on a star: tiny solution
	g2 := graph.Complete(30)
	sc := NewScratch()
	r1, err := Solve(g1, Options{K: 1, T: 2, Seed: 1, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	saved := append([]bool(nil), r1.InSet...)
	if _, err := Solve(g2, Options{K: 5, T: 2, Seed: 1, Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(saved, r1.InSet) {
		t.Skip("arena happened to produce identical masks; aliasing not observable here")
	}
}

// The whole point: steady-state scratch-backed solves allocate (almost)
// nothing. PR 1's baseline was a constant ~38 allocs/op for the
// fractional phase alone plus ~n for the rounding streams; the pooled
// arena must run the full pipeline in ≤ 4 allocs/op. Observer: nil is
// spelled out because the nil-observer path must stay allocation- and
// clock-free (instrumentation only arms when an observer is installed).
func TestSolveWithScratchSteadyStateAllocs(t *testing.T) {
	g := graph.GnpAvgDegree(500, 10, 3)
	sc := NewScratch()
	opts := Options{K: 2, T: 3, Seed: 7, Scratch: sc, Observer: nil}
	// Warm the arena.
	if _, err := Solve(g, opts); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := Solve(g, opts); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("steady-state scratch solve: %v allocs/op, want ≤ 4", allocs)
	}
}

// Growing and shrinking: a scratch warmed on a big graph must still be
// correct on a small one and vice versa (stale tail state from the larger
// run must never leak into the smaller solve).
func TestScratchShrinkNoStaleState(t *testing.T) {
	big := graph.GnpAvgDegree(600, 12, 1)
	small := graph.Ring(25)
	sc := NewScratch()
	if _, err := Solve(big, Options{K: 3, T: 3, Seed: 2, Scratch: sc}); err != nil {
		t.Fatal(err)
	}
	pooled, err := Solve(small, Options{K: 2, T: 2, Seed: 4, Scratch: sc})
	if err != nil {
		t.Fatal(err)
	}
	plain, err := Solve(small, Options{K: 2, T: 2, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(plain.InSet, pooled.InSet) ||
		!reflect.DeepEqual(plain.Fractional.X, pooled.Fractional.X) {
		t.Error("shrunk scratch solve differs from fresh solve")
	}
	if math.Abs(plain.Fractional.BetaSum-pooled.Fractional.BetaSum) != 0 {
		t.Error("BetaSum differs after shrink")
	}
}

// BenchmarkSolveScratch compares a fresh-allocating solve with a
// scratch-backed one, and prices the observer: scratch+observer is the
// scratch solve with no-op OnPhase/OnDone hooks armed, so its gap to
// scratch is the cost of the phase clocks and alloc counters alone.
func BenchmarkSolveScratch(b *testing.B) {
	g := graph.GnpAvgDegree(1000, 12, 3)
	var sink int
	observer := &obs.SolveObserver{
		OnPhase: func(p obs.PhaseInfo) { sink += p.Rounds },
		OnDone:  func(s obs.SolveStats) { sink += s.LPRounds },
	}
	for _, mode := range []string{"fresh", "scratch", "scratch+observer"} {
		b.Run(mode, func(b *testing.B) {
			opts := Options{K: 2, T: 3, Seed: 7}
			if mode != "fresh" {
				opts.Scratch = NewScratch()
			}
			if mode == "scratch+observer" {
				opts.Observer = observer
			}
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := Solve(g, opts); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
