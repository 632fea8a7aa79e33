package ftclust

import "testing"

// Regression test for the Verify/EffectiveDemands consistency contract: on
// graphs with nodes of degree < k the solvers optimize against capped
// demands min(k, |N_v|), and Verify must judge the solution against the
// same capped vector — a solver-feasible solution must never fail Verify.
func TestVerifyCapsDemandsOnLowDegreeGraphs(t *testing.T) {
	star, err := NewGraph(6, []Edge{
		{U: 0, V: 1}, {U: 0, V: 2}, {U: 0, V: 3}, {U: 0, V: 4}, {U: 0, V: 5},
	})
	if err != nil {
		t.Fatal(err)
	}
	path, err := NewGraph(5, []Edge{{U: 0, V: 1}, {U: 1, V: 2}, {U: 2, V: 3}, {U: 3, V: 4}})
	if err != nil {
		t.Fatal(err)
	}
	for name, g := range map[string]*Graph{"star": star, "path": path} {
		for _, seed := range []int64{1, 2, 3} {
			sol, err := SolveKMDS(g, 3, WithSeed(seed))
			if err != nil {
				t.Fatalf("%s seed=%d: SolveKMDS: %v", name, seed, err)
			}
			// k=3 exceeds the closed-neighborhood size 2 of the leaves /
			// endpoints; Verify must apply the solver's cap, not raw k.
			if err := Verify(g, sol, 3, ClosedPP); err != nil {
				t.Errorf("%s seed=%d: feasible solution fails Verify(ClosedPP): %v", name, seed, err)
			}
			if err := Verify(g, sol, 3, Standard); err != nil {
				t.Errorf("%s seed=%d: feasible solution fails Verify(Standard): %v", name, seed, err)
			}
		}
	}
	// Sanity: Verify still rejects genuinely infeasible solutions.
	empty := &Solution{InSet: make([]bool, star.NumNodes())}
	if err := Verify(star, empty, 3, ClosedPP); err == nil {
		t.Error("empty solution should fail Verify")
	}
}

// WithWorkers must not change any observable output of the public API.
func TestWithWorkersBitIdentical(t *testing.T) {
	g, err := GenerateGraph("powerlaw", 300, 3, 13)
	if err != nil {
		t.Fatal(err)
	}
	seq, err := SolveKMDS(g, 2, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	par, err := SolveKMDS(g, 2, WithSeed(5), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	if len(seq.InSet) != len(par.InSet) {
		t.Fatal("length mismatch")
	}
	for v := range seq.InSet {
		if seq.InSet[v] != par.InSet[v] {
			t.Fatalf("node %d: InSet diverges with WithWorkers", v)
		}
	}
	if seq.FractionalObjective != par.FractionalObjective ||
		seq.CertifiedLowerBound != par.CertifiedLowerBound ||
		seq.Rounds != par.Rounds {
		t.Error("solution metadata diverges with WithWorkers")
	}

	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = 1 + float64(v%5)
	}
	wseq, err := SolveWeightedKMDS(g, 2, costs, WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	wpar, err := SolveWeightedKMDS(g, 2, costs, WithSeed(5), WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	for v := range wseq.InSet {
		if wseq.InSet[v] != wpar.InSet[v] {
			t.Fatalf("node %d: weighted InSet diverges with WithWorkers", v)
		}
	}
}

// WithBitset must not change any observable output either: the packed
// kernels scan candidates in the same ascending order as the CSR path.
func TestWithBitsetBitIdentical(t *testing.T) {
	g, err := GenerateGraph("gnp", 250, 12, 7)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = 1 + float64(v%5)
	}
	for _, workers := range []int{1, 4} {
		off, err := SolveKMDS(g, 3, WithSeed(5), WithWorkers(workers), WithBitset(BitsetOff))
		if err != nil {
			t.Fatal(err)
		}
		on, err := SolveKMDS(g, 3, WithSeed(5), WithWorkers(workers), WithBitset(BitsetOn))
		if err != nil {
			t.Fatal(err)
		}
		for v := range off.InSet {
			if off.InSet[v] != on.InSet[v] {
				t.Fatalf("workers=%d node %d: InSet diverges with WithBitset", workers, v)
			}
		}
		woff, err := SolveWeightedKMDS(g, 2, costs, WithSeed(5), WithWorkers(workers), WithBitset(BitsetOff))
		if err != nil {
			t.Fatal(err)
		}
		won, err := SolveWeightedKMDS(g, 2, costs, WithSeed(5), WithWorkers(workers), WithBitset(BitsetOn))
		if err != nil {
			t.Fatal(err)
		}
		for v := range woff.InSet {
			if woff.InSet[v] != won.InSet[v] {
				t.Fatalf("workers=%d node %d: weighted InSet diverges with WithBitset", workers, v)
			}
		}
	}
}

// SolveWeightedKMDS must report the engine-derived round count (2t² + 4),
// not a façade-side reconstruction.
func TestWeightedRoundsDerivedFromEngine(t *testing.T) {
	g, err := GenerateGraph("gnp", 80, 8, 3)
	if err != nil {
		t.Fatal(err)
	}
	costs := make([]float64, g.NumNodes())
	for v := range costs {
		costs[v] = 1 + float64(v%4)
	}
	for _, tt := range []int{1, 2, 4} {
		sol, err := SolveWeightedKMDS(g, 2, costs, WithT(tt))
		if err != nil {
			t.Fatal(err)
		}
		if want := 2*tt*tt + 4; sol.Rounds != want {
			t.Errorf("t=%d: Rounds = %d, want %d", tt, sol.Rounds, want)
		}
		if sol.CertifiedLowerBound != 0 {
			t.Errorf("t=%d: weighted path promises no dual bound, got %v", tt, sol.CertifiedLowerBound)
		}
	}
}
