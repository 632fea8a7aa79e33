package core

import (
	"math"
	"testing"
	"testing/quick"

	"ftclust/internal/graph"
	"ftclust/internal/lp"
	"ftclust/internal/verify"
)

func TestFractionalFeasible(t *testing.T) {
	tests := []struct {
		name string
		g    *graph.Graph
		k    float64
		t    int
	}{
		{"path k=1 t=2", graph.Path(10), 1, 2},
		{"ring k=2 t=3", graph.Ring(12), 2, 3},
		{"gnp k=3 t=4", graph.Gnp(80, 0.15, 1), 3, 4},
		{"star k=2 t=2", graph.Star(15), 2, 2},
		{"grid k=2 t=5", graph.Grid(8, 8), 2, 5},
		{"tree k=1 t=1", graph.RandomTree(40, 2), 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			k := EffectiveDemands(tt.g, tt.k)
			res, err := SolveFractional(tt.g, k, FractionalOptions{T: tt.t})
			if err != nil {
				t.Fatalf("SolveFractional: %v", err)
			}
			c := lp.FromGraph(tt.g, k)
			if err := c.CheckPrimal(res.X, 1e-9); err != nil {
				t.Errorf("primal infeasible: %v", err)
			}
			if res.LoopRounds != 2*tt.t*tt.t {
				t.Errorf("LoopRounds = %d, want %d", res.LoopRounds, 2*tt.t*tt.t)
			}
		})
	}
}

func TestTheorem45RatioBound(t *testing.T) {
	// Σx ≤ t((Δ+1)^{2/t}+(Δ+1)^{1/t})·OPT_f across families, k and t.
	graphs := []*graph.Graph{
		graph.Gnp(60, 0.2, 3),
		graph.Grid(7, 7),
		graph.RandomTree(50, 4),
		graph.PreferentialAttachment(60, 3, 5),
	}
	for gi, g := range graphs {
		for _, kk := range []float64{1, 2, 4} {
			for _, tt := range []int{1, 2, 3, 5} {
				k := EffectiveDemands(g, kk)
				res, err := SolveFractional(g, k, FractionalOptions{T: tt})
				if err != nil {
					t.Fatalf("graph %d: %v", gi, err)
				}
				c := lp.FromGraph(g, k)
				_, opt, err := c.SolveFractional()
				if err != nil {
					t.Fatalf("graph %d: lp: %v", gi, err)
				}
				ratio := res.Objective() / opt
				bound := TheoreticalRatio(tt, res.Delta)
				if ratio > bound+1e-9 {
					t.Errorf("graph %d k=%v t=%d: ratio %.3f exceeds bound %.3f",
						gi, kk, tt, ratio, bound)
				}
				if ratio < 1-1e-9 {
					t.Errorf("graph %d k=%v t=%d: ratio %.3f below 1", gi, kk, tt, ratio)
				}
			}
		}
	}
}

func TestLemma43DualFittingIdentity(t *testing.T) {
	// Σ(k_i·y_i − z_i) = Σβ exactly (to float tolerance).
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Gnp(50, 0.2, seed)
		k := EffectiveDemands(g, 2)
		res, err := SolveFractional(g, k, FractionalOptions{T: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		lhs := res.DualObjective(k)
		if math.Abs(lhs-res.BetaSum) > 1e-8*(1+math.Abs(res.BetaSum)) {
			t.Errorf("seed %d: dual objective %v ≠ Σβ %v", seed, lhs, res.BetaSum)
		}
	}
}

func TestLemma44DualFeasibleUpToKappa(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		g := graph.Gnp(50, 0.25, seed)
		for _, tt := range []int{1, 2, 4} {
			k := EffectiveDemands(g, 3)
			res, err := SolveFractional(g, k, FractionalOptions{T: tt})
			if err != nil {
				t.Fatalf("seed %d: %v", seed, err)
			}
			c := lp.FromGraph(g, k)
			if err := c.CheckDualNonNegative(res.Y, res.Z, 1e-9); err != nil {
				t.Errorf("seed %d t=%d: %v", seed, tt, err)
			}
			if viol := c.DualViolation(res.Y, res.Z); viol > res.Kappa+1e-9 {
				t.Errorf("seed %d t=%d: dual violation %v exceeds κ %v", seed, tt, viol, res.Kappa)
			}
		}
	}
}

func TestDualCertificateLowerBoundsOPT(t *testing.T) {
	// Scaling the dual by 1/κ gives a feasible dual solution, so
	// DualObjective/κ ≤ OPT_f by weak duality — the certificate users can
	// check without solving an LP.
	g := graph.Gnp(40, 0.25, 7)
	k := EffectiveDemands(g, 2)
	res, err := SolveFractional(g, k, FractionalOptions{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := lp.FromGraph(g, k)
	_, opt, err := c.SolveFractional()
	if err != nil {
		t.Fatal(err)
	}
	cert := res.DualObjective(k) / res.Kappa
	if cert > opt+1e-6 {
		t.Errorf("certificate %v exceeds OPT_f %v", cert, opt)
	}
	if cert <= 0 {
		t.Errorf("certificate %v should be positive", cert)
	}
}

func TestRoundingFeasibleWithRepair(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		g := graph.Gnp(60, 0.15, seed)
		k := EffectiveDemands(g, 2)
		frac, err := SolveFractional(g, k, FractionalOptions{T: 3})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		r, err := RoundSolution(g, k, frac.X, frac.Delta, RoundingOptions{Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if err := verify.CheckKFoldVector(g, r.InSet, k, verify.ClosedPP); err != nil {
			t.Errorf("seed %d: rounded solution infeasible: %v", seed, err)
		}
		if r.Size() != r.Sampled+r.Repaired {
			t.Errorf("seed %d: size %d ≠ sampled %d + repaired %d",
				seed, r.Size(), r.Sampled, r.Repaired)
		}
	}
}

// RoundSolution without a scratch allocates a constant number of objects
// whatever n: its arrays, one lane and one generator — never a generator
// per node, which is what made rounding cost one seed per node. Each
// kernel is pinned on its own (the Auto gate picks by density, which
// differs between the two sizes).
func TestRoundingAllocsIndependentOfN(t *testing.T) {
	allocs := func(n int, mode BitsetMode) float64 {
		g := graph.GnpAvgDegree(n, 12, 3)
		k := EffectiveDemands(g, 2)
		frac, err := SolveFractional(g, k, FractionalOptions{T: 3})
		if err != nil {
			t.Fatal(err)
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := RoundSolution(g, k, frac.X, frac.Delta, RoundingOptions{Seed: 1, Bitset: mode}); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, mode := range []BitsetMode{BitsetOff, BitsetOn} {
		if small, big := allocs(1000, mode), allocs(5000, mode); small != big {
			t.Errorf("bitset mode %d: RoundSolution allocates %v objects at n=1000 but %v at n=5000", mode, small, big)
		}
	}
}

func TestRoundingWithoutRepairCanFail(t *testing.T) {
	// Ablation: with the REQ step disabled, some instance/seed must yield
	// an infeasible solution — that is the point of the repair step. The
	// ring with the uniform fractional optimum x ≡ 1/3 keeps sampling
	// probabilities far from 1, so per-node coverage failures occur with
	// constant probability.
	g := graph.Ring(90)
	k := EffectiveDemands(g, 1)
	x := make([]float64, g.NumNodes())
	for i := range x {
		x[i] = 1.0 / 3.0
	}
	failures := 0
	for seed := int64(0); seed < 10; seed++ {
		r, err := RoundSolution(g, k, x, g.MaxDegree(), RoundingOptions{Seed: seed, SkipRepair: true})
		if err != nil {
			t.Fatal(err)
		}
		if verify.CheckKFoldVector(g, r.InSet, k, verify.ClosedPP) != nil {
			failures++
		}
		if r.Repaired != 0 {
			t.Fatalf("seed %d: SkipRepair produced repairs", seed)
		}
		// With repair on, the same instance is always feasible.
		rr, err := RoundSolution(g, k, x, g.MaxDegree(), RoundingOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if err := verify.CheckKFoldVector(g, rr.InSet, k, verify.ClosedPP); err != nil {
			t.Fatalf("seed %d: repaired still infeasible: %v", seed, err)
		}
	}
	if failures == 0 {
		t.Error("rounding without repair never failed across 10 seeds; ablation meaningless")
	}
}

func TestSolveEndToEnd(t *testing.T) {
	g := graph.Gnp(100, 0.12, 9)
	res, err := Solve(g, Options{K: 3, T: 3, Seed: 42})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Feasible {
		t.Error("solution not feasible")
	}
	if err := verify.CheckKFoldVector(g, res.InSet, res.K, verify.ClosedPP); err != nil {
		t.Errorf("verification: %v", err)
	}
	if res.Size() == 0 {
		t.Error("empty solution")
	}
	// Also satisfies the Section 1 (standard) definition.
	if err := verify.CheckKFold(g, res.InSet, 3, verify.Standard); err != nil {
		t.Errorf("standard-convention check: %v", err)
	}
}

func TestSolveValidatesInputs(t *testing.T) {
	g := graph.Ring(5)
	if _, err := Solve(g, Options{K: 0, T: 2}); err == nil {
		t.Error("k=0 should be rejected")
	}
	if _, err := Solve(g, Options{K: 1, T: 0}); err == nil {
		t.Error("t=0 should be rejected")
	}
	if _, err := SolveFractional(g, []float64{1, 1}, FractionalOptions{T: 1}); err == nil {
		t.Error("k-length mismatch should be rejected")
	}
}

func TestQuickSolveAlwaysFeasible(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, tRaw uint8) bool {
		n := int(nRaw%40) + 5
		k := float64(kRaw%4) + 1
		tt := int(tRaw%4) + 1
		g := graph.Gnp(n, 0.25, seed)
		res, err := Solve(g, Options{K: k, T: tt, Seed: seed})
		if err != nil {
			return false
		}
		return res.Feasible &&
			verify.CheckKFoldVector(g, res.InSet, res.K, verify.ClosedPP) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestLocalDeltaVariantFeasible(t *testing.T) {
	g := graph.PreferentialAttachment(80, 2, 3) // heavy degree spread
	res, err := Solve(g, Options{K: 2, T: 3, Seed: 1, LocalDelta: true})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if !res.Feasible {
		t.Error("LocalDelta solution infeasible")
	}
}

func TestPerNodeDemandVector(t *testing.T) {
	g := graph.Grid(6, 6)
	k := make([]float64, g.NumNodes())
	for v := range k {
		k[v] = float64(1 + v%3)
	}
	res, err := SolveFractional(g, k, FractionalOptions{T: 3})
	if err != nil {
		t.Fatal(err)
	}
	c := lp.FromGraph(g, k)
	if err := c.CheckPrimal(res.X, 1e-9); err != nil {
		t.Errorf("per-node demands: %v", err)
	}
	r, err := RoundSolution(g, k, res.X, res.Delta, RoundingOptions{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	if err := verify.CheckKFoldVector(g, r.InSet, k, verify.ClosedPP); err != nil {
		t.Errorf("rounded per-node demands: %v", err)
	}
}

func TestEffectiveDemandsCap(t *testing.T) {
	g := graph.Path(3) // degrees 1,2,1
	k := EffectiveDemands(g, 5)
	want := []float64{2, 3, 2}
	for i := range k {
		if k[i] != want[i] {
			t.Errorf("k[%d] = %v, want %v", i, k[i], want[i])
		}
	}
}

func TestClosedNeighborhoodSorted(t *testing.T) {
	g := graph.Star(5)
	got := ClosedNeighborhood(g, 0)
	if len(got) != 5 {
		t.Fatalf("len = %d", len(got))
	}
	for i := 1; i < len(got); i++ {
		if got[i-1] >= got[i] {
			t.Fatal("not sorted")
		}
	}
	leaf := ClosedNeighborhood(g, 3)
	if len(leaf) != 2 || leaf[0] != 0 || leaf[1] != 3 {
		t.Errorf("leaf closed nbhd = %v", leaf)
	}
}

func TestTheoreticalFormulas(t *testing.T) {
	// t=1: ratio bound = (Δ+1)² + (Δ+1).
	if got, want := TheoreticalRatio(1, 9), 110.0; math.Abs(got-want) > 1e-9 {
		t.Errorf("TheoreticalRatio(1,9) = %v, want %v", got, want)
	}
	// Larger t improves (weakly) the bound for fixed Δ in the regime t ≤ ln Δ.
	if TheoreticalRatio(4, 1000) > TheoreticalRatio(1, 1000) {
		t.Error("bound should improve from t=1 to t=4 at Δ=1000")
	}
	if lb := LowerBoundRatio(2, 100); math.Abs(lb-5) > 1e-9 {
		t.Errorf("LowerBoundRatio(2,100) = %v, want 5", lb)
	}
	if b := RoundingBlowupBound(0); math.Abs(b-2) > 1e-9 {
		t.Errorf("RoundingBlowupBound(0) = %v, want 2", b)
	}
}
