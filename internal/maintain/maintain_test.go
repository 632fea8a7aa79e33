package maintain

import (
	"testing"
	"testing/quick"

	"ftclust/internal/geom"
	"ftclust/internal/graph"
	"ftclust/internal/rng"
	"ftclust/internal/udg"
	"ftclust/internal/verify"
)

func solvedUDG(t *testing.T, n int, k int, seed int64) ([]geom.Point, *graph.Graph, []bool) {
	t.Helper()
	pts := geom.UniformPoints(n, 5, seed)
	g, idx := geom.UnitUDG(pts)
	res, err := udg.Solve(pts, g, idx, udg.Options{K: k, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	return pts, g, res.Leader
}

// liveCheck verifies k-coverage among survivors.
func liveCheck(t *testing.T, g *graph.Graph, inSet []bool, dead map[graph.NodeID]bool, k int) {
	t.Helper()
	for v := 0; v < g.NumNodes(); v++ {
		if dead[graph.NodeID(v)] {
			if inSet[v] {
				t.Fatalf("dead node %d in repaired set", v)
			}
			continue
		}
		liveDeg, cov := 0, 0
		if inSet[v] {
			cov++
		}
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if dead[w] {
				continue
			}
			liveDeg++
			if inSet[w] {
				cov++
			}
		}
		need := k
		if liveDeg+1 < need {
			need = liveDeg + 1
		}
		if cov < need {
			t.Fatalf("node %d has %d of %d live coverage after repair", v, cov, need)
		}
	}
}

// TestRepairAfterHeadFailures kills 40% of the heads of solved UDG
// deployments and checks the repair restores coverage incrementally —
// over 30 deployments, because overlapping deficits (neighbors short of
// the same lost heads) are what break a repair that sizes every node's
// need from the round's starting coverage.
func TestRepairAfterHeadFailures(t *testing.T) {
	const k = 3
	for seed := int64(1); seed <= 30; seed++ {
		_, g, leader := solvedUDG(t, 400, k, seed)
		// Kill 40% of the heads.
		r := rng.New(9)
		dead := map[graph.NodeID]bool{}
		for v, l := range leader {
			if l && r.Float64() < 0.4 {
				dead[graph.NodeID(v)] = true
			}
		}
		before := Assess(g, leader, dead, k)
		if before.LostHeads == 0 {
			t.Fatalf("seed %d: test needs failures", seed)
		}
		res, err := Repair(g, leader, dead, k)
		if err != nil {
			t.Fatal(err)
		}
		liveCheck(t, g, res.InSet, dead, k)
		after := Assess(g, res.InSet, dead, k)
		if after.DeficientNodes != 0 {
			t.Errorf("seed %d: deficient nodes after repair: %d", seed, after.DeficientNodes)
		}
		// Incrementality: repair should promote far fewer nodes than the
		// full solution size.
		full := verify.SetSize(leader)
		if res.Promoted >= full {
			t.Errorf("seed %d: repair promoted %d ≥ full size %d; not incremental", seed, res.Promoted, full)
		}
	}
}

func TestRepairNoopWithoutFailures(t *testing.T) {
	_, g, leader := solvedUDG(t, 200, 2, 2)
	res, err := Repair(g, leader, nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	if res.Promoted != 0 || res.Iterations != 0 {
		t.Errorf("no-op repair promoted %d in %d iterations", res.Promoted, res.Iterations)
	}
}

func TestRepairValidation(t *testing.T) {
	g := graph.Ring(5)
	if _, err := Repair(g, make([]bool, 3), nil, 1); err == nil {
		t.Error("length mismatch should fail")
	}
	if _, err := Repair(g, make([]bool, 5), nil, 0); err == nil {
		t.Error("k=0 should fail")
	}
}

func TestRepairMassiveFailure(t *testing.T) {
	// Even killing ALL heads must be repairable (survivors promote).
	const k = 2
	_, g, leader := solvedUDG(t, 300, k, 3)
	dead := map[graph.NodeID]bool{}
	for v, l := range leader {
		if l {
			dead[graph.NodeID(v)] = true
		}
	}
	res, err := Repair(g, leader, dead, k)
	if err != nil {
		t.Fatal(err)
	}
	liveCheck(t, g, res.InSet, dead, k)
}

func TestQuickRepairAlwaysRestores(t *testing.T) {
	f := func(seed int64, nRaw, kRaw, pRaw uint8) bool {
		n := int(nRaw%120) + 10
		k := int(kRaw%3) + 1
		p := float64(pRaw) / 255 * 0.8
		pts := geom.UniformPoints(n, 4, seed)
		g, idx := geom.UnitUDG(pts)
		sol, err := udg.Solve(pts, g, idx, udg.Options{K: k, Seed: seed})
		if err != nil {
			return false
		}
		r := rng.New(seed + 1)
		dead := map[graph.NodeID]bool{}
		for v := 0; v < n; v++ {
			if r.Float64() < p {
				dead[graph.NodeID(v)] = true // arbitrary nodes may die, not just heads
			}
		}
		res, err := Repair(g, sol.Leader, dead, k)
		if err != nil {
			return false
		}
		return Assess(g, res.InSet, dead, k).DeficientNodes == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
