package maintain

// There is one promotion engine, and Repair is one batch of it: an engine
// built with the failures already applied, then Apply(nil). That batch
// must be bit-identical to the global-pass reference on graph families ×
// failure patterns × k. "Bit-identical" covers the mask, the promotion
// count, and the round count — any divergence means the engine dropped a
// deficit or promoted in a different order.

import (
	"fmt"
	"testing"

	"ftclust/internal/graph"
	"ftclust/internal/rng"
)

// feasibleMask builds a deterministic k-feasible mask for g by running the
// reference promotion machinery from an empty mask with no failures — the
// same greedy the paper's Part II uses, so the masks look like real
// clusterings without dragging the full solver into this package.
func feasibleMask(t *testing.T, g *graph.Graph, k int) []bool {
	t.Helper()
	res, err := repairReference(g, make([]bool, g.NumNodes()), nil, k)
	if err != nil {
		t.Fatal(err)
	}
	return res.InSet
}

// failurePattern returns the dead set for one named pattern.
func failurePattern(name string, g *graph.Graph, mask []bool, seed int64) map[graph.NodeID]bool {
	dead := map[graph.NodeID]bool{}
	heads := []graph.NodeID{}
	for v, in := range mask {
		if in {
			heads = append(heads, graph.NodeID(v))
		}
	}
	switch name {
	case "single":
		// One head fails (the classic E16-style single-failure case).
		if len(heads) > 0 {
			dead[heads[int(seed)%len(heads)]] = true
		}
	case "burst":
		// A random 15% of all nodes fails at once, heads or not.
		r := rng.New(seed)
		for v := 0; v < g.NumNodes(); v++ {
			if r.Float64() < 0.15 {
				dead[graph.NodeID(v)] = true
			}
		}
	case "heads40":
		// A random 40% of the heads fails: neighboring nodes lose heads
		// they share, so their deficits overlap and one promotion can
		// close several of them.
		r := rng.New(seed)
		for _, h := range heads {
			if r.Float64() < 0.4 {
				dead[h] = true
			}
		}
	case "adversarial":
		// Targeted removal of the entire dominating set S.
		for _, h := range heads {
			dead[h] = true
		}
	default:
		panic("unknown failure pattern " + name)
	}
	return dead
}

func TestRepairEquivalenceMatrix(t *testing.T) {
	families := []struct {
		name string
		g    *graph.Graph
	}{
		{"star", graph.Star(80)},
		{"path", graph.Path(90)},
		{"gnp", graph.GnpAvgDegree(300, 8, 5)},
		{"grid", graph.Grid(12, 14)},
	}
	patterns := []string{"single", "burst", "heads40", "adversarial"}

	for _, fam := range families {
		for _, pat := range patterns {
			for k := 1; k <= 3; k++ {
				name := fmt.Sprintf("%s/%s/k=%d", fam.name, pat, k)
				t.Run(name, func(t *testing.T) {
					mask := feasibleMask(t, fam.g, k)
					dead := failurePattern(pat, fam.g, mask, int64(k)*31+7)
					assertRepairEquivalent(t, fam.g, mask, dead, k)
				})
			}
		}
	}
}

// TestRepairEquivalenceInfeasibleMask covers masks that are deficient for
// reasons unrelated to the failure set (E18's crash-mid-protocol regime):
// the engine batch must find and fix those deficits too, identically.
func TestRepairEquivalenceInfeasibleMask(t *testing.T) {
	g := graph.GnpAvgDegree(250, 8, 11)
	const k = 2
	mask := feasibleMask(t, g, k)
	// Corrupt the mask far from the failure: drop every third head.
	i := 0
	for v := range mask {
		if mask[v] {
			if i%3 == 0 {
				mask[v] = false
			}
			i++
		}
	}
	dead := failurePattern("burst", g, mask, 3)
	assertRepairEquivalent(t, g, mask, dead, k)

	// Empty mask, no failures: the promotion machinery builds a full
	// cover from nothing in both versions.
	assertRepairEquivalent(t, graph.Grid(8, 9), make([]bool, 72), nil, 3)
}

func assertRepairEquivalent(t *testing.T, g *graph.Graph, mask []bool, dead map[graph.NodeID]bool, k int) {
	t.Helper()
	want, err := repairReference(g, mask, dead, k)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Repair(g, mask, dead, k)
	if err != nil {
		t.Fatal(err)
	}
	if got.Promoted != want.Promoted || got.Iterations != want.Iterations {
		t.Fatalf("engine promoted=%d iters=%d, reference promoted=%d iters=%d",
			got.Promoted, got.Iterations, want.Promoted, want.Iterations)
	}
	for v := range want.InSet {
		if got.InSet[v] != want.InSet[v] {
			t.Fatalf("masks diverge at node %d: engine=%v reference=%v",
				v, got.InSet[v], want.InSet[v])
		}
	}
	if Assess(g, got.InSet, dead, k).DeficientNodes != 0 {
		t.Fatal("repair left deficient nodes")
	}
}

// TestRepairTouchedScalesWithDamage pins the damage-proportionality claim
// at the unit level: on a large sparse instance, up to 20 failed heads
// must leave almost the whole graph untouched by the promotion pass, and
// each repair touches only the deficient nodes and the closed
// neighborhoods of the heads it promotes.
func TestRepairTouchedScalesWithDamage(t *testing.T) {
	g := graph.GnpAvgDegree(5000, 8, 3)
	const k = 2
	mask := prunedMask(g, feasibleMask(t, g, k), k)
	heads := []graph.NodeID{}
	for v, in := range mask {
		if in {
			heads = append(heads, graph.NodeID(v))
		}
	}
	// The pruned mask is irredundant, so a few head failures certainly
	// create deficits; each repair must stay confined to them: the
	// frontier plus one closed neighborhood (at most Δ+1 nodes) per
	// promoted head, and at most k promotions per deficient node. On top
	// of those structural bounds, a fixed cap independent of n: this
	// fixture peaks at 350 touched nodes (39 deficient, 20 failed heads),
	// and maxTouched leaves about 30% margin above that.
	const maxTouched = 450
	maxClosed := g.MaxDegree() + 1
	dead := map[graph.NodeID]bool{}
	promoted := 0
	for i := 0; i < 20 && i < len(heads); i++ {
		dead[heads[i]] = true
		res, err := Repair(g, mask, dead, k)
		if err != nil {
			t.Fatal(err)
		}
		deficient := Assess(g, mask, dead, k).DeficientNodes
		if res.Promoted > k*deficient {
			t.Fatalf("%d-head failure promoted %d for %d deficient nodes", i+1, res.Promoted, deficient)
		}
		if res.Touched > maxTouched {
			t.Fatalf("%d-head failure touched %d of %d nodes (cap %d); not damage-proportional",
				i+1, res.Touched, g.NumNodes(), maxTouched)
		}
		if bound := deficient + res.Promoted*maxClosed; res.Touched > bound {
			t.Fatalf("%d-head failure touched %d of %d nodes, beyond the damage bound %d; not damage-proportional",
				i+1, res.Touched, g.NumNodes(), bound)
		}
		promoted += res.Promoted
	}
	if promoted == 0 {
		t.Fatal("no failure triggered a promotion; test exercised nothing")
	}
}
