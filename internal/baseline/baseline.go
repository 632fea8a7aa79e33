// Package baseline implements the comparison algorithms the paper's
// related-work section positions against:
//
//   - the centralized greedy multicover algorithm [20, 21] — the best
//     polynomial-time approximation (ln Δ) and the quality yardstick;
//   - a JRS-style distributed randomized greedy (Jia, Rajaraman, Suel [9]),
//     the only prior distributed k-MDS algorithm in general graphs;
//   - random sampling followed by Algorithm-2-style repair, the naive
//     O(1)-round randomized baseline;
//   - a cell-grid clustering baseline for unit disk graphs (pick k nodes
//     per occupied cell of side 1/√2), the folklore geometric solution.
package baseline

import (
	"fmt"
	"math"

	"ftclust/internal/geom"
	"ftclust/internal/graph"
	"ftclust/internal/lp"
	"ftclust/internal/rng"
)

// GreedyKMDS runs the centralized greedy multicover algorithm under the
// (PP) convention with demands min(k, δ(v)+1). It returns the chosen mask.
func GreedyKMDS(g *graph.Graph, k float64) []bool {
	c := lp.FromGraph(g, lp.UniformK(g.NumNodes(), k))
	mask, _ := c.Greedy()
	return mask
}

// JRSResult is the outcome of the JRS-style distributed greedy.
type JRSResult struct {
	InSet []bool
	// Phases is the number of candidate-election phases executed; each
	// phase costs a constant number of communication rounds.
	Phases int
	// Forced counts nodes recruited by the final deterministic cleanup
	// (only reached if randomization stalls past the phase cap).
	Forced int
}

// JRS runs a JRS-style distributed randomized greedy for k-fold domination:
// in each phase, nodes whose span (number of still-uncovered closed
// neighbors) is within a factor 2 of the maximum span in their 2-hop
// neighborhood become candidates and join with probability 1/c̄, where c̄
// is the largest candidate count over the uncovered constraints they
// touch. After maxPhases (default 8·log²(n+2)) any remaining deficit is
// closed deterministically, mirroring the w.h.p. termination of [9].
func JRS(g *graph.Graph, k float64, seed int64) JRSResult {
	n := g.NumNodes()
	r := rng.New(seed)
	inSet := make([]bool, n)
	demand := make([]float64, n)
	for v := 0; v < n; v++ {
		demand[v] = math.Min(k, float64(g.Degree(graph.NodeID(v))+1))
	}
	cov := make([]float64, n)
	maxPhases := int(8*math.Pow(math.Log2(float64(n+2)), 2)) + 4

	res := JRSResult{InSet: inSet}
	for phase := 0; phase < maxPhases; phase++ {
		res.Phases = phase + 1
		// Residual demands and spans.
		span := make([]int, n)
		anyUncovered := false
		for v := 0; v < n; v++ {
			if cov[v] < demand[v] {
				anyUncovered = true
			}
		}
		if !anyUncovered {
			return res
		}
		for v := 0; v < n; v++ {
			if inSet[v] {
				continue
			}
			s := 0
			forClosed(g, v, func(u int) {
				if cov[u] < demand[u] {
					s++
				}
			})
			span[v] = s
		}
		// 2-hop maximum span.
		max1 := maxOverClosed(g, span)
		max2 := maxOverClosed(g, max1)
		candidate := make([]bool, n)
		for v := 0; v < n; v++ {
			if !inSet[v] && span[v] > 0 && 2*span[v] >= max2[v] {
				candidate[v] = true
			}
		}
		// Candidate load per uncovered constraint, then join probability.
		load := make([]int, n)
		for v := 0; v < n; v++ {
			if cov[v] >= demand[v] {
				continue
			}
			forClosed(g, v, func(u int) {
				if candidate[u] {
					load[v]++
				}
			})
		}
		for v := 0; v < n; v++ {
			if !candidate[v] {
				continue
			}
			worst := 1
			forClosed(g, v, func(u int) {
				if cov[u] < demand[u] && load[u] > worst {
					worst = load[u]
				}
			})
			if r.Float64() < 1/float64(worst) {
				inSet[v] = true
			}
		}
		// Refresh coverage.
		newCov := coverageOf(g, inSet)
		copy(cov, newCov)
	}
	// Deterministic cleanup: each uncovered node recruits lowest-ID
	// non-members to close its deficit.
	for v := 0; v < n; v++ {
		if cov[v] >= demand[v] {
			continue
		}
		deficit := int(math.Ceil(demand[v] - cov[v] - 1e-12))
		forClosed(g, v, func(u int) {
			if deficit > 0 && !inSet[u] {
				inSet[u] = true
				res.Forced++
				deficit--
			}
		})
		copy(cov, coverageOf(g, inSet))
	}
	return res
}

// RandomRepair samples every node independently with probability p and
// then repairs deficits exactly like Algorithm 2's REQ step. It is the
// naive O(1)-round baseline: correct, but with no size guarantee.
func RandomRepair(g *graph.Graph, k float64, p float64, seed int64) []bool {
	n := g.NumNodes()
	inSet := make([]bool, n)
	r := rng.NewStream(0, 0) // re-seeded to node v's stream v+1 below
	for v := 0; v < n; v++ {
		rng.Reseed(r, seed, uint64(v)+1)
		if r.Float64() < p {
			inSet[v] = true
		}
	}
	recruit := make([]bool, n)
	for v := 0; v < n; v++ {
		kv := math.Min(k, float64(g.Degree(graph.NodeID(v))+1))
		covV := 0.0
		forClosed(g, v, func(u int) {
			if inSet[u] {
				covV++
			}
		})
		deficit := int(math.Ceil(kv - covV - 1e-12))
		forClosed(g, v, func(u int) {
			if deficit > 0 && !inSet[u] && !recruit[u] {
				recruit[u] = true
				deficit--
			}
		})
	}
	for v := 0; v < n; v++ {
		if recruit[v] {
			inSet[v] = true
		}
	}
	return inSet
}

// CellGrid is the folklore UDG baseline: partition the plane into square
// cells of side 1/√2 (any two nodes in a cell are adjacent) and select the
// min(k, cell population) lowest-ID nodes per occupied cell. The result is
// a k-fold dominating set under the standard (Section 1) convention.
func CellGrid(pts []geom.Point, k int) ([]bool, error) {
	if k < 1 {
		return nil, fmt.Errorf("baseline: k must be ≥ 1, got %d", k)
	}
	side := 1 / math.Sqrt2
	cells := make(map[[2]int][]int)
	for i, p := range pts {
		key := [2]int{int(math.Floor(p.X / side)), int(math.Floor(p.Y / side))}
		cells[key] = append(cells[key], i)
	}
	inSet := make([]bool, len(pts))
	for _, members := range cells {
		// Point indices were appended in ascending order already.
		take := k
		if take > len(members) {
			take = len(members)
		}
		for i := 0; i < take; i++ {
			inSet[members[i]] = true
		}
	}
	return inSet, nil
}

// AllNodes returns the trivial solution S = V (the upper anchor for
// fault-tolerance comparisons).
func AllNodes(n int) []bool {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	return mask
}

func coverageOf(g *graph.Graph, inSet []bool) []float64 {
	n := g.NumNodes()
	cov := make([]float64, n)
	for v := 0; v < n; v++ {
		forClosed(g, v, func(u int) {
			if inSet[u] {
				cov[v]++
			}
		})
	}
	return cov
}

// maxOverClosed returns, per node, the max of vals over its closed
// neighborhood.
func maxOverClosed(g *graph.Graph, vals []int) []int {
	n := g.NumNodes()
	out := make([]int, n)
	for v := 0; v < n; v++ {
		m := vals[v]
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if vals[w] > m {
				m = vals[w]
			}
		}
		out[v] = m
	}
	return out
}

// forClosed visits the closed neighborhood of v in ascending ID order.
func forClosed(g *graph.Graph, v int, fn func(u int)) {
	visitedSelf := false
	for _, w := range g.Neighbors(graph.NodeID(v)) {
		if !visitedSelf && int(w) > v {
			fn(v)
			visitedSelf = true
		}
		fn(int(w))
	}
	if !visitedSelf {
		fn(v)
	}
}
