// Package maintain keeps a k-fold clustering alive under churn without
// re-running the full algorithm: when cluster heads fail (or nodes move),
// the repair routine restores k-coverage with purely local promotions —
// the same promotion machinery as Part II of Algorithm 3, applied to the
// residual deficit only. This is the incremental counterpart the paper's
// motivation calls for: a k-fold dominating set tolerates up to k−1 local
// failures outright, and repair replenishes the budget afterwards.
//
// Two entry points share the promotion machinery:
//
//   - Repair is the one-shot API: given a mask and a failure set it runs
//     ONE linear assessment pass to find the deficit frontier, then one
//     promotion pass that touches only the deficient neighborhoods —
//     never a full rescan.
//   - Engine is the streaming API: a long-lived session applies batches
//     of topology and liveness deltas; coverage state is maintained
//     incrementally, so each repair costs O(affected neighborhood) with
//     no linear pass at all. BENCH_repair.json measures both claims.
package maintain

import (
	"fmt"

	"ftclust/internal/graph"
)

// RepairResult reports what a repair did.
type RepairResult struct {
	// InSet is the repaired dominator mask (dead nodes never included).
	InSet []bool
	// Promoted counts the nodes newly added.
	Promoted int
	// Iterations is the number of promotion passes: 1 when any node was
	// deficient, else 0 (one ascending pass always closes every deficit).
	Iterations int
	// Touched counts the distinct nodes whose coverage state the
	// promotion pass examined or updated — the "damage" the repair
	// actually paid for, excluding the initial linear assessment. For
	// localized failures this scales with the failure neighborhood, not
	// with n.
	Touched int
}

// Repair restores k-fold domination after failures. leader is the current
// dominator mask; dead marks failed nodes (they neither serve nor demand
// coverage). Every surviving node v gets min(k, live-degree+1) live
// dominators in its closed neighborhood.
//
// The implementation is worklist-driven: one linear pass computes live
// coverage and seeds the frontier with the deficient nodes (for a mask
// that k-covered the pre-failure graph these all sit inside the failed
// nodes' 1-hop neighborhoods); the promotion pass after that touches only
// those nodes and the neighborhoods of the heads it promotes, updating
// coverage incrementally. Deficits never spread — promotion only raises
// coverage — so the pass costs O(deficit neighborhood), not O(n·Δ). The
// result is identical to running the promotion rule over all nodes in
// ascending ID order.
func Repair(g *graph.Graph, leader []bool, dead map[graph.NodeID]bool, k int) (RepairResult, error) {
	n := g.NumNodes()
	if len(leader) != n {
		return RepairResult{}, fmt.Errorf("maintain: mask has %d entries for %d nodes", len(leader), n)
	}
	if k < 1 {
		return RepairResult{}, fmt.Errorf("maintain: k must be ≥ 1, got %d", k)
	}
	inSet := make([]bool, n)
	for v := 0; v < n; v++ {
		inSet[v] = leader[v] && !dead[graph.NodeID(v)]
	}
	res := RepairResult{InSet: inSet}

	// One linear assessment pass: live coverage, capped live demand, and
	// the initial deficit frontier. This is the only full scan.
	cov := make([]int32, n)
	demand := make([]int32, n)
	var frontier []int32 // deficient nodes, ascending
	for v := 0; v < n; v++ {
		if dead[graph.NodeID(v)] {
			continue
		}
		liveDeg := 0
		c := 0
		if inSet[v] {
			c++
		}
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if !dead[w] {
				liveDeg++
				if inSet[w] {
					c++
				}
			}
		}
		cov[v] = int32(c)
		demand[v] = int32(minInt(k, liveDeg+1))
		if cov[v] < demand[v] {
			frontier = append(frontier, int32(v))
		}
	}

	touched := make([]bool, n)
	countTouch := func(v int) {
		if !touched[v] {
			touched[v] = true
			res.Touched++
		}
	}

	// One promotion pass over the frontier, ascending ID: each deficient
	// node promotes its lowest-ID live non-member closed neighbors to close
	// its own gap, and every promotion's coverage lands before the next
	// node computes its need, so neighbors sharing a gap never promote
	// for it twice. Coverage never decreases and demand is fixed, so a
	// node stays satisfied once its turn has passed, and its live closed
	// neighborhood (at least demand nodes) always holds enough candidates:
	// one pass leaves no deficit.
	if len(frontier) > 0 {
		res.Iterations = 1
	}
	for _, vv := range frontier {
		v := int(vv)
		countTouch(v)
		need := demand[v] - cov[v]
		if need <= 0 {
			continue // covered by an earlier node's promotions
		}
		forClosedLive(g, v, dead, func(u int) {
			if need <= 0 || inSet[u] {
				return
			}
			need--
			inSet[u] = true
			res.Promoted++
			countTouch(u)
			// The new head covers its live closed neighborhood.
			cov[u]++
			for _, w := range g.Neighbors(graph.NodeID(u)) {
				if !dead[w] {
					cov[w]++
					countTouch(int(w))
				}
			}
		})
	}
	return res, nil
}

// Damage summarizes the deficit caused by failures, before repair.
type Damage struct {
	// DeficientNodes counts live nodes below their k-coverage.
	DeficientNodes int
	// LostHeads counts failed dominators.
	LostHeads int
}

// Assess measures the coverage damage of a failure set.
func Assess(g *graph.Graph, leader []bool, dead map[graph.NodeID]bool, k int) Damage {
	var d Damage
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		if leader[v] && dead[graph.NodeID(v)] {
			d.LostHeads++
		}
	}
	for v := 0; v < n; v++ {
		if dead[graph.NodeID(v)] {
			continue
		}
		liveDeg, cov := 0, 0
		if leader[v] && !dead[graph.NodeID(v)] {
			cov++
		}
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if dead[w] {
				continue
			}
			liveDeg++
			if leader[w] {
				cov++
			}
		}
		if cov < minInt(k, liveDeg+1) {
			d.DeficientNodes++
		}
	}
	return d
}

// forClosedLive visits the live members of v's closed neighborhood in
// ascending ID order.
func forClosedLive(g *graph.Graph, v int, dead map[graph.NodeID]bool, fn func(u int)) {
	visitedSelf := false
	self := func() {
		if !dead[graph.NodeID(v)] {
			fn(v)
		}
	}
	for _, w := range g.Neighbors(graph.NodeID(v)) {
		if !visitedSelf && int(w) > v {
			self()
			visitedSelf = true
		}
		if !dead[w] {
			fn(int(w))
		}
	}
	if !visitedSelf {
		self()
	}
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
