// Package maintain keeps a k-fold clustering alive under churn without
// re-running the full algorithm: when cluster heads fail (or nodes move),
// the repair routine restores k-coverage with purely local promotions —
// the same promotion machinery as Part II of Algorithm 3, applied to the
// residual deficit only. This is the incremental counterpart the paper's
// motivation calls for: a k-fold dominating set tolerates up to k−1 local
// failures outright, and repair replenishes the budget afterwards.
//
// One engine implements the promotion rule:
//
//   - Engine is the streaming API: a long-lived session applies batches
//     of topology and liveness deltas; coverage state is maintained
//     incrementally, so each repair costs O(affected neighborhood) with
//     no linear pass at all.
//   - Repair is the one-shot API and exactly one engine batch: building
//     the engine on a mask and a failure set is ONE linear assessment
//     pass that queues the deficit frontier, and the batch's promotion
//     pass touches only the deficient neighborhoods — never a full
//     rescan. BENCH_repair.json measures both claims.
package maintain

import "ftclust/internal/graph"

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
// Repair is one Engine batch: building the engine with the failures
// already applied is the single linear assessment pass, and it queues the
// deficient nodes (for a mask that k-covered the pre-failure graph these
// all sit inside the failed nodes' 1-hop neighborhoods); the batch's
// promotion pass then touches only those nodes and the neighborhoods of
// the heads it promotes, so it costs O(deficit neighborhood), not O(n·Δ).
func Repair(g *graph.Graph, leader []bool, dead map[graph.NodeID]bool, k int) (RepairResult, error) {
	e, err := newEngine(g, leader, dead, k, Options{})
	if err != nil {
		return RepairResult{}, err
	}
	p := e.Apply(nil)
	return RepairResult{
		InSet:      e.inSet,
		Promoted:   len(p.Entered),
		Iterations: p.Iterations,
		Touched:    p.Touched,
	}, nil
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

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}
