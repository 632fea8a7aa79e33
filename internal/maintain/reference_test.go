package maintain

// A global-pass Repair kept as a test-only reference: it recomputes
// coverage from the mask for every node it examines and sweeps all n
// nodes every promotion round, which is what the engine's incremental
// coverage exists to avoid — and what the equivalence matrix in
// equivalence_test.go pins the engine against, bit for bit.

import (
	"fmt"

	"ftclust/internal/graph"
)

// repairReference is the global-pass Repair. Semantics are the published
// contract — ascending ID order, each promotion counted before the next
// node's need — and only its cost differs from the engine.
func repairReference(g *graph.Graph, leader []bool, dead map[graph.NodeID]bool, k int) (RepairResult, error) {
	n := g.NumNodes()
	if len(leader) != n {
		return RepairResult{}, errMaskLen(len(leader), n)
	}
	if k < 1 {
		return RepairResult{}, errBadK(k)
	}
	inSet := make([]bool, n)
	for v := 0; v < n; v++ {
		inSet[v] = leader[v] && !dead[graph.NodeID(v)]
	}
	res := RepairResult{InSet: inSet}

	// Live closed-neighborhood demand per node.
	demand := make([]int, n)
	for v := 0; v < n; v++ {
		if dead[graph.NodeID(v)] {
			continue
		}
		liveDeg := 0
		for _, w := range g.Neighbors(graph.NodeID(v)) {
			if !dead[w] {
				liveDeg++
			}
		}
		demand[v] = minInt(k, liveDeg+1)
	}

	// liveCov counts v's live dominators in the current mask — recounted
	// from scratch at every use, the full rescan the engine avoids.
	liveCov := func(v int) int {
		c := 0
		forClosedLive(g, v, dead, func(u int) {
			if inSet[u] {
				c++
			}
		})
		return c
	}
	for iter := 0; ; iter++ {
		deficitNodes := 0
		for v := 0; v < n; v++ {
			if !dead[graph.NodeID(v)] && liveCov(v) < demand[v] {
				deficitNodes++
			}
		}
		if deficitNodes == 0 {
			res.Iterations = iter
			return res, nil
		}
		// One round: every node in ascending ID order promotes its lowest-ID
		// live non-member closed neighbors to close its own gap, measured
		// against the mask as promoted so far (earlier nodes' promotions
		// count toward later nodes' coverage).
		for v := 0; v < n; v++ {
			if dead[graph.NodeID(v)] {
				continue
			}
			need := demand[v] - liveCov(v)
			forClosedLive(g, v, dead, func(u int) {
				if need > 0 && !inSet[u] {
					inSet[u] = true
					res.Promoted++
					need--
				}
			})
		}
	}
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

func errMaskLen(got, n int) error {
	return fmt.Errorf("maintain: mask has %d entries for %d nodes", got, n)
}

func errBadK(k int) error {
	return fmt.Errorf("maintain: k must be ≥ 1, got %d", k)
}
