package main

// Workloads and the seeded input generator. Every input is a function of
// (-seed, workload) and is built before the server starts: the server
// only ever sees request bodies.

import (
	"encoding/json"
	"fmt"
	"math"
	"sort"

	"ftclust/internal/core"
	"ftclust/internal/geom"
	"ftclust/internal/graph"
	"ftclust/internal/mobility"
	"ftclust/internal/rng"
	"ftclust/internal/service"
)

// Every request asks for a 2-fold dominating set with trade-off t = 3, and
// every workload is driven by two closed-loop clients (one per CPU of the
// 2-CPU machines the benchmark is sized for).
const (
	paramK  = 2
	paramT  = 3
	clients = 2
)

// failBatch is how many nodes one failure batch takes down: the session
// stream's periodic failures, and the batch the traced replay applies to
// the solve workloads' answers.
const failBatch = 20

type kind int

const (
	coldSolve    kind = iota // never-seen relabelings of base deployments
	warmSolve                // a hot set solved during warm-up, then repeated
	sessionDelta             // a mobility delta stream into one session per client
)

// workload is one traffic mix. The exported fields are the parameters the
// output header records; tests shrink them.
type workload struct {
	Name   string  `json:"name"`
	kind   kind    // request path
	N      int     `json:"n"`
	Degree float64 `json:"avg_degree"`
	// Deployments is the number of base unit-disk deployments: cold
	// request i relabels deployment i mod Deployments, warm requests cycle
	// through them unchanged.
	Deployments int `json:"deployments,omitempty"`
	// QualityRequests is how many leading cold request indexes enter
	// approx_ratio; the clients keep going past the window until every
	// one of them is answered.
	QualityRequests int `json:"quality_requests,omitempty"`
	// Session stream: random-waypoint Speed per step, Steps precomputed
	// steps played forward then backward, FailNodes nodes failed every
	// FailEvery steps and revived ReviveAfter steps later, and the live
	// topology sampled every SampleEvery steps of the first forward pass.
	Speed       float64 `json:"speed,omitempty"`
	Steps       int     `json:"steps,omitempty"`
	FailEvery   int     `json:"fail_every,omitempty"`
	FailNodes   int     `json:"fail_nodes,omitempty"`
	ReviveAfter int     `json:"revive_after,omitempty"`
	SampleEvery int     `json:"sample_every,omitempty"`
	Why         string  `json:"why"`
}

// workloads returns the benchmark's traffic mixes. BENCHMARK.json at the
// repository root carries the same names and reasons.
func workloads() []workload {
	return []workload{
		{
			Name: "cold-sparse", kind: coldSolve, N: 5000, Degree: 10,
			Deployments: 32, QualityRequests: 256,
			Why: "never-seen n=5000 deployments: the dominant client path, rounding-bound, bitset gate off",
		},
		{
			Name: "cold-dense", kind: coldSolve, N: 2000, Degree: 40,
			Deployments: 32, QualityRequests: 256,
			Why: "dense n=2000 deployments: bitset gate on, wire decode and graph build weigh against rounding",
		},
		{
			Name: "warm-repeat", kind: warmSolve, N: 5000, Degree: 10, Deployments: 16,
			Why: "16 hot deployments answered from the cache: decode, build, hash and encode only, no solver",
		},
		{
			Name: "session-mobility", kind: sessionDelta, N: 2000, Degree: 8,
			Speed: 0.05, Steps: 200, FailEvery: 10, FailNodes: failBatch, ReviveAfter: 5, SampleEvery: 10,
			Why: "random-waypoint deltas into live sessions: the maintain engine write path and its drift re-solves",
		},
	}
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads() {
		if w.Name == name {
			return w, nil
		}
		names = append(names, w.Name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %v)", name, names)
}

// Seed-stream tags: each kind of input draws from its own family of
// streams derived from the run seed.
const (
	tagDeployment uint64 = iota + 1
	tagRelabel
	tagWarmup
	tagSession
	tagFail
)

func stream(seed int64, tag, i uint64) int64 {
	return rng.Derive(rng.Derive(seed, tag), i)
}

// deploymentSide returns the side of the square in which n uniform nodes
// have the given expected unit-disk degree, border effects included: two
// uniform points of an L×L square lie within distance 1 with probability
// π/L² − 8/(3L³) + 1/(2L⁴).
func deploymentSide(n int, degree float64) float64 {
	lo, hi := 1.0, float64(n)+1
	for i := 0; i < 64; i++ {
		l := (lo + hi) / 2
		p := math.Pi/(l*l) - 8/(3*l*l*l) + 1/(2*l*l*l*l)
		if float64(n-1)*p > degree {
			lo = l
		} else {
			hi = l
		}
	}
	return (lo + hi) / 2
}

// deployment is one base instance with the demand vector its answers are
// verified against.
type deployment struct {
	g       *graph.Graph
	demands []float64
}

func newDeployment(n int, degree float64, seed int64) deployment {
	g, _ := geom.UnitUDG(geom.UniformPoints(n, deploymentSide(n, degree), seed))
	return deployment{g: g, demands: core.EffectiveDemands(g, paramK)}
}

// edgePairs lists g's edges as wire pairs, renaming node v to perm[v]
// when perm is non-nil.
func edgePairs(g *graph.Graph, perm []int) [][2]int {
	out := make([][2]int, 0, g.NumEdges())
	g.Edges(func(u, v graph.NodeID) {
		if perm != nil {
			out = append(out, [2]int{perm[u], perm[v]})
		} else {
			out = append(out, [2]int{int(u), int(v)})
		}
	})
	return out
}

func solveBody(n int, edges [][2]int) ([]byte, error) {
	return json.Marshal(service.SolveRequest{
		Graph: &service.GraphSpec{N: n, Edges: edges},
		K:     paramK,
		T:     paramT,
	})
}

// solveInputs are the inputs of the cold and warm workloads.
type solveInputs struct {
	seed  int64
	bases []deployment
	// hot holds the warm workload's request bodies, one per deployment.
	hot [][]byte
}

func newSolveInputs(w workload, seed int64) (*solveInputs, error) {
	in := &solveInputs{seed: seed}
	for j := 0; j < w.Deployments; j++ {
		in.bases = append(in.bases, newDeployment(w.N, w.Degree, stream(seed, tagDeployment, uint64(j))))
	}
	if w.kind == warmSolve {
		for _, d := range in.bases {
			body, err := solveBody(w.N, edgePairs(d.g, nil))
			if err != nil {
				return nil, err
			}
			in.hot = append(in.hot, body)
		}
	}
	return in, nil
}

// relabel returns the base deployment and the permutation of cold request
// i of the stream tag (tagRelabel for the window, tagWarmup for warm-up):
// base node v is request node perm[v].
func (in *solveInputs) relabel(tag uint64, i int) (int, []int) {
	base := i % len(in.bases)
	return base, rng.New(stream(in.seed, tag, uint64(i))).Perm(in.bases[base].g.NumNodes())
}

// coldBody encodes cold request i of the stream tag. It depends on
// nothing but the seed, tag and i, so the clients' interleaving cannot
// change any body.
func (in *solveInputs) coldBody(tag uint64, i int) ([]byte, error) {
	base, perm := in.relabel(tag, i)
	g := in.bases[base].g
	return solveBody(g.NumNodes(), edgePairs(g, perm))
}

// sessionInput is one client's session: the deployment it opens with and
// the precomputed mobility stream it plays.
type sessionInput struct {
	base   *graph.Graph
	create []byte
	// steps[s-1] are the ops of forward step s.
	steps [][]service.DeltaOp
	// bodies is one playback cycle: the forward steps, then their inverses
	// from the last step back to the first, which returns the session to
	// its base topology with every node alive.
	bodies [][]byte
	// samples are the live topologies at every SampleEvery-th step of the
	// first forward pass.
	samples []topoSample
}

type topoSample struct {
	step int
	live *graph.Graph
}

func newSessionInput(w workload, seed int64, client int) (*sessionInput, error) {
	m := mobility.NewRandomWaypoint(w.N, deploymentSide(w.N, w.Degree), w.Speed,
		stream(seed, tagSession, uint64(client)))
	prev, _ := geom.UnitUDG(m.Points())
	create, err := solveBody(w.N, edgePairs(prev, nil))
	if err != nil {
		return nil, err
	}
	in := &sessionInput{base: prev, create: create}
	dead := make([]bool, w.N)
	var failed []int
	for s := 1; s <= w.Steps; s++ {
		// A step moves the nodes until the topology changes, so no delta
		// is empty (one move always suffices at benchmark sizes).
		var cur *graph.Graph
		var ops []service.DeltaOp
		for len(ops) == 0 {
			m.Step()
			cur, _ = geom.UnitUDG(m.Points())
			ops = edgeDiff(prev, cur)
		}
		switch {
		case s%w.FailEvery == 0:
			failed = pickNodes(w.N, w.FailNodes, stream(seed, tagFail, uint64(client*w.Steps+s)))
			ops = append(ops, service.DeltaOp{Op: "fail", Nodes: failed})
			setAll(dead, failed, true)
		case s%w.FailEvery == w.ReviveAfter && failed != nil:
			ops = append(ops, service.DeltaOp{Op: "revive", Nodes: failed})
			setAll(dead, failed, false)
			failed = nil
		}
		in.steps = append(in.steps, ops)
		if s%w.SampleEvery == 0 {
			in.samples = append(in.samples, topoSample{step: s, live: liveSubgraph(cur, dead)})
		}
		prev = cur
	}
	for q := 0; q < 2*w.Steps; q++ {
		body, err := json.Marshal(service.DeltaRequest{Ops: in.playback(q)})
		if err != nil {
			return nil, err
		}
		in.bodies = append(in.bodies, body)
	}
	return in, nil
}

// playback returns the ops at position q of the playback cycle.
func (in *sessionInput) playback(q int) []service.DeltaOp {
	s := len(in.steps)
	q %= 2 * s
	if q < s {
		return in.steps[q]
	}
	return inverseOps(in.steps[2*s-1-q])
}

// forwardStep maps a count of applied playback steps to the forward step
// whose state the session is in (0 = the base deployment).
func (in *sessionInput) forwardStep(applied int) int {
	s := len(in.steps)
	r := applied % (2 * s)
	if r <= s {
		return r
	}
	return 2*s - r
}

func edgeOp(op string, u, v graph.NodeID) service.DeltaOp {
	a, b := int(u), int(v)
	return service.DeltaOp{Op: op, U: &a, V: &b}
}

// edgeDiff lists the ops turning topology prev into cur: deletions, then
// insertions, each in ascending edge order.
func edgeDiff(prev, cur *graph.Graph) []service.DeltaOp {
	var ops []service.DeltaOp
	prev.Edges(func(u, v graph.NodeID) {
		if !cur.HasEdge(u, v) {
			ops = append(ops, edgeOp("del_edge", u, v))
		}
	})
	cur.Edges(func(u, v graph.NodeID) {
		if !prev.HasEdge(u, v) {
			ops = append(ops, edgeOp("add_edge", u, v))
		}
	})
	return ops
}

// inverseOps undoes a batch: the inverse of every op, in reverse order.
func inverseOps(ops []service.DeltaOp) []service.DeltaOp {
	inv := map[string]string{"fail": "revive", "revive": "fail", "add_edge": "del_edge", "del_edge": "add_edge"}
	out := make([]service.DeltaOp, len(ops))
	for i, op := range ops {
		op.Op = inv[op.Op]
		out[len(ops)-1-i] = op
	}
	return out
}

// pickNodes draws count distinct nodes of [0, n), ascending.
func pickNodes(n, count int, seed int64) []int {
	nodes := append([]int(nil), rng.New(seed).Perm(n)[:count]...)
	sort.Ints(nodes)
	return nodes
}

func setAll(mask []bool, nodes []int, v bool) {
	for _, u := range nodes {
		mask[u] = v
	}
}

// liveSubgraph is the instance a session's certified re-solve runs on:
// g induced on its live nodes, renumbered in ascending order.
func liveSubgraph(g *graph.Graph, dead []bool) *graph.Graph {
	keep := make([]graph.NodeID, 0, g.NumNodes())
	for v := 0; v < g.NumNodes(); v++ {
		if !dead[v] {
			keep = append(keep, graph.NodeID(v))
		}
	}
	sub, _ := g.Subgraph(keep)
	return sub
}
