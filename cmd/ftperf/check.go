package main

// Correctness checks. They run after the window, so they never compete
// with the server for CPU. A failed check counts in the run's failures
// and makes the run exit non-zero.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"slices"

	"ftclust"
	"ftclust/internal/core"
	"ftclust/internal/graph"
	"ftclust/internal/service"
	"ftclust/internal/verify"
)

// checker counts requests and run-level checks as attempted, and every
// failure: a request fails at most once (its first failed check); a
// run-level check fails once.
type checker struct {
	attempted int
	failed    int
	shown     int
}

func (ck *checker) fail(format string, args ...any) {
	ck.failed++
	if ck.shown < 10 {
		ck.shown++
		fmt.Fprintf(os.Stderr, "ftperf: check failed: "+format+"\n", args...)
	}
}

// runCheck records one run-level check.
func (ck *checker) runCheck(err error) {
	ck.attempted++
	if err != nil {
		ck.fail("%v", err)
	}
}

// replyErr reports a transport error or an unexpected status.
func replyErr(s sample, want int) error {
	if s.err != nil {
		return s.err
	}
	if s.status != want {
		return fmt.Errorf("status %d, want %d: %.200s", s.status, want, s.body)
	}
	return nil
}

func decodeStrict(body []byte, dst any) error {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	return dec.Decode(dst)
}

// checkSolution checks one solution body for a relabeled instance of the
// deployment d (perm nil = d itself): the wire fields, and that the
// members form a ClosedPP k-fold cover of the instance the client sent,
// against its EffectiveDemands. The cover is checked on d through the
// inverse relabeling; demands are invariant under relabeling.
func checkSolution(body []byte, d deployment, perm []int) (*service.SolutionJSON, error) {
	var sol service.SolutionJSON
	if err := decodeStrict(body, &sol); err != nil {
		return nil, fmt.Errorf("decoding solution: %w", err)
	}
	n := d.g.NumNodes()
	switch {
	case sol.N != n || sol.Edges != d.g.NumEdges() || sol.K != paramK:
		return nil, fmt.Errorf("solution is for n=%d m=%d k=%d, want n=%d m=%d k=%d",
			sol.N, sol.Edges, sol.K, n, d.g.NumEdges(), paramK)
	case sol.Size != len(sol.Members):
		return nil, fmt.Errorf("size %d but %d members", sol.Size, len(sol.Members))
	case !sol.Verified:
		return nil, fmt.Errorf("solution not marked verified")
	case !(sol.CertifiedLowerBound > 0):
		return nil, fmt.Errorf("certified lower bound %v is not positive", sol.CertifiedLowerBound)
	}
	var inv []int
	if perm != nil {
		inv = make([]int, n)
		for v, p := range perm {
			inv[p] = v
		}
	}
	mask := make([]bool, n)
	prev := -1
	for _, m := range sol.Members {
		if m <= prev || m >= n {
			return nil, fmt.Errorf("members not ascending within [0,%d) at %d", n, m)
		}
		prev = m
		if inv != nil {
			m = inv[m]
		}
		mask[m] = true
	}
	if err := verify.CheckKFoldVector(d.g, mask, d.demands, verify.ClosedPP); err != nil {
		return nil, err
	}
	return &sol, nil
}

// checkSolveRun checks every warm-up and window reply of a cold or warm
// run. Cold replies are verified on their instance; warm window replies
// must equal the warm-up reply for their deployment byte for byte, and
// the warm-up replies are verified. It returns size / certified lower
// bound of the quality set: cold requests 0 … QualityRequests-1, or the
// warm workload's hot set.
func checkSolveRun(ck *checker, w workload, in *solveInputs, warm, window []sample) (ratios []float64) {
	seen := make([]bool, w.QualityRequests)
	hot := make([][]byte, len(in.bases))
	for _, s := range warm {
		ck.attempted++
		if err := replyErr(s, http.StatusOK); err != nil {
			ck.fail("warm-up %d: %v", s.index, err)
			continue
		}
		base, perm := s.index, []int(nil)
		if w.kind == coldSolve {
			base, perm = in.relabel(tagWarmup, s.index)
		}
		sol, err := checkSolution(s.body, in.bases[base], perm)
		if err != nil {
			ck.fail("warm-up %d: %v", s.index, err)
			continue
		}
		if w.kind == warmSolve {
			hot[base] = s.body
			ratios = append(ratios, float64(sol.Size)/sol.CertifiedLowerBound)
		}
	}
	for _, s := range window {
		ck.attempted++
		if err := replyErr(s, http.StatusOK); err != nil {
			ck.fail("request %d: %v", s.index, err)
			continue
		}
		if w.kind == warmSolve {
			if !bytes.Equal(s.body, hot[s.index%len(hot)]) {
				ck.fail("request %d: warm reply differs from its warm-up reply", s.index)
			}
			continue
		}
		base, perm := in.relabel(tagRelabel, s.index)
		sol, err := checkSolution(s.body, in.bases[base], perm)
		if err != nil {
			ck.fail("request %d: %v", s.index, err)
			continue
		}
		if s.index < len(seen) {
			seen[s.index] = true
			ratios = append(ratios, float64(sol.Size)/sol.CertifiedLowerBound)
		}
	}
	var err error
	if i := slices.Index(seen, false); i >= 0 {
		err = fmt.Errorf("request %d was never answered", i)
	}
	ck.runCheck(err)
	return ratios
}

// topology mirrors a session's topology and liveness on the client side.
type topology struct {
	ov   *graph.Overlay
	dead []bool
}

func newTopology(g *graph.Graph) *topology {
	return &topology{ov: graph.NewOverlay(g), dead: make([]bool, g.NumNodes())}
}

// apply plays one delta batch. The stream only fails live nodes and
// revives dead ones, so every op is exactly invertible; anything else is
// an error.
func (t *topology) apply(ops []service.DeltaOp) error {
	for i, op := range ops {
		var err error
		switch op.Op {
		case "add_edge":
			err = t.ov.AddEdge(graph.NodeID(*op.U), graph.NodeID(*op.V))
		case "del_edge":
			err = t.ov.DelEdge(graph.NodeID(*op.U), graph.NodeID(*op.V))
		case "fail", "revive":
			for _, v := range op.Nodes {
				if t.dead[v] == (op.Op == "fail") {
					err = fmt.Errorf("%s of node %d, which is already in that state", op.Op, v)
					break
				}
				t.dead[v] = op.Op == "fail"
			}
		default:
			err = fmt.Errorf("unknown op %q", op.Op)
		}
		if err != nil {
			return fmt.Errorf("op %d: %w", i, err)
		}
	}
	return nil
}

// checkLiveCover checks the maintained invariant of a session: no dead
// member, and every live node covered min(k, live degree + 1) times in
// its closed neighborhood by live members.
func checkLiveCover(g *graph.Graph, dead, members []bool) error {
	for v := 0; v < g.NumNodes(); v++ {
		if dead[v] {
			if members[v] {
				return fmt.Errorf("dead node %d is a member", v)
			}
			continue
		}
		liveDeg, cov := 0, 0
		if members[v] {
			cov++
		}
		for _, u := range g.Neighbors(graph.NodeID(v)) {
			if !dead[u] {
				liveDeg++
				if members[u] {
					cov++
				}
			}
		}
		if need := min(paramK, liveDeg+1); cov < need {
			return fmt.Errorf("live node %d has coverage %d of %d", v, cov, need)
		}
	}
	return nil
}

// sessionCheck is what the session checks hand to the metrics and the
// replay.
type sessionCheck struct {
	ids         []string // session ID per client
	members     [][]int  // create-time members per client
	ratios      []float64
	sizeVsFresh []float64
	fallbacks   []int // delta replies with fallback: true, per client
}

// checkSessionRun checks the session creates, every delta reply (epoch
// advances by exactly one; the patch applied to the client's mirrored
// member set reproduces the reported size), the final GET state against
// the client's own topology, and compares the session's set at sampled
// steps with a fresh solve of the same live topology.
func checkSessionRun(ck *checker, w workload, ins []*sessionInput, creates, window, states []sample) sessionCheck {
	out := sessionCheck{ids: make([]string, clients), members: make([][]int, clients), fallbacks: make([]int, clients)}
	for _, s := range creates {
		ck.attempted++
		if err := replyErr(s, http.StatusCreated); err != nil {
			ck.fail("session create %d: %v", s.client, err)
			continue
		}
		var cr service.SessionCreateResponse
		if err := decodeStrict(s.body, &cr); err != nil || cr.Solution == nil {
			ck.fail("session create %d: malformed reply (%v)", s.client, err)
			continue
		}
		body, err := json.Marshal(cr.Solution)
		if err == nil {
			g := ins[s.client].base
			_, err = checkSolution(body, deployment{g: g, demands: core.EffectiveDemands(g, paramK)}, nil)
		}
		if err != nil {
			ck.fail("session create %d: %v", s.client, err)
			continue
		}
		out.ids[s.client], out.members[s.client] = cr.SessionID, cr.Solution.Members
	}

	sizes := make([][]int, clients) // |S| after each step of the first forward pass
	applied := make([]int, clients)
	mirror := make([][]bool, clients)
	for c := range mirror {
		mirror[c] = make([]bool, w.N)
		setAll(mirror[c], out.members[c], true)
	}
	for _, s := range window {
		ck.attempted++
		c := s.client
		if out.ids[c] == "" {
			ck.fail("client %d: delta without a session", c)
			continue
		}
		if err := replyErr(s, http.StatusOK); err != nil {
			ck.fail("client %d step %d: %v", c, s.index, err)
			continue
		}
		var dr service.DeltaResponse
		if err := decodeStrict(s.body, &dr); err != nil {
			ck.fail("client %d step %d: decoding: %v", c, s.index, err)
			continue
		}
		size, err := applyPatch(mirror[c], dr.Patch)
		switch {
		case err != nil:
		case dr.SessionID != out.ids[c] || dr.Epoch != int64(applied[c]+1):
			err = fmt.Errorf("session %s epoch %d, want %s epoch %d", dr.SessionID, dr.Epoch, out.ids[c], applied[c]+1)
		case dr.Size != size || dr.N != w.N || !dr.Feasible:
			err = fmt.Errorf("reply size %d n %d feasible %v, mirror has %d members of %d", dr.Size, dr.N, dr.Feasible, size, w.N)
		}
		if err != nil {
			ck.fail("client %d step %d: %v", c, s.index, err)
			continue
		}
		applied[c]++
		if dr.Fallback {
			out.fallbacks[c]++
		}
		if len(sizes[c]) < w.Steps {
			sizes[c] = append(sizes[c], dr.Size)
		}
	}

	for c, in := range ins {
		ck.runCheck(checkFinalState(w, in, out.ids[c], applied[c], out.fallbacks[c], mirror[c], states[c]))
		for _, smp := range in.samples {
			if smp.step > len(sizes[c]) {
				ck.runCheck(fmt.Errorf("client %d never reached step %d", c, smp.step))
				break
			}
			fresh, err := ftclust.SolveKMDS(smp.live, paramK, ftclust.WithT(paramT), ftclust.WithSeed(1))
			if err != nil {
				ck.runCheck(fmt.Errorf("fresh solve at step %d: %w", smp.step, err))
				break
			}
			size := float64(sizes[c][smp.step-1])
			out.ratios = append(out.ratios, size/fresh.CertifiedLowerBound)
			out.sizeVsFresh = append(out.sizeVsFresh, size/float64(fresh.Size()))
		}
	}
	return out
}

// applyPatch applies a delta reply's patch to the mirrored member set and
// returns the new member count.
func applyPatch(members []bool, p service.RepairPatch) (int, error) {
	if len(p.AddedNodes) > 0 {
		return 0, fmt.Errorf("unexpected added nodes %v", p.AddedNodes)
	}
	for _, v := range p.Entered {
		if v < 0 || v >= len(members) || members[v] {
			return 0, fmt.Errorf("node %d entered but was already a member", v)
		}
		members[v] = true
	}
	for _, v := range p.Left {
		if v < 0 || v >= len(members) || !members[v] {
			return 0, fmt.Errorf("node %d left but was not a member", v)
		}
		members[v] = false
	}
	return verify.SetSize(members), nil
}

// checkFinalState compares a session's GET state with the client's view
// after applied steps and fallbacks, and verifies the mirrored members on
// the client's live topology.
func checkFinalState(w workload, in *sessionInput, id string, applied, fallbacks int, members []bool, get sample) error {
	if err := replyErr(get, http.StatusOK); err != nil {
		return fmt.Errorf("session %s final state: %w", id, err)
	}
	var st service.SessionState
	if err := decodeStrict(get.body, &st); err != nil {
		return fmt.Errorf("session %s final state: %w", id, err)
	}
	topo := newTopology(in.base)
	for s := 0; s < in.forwardStep(applied); s++ {
		if err := topo.apply(in.steps[s]); err != nil {
			return fmt.Errorf("replaying step %d: %w", s+1, err)
		}
	}
	g := topo.ov.Compact()
	dead := verify.SetSize(topo.dead)
	want := service.SessionState{
		SessionID: id, Epoch: int64(applied), N: w.N, Edges: g.NumEdges(), K: paramK,
		Size: verify.SetSize(members), LiveNodes: w.N - dead, DeadNodes: dead,
		Repairs: applied, Promoted: st.Promoted, Fallbacks: fallbacks, Drift: st.Drift,
		Feasible: true,
	}
	if st != want {
		return fmt.Errorf("session %s final state %+v, client expects %+v", id, st, want)
	}
	if err := checkLiveCover(g, topo.dead, members); err != nil {
		return fmt.Errorf("session %s final members: %w", id, err)
	}
	return nil
}
