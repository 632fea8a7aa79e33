package main

// In-process replay of the service's request path on the workload's own
// inputs, run after the server has exited. Untraced, it byte-compares a
// few replies with the server's (16 solves, 16 session steps). Traced, it
// replays 64 requests, records one span tree per replayed request around
// the calls into each layer (decode, build, hash, solve with its phases,
// respond, encode; validate, apply, resolve), adds the measurements only
// the per-layer table needs, and derives the per-layer metrics from the
// spans.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"time"

	"ftclust"
	"ftclust/internal/core"
	"ftclust/internal/graph"
	"ftclust/internal/maintain"
	"ftclust/internal/obs"
	"ftclust/internal/rng"
	"ftclust/internal/service"
)

// Replay sizes: requests compared in an untraced run, requests replayed
// in a traced one, and the first requests of a traced run that also get
// the measurements only the per-layer table needs (stream construction,
// forced bitset roundings and, on the solve workloads, a failure batch).
const (
	checkReplays    = 16
	traceReplays    = 64
	extraReplays    = 16
	rngStreamsTimed = 256
)

// Trace root names: the request path a span tree replays.
const (
	traceSolve   = "solve-request"
	traceDelta   = "delta-request"
	traceFailure = "failure-batch"
)

type replayer struct {
	traced bool
	sc     *ftclust.Scratch // the solve path's arena, like a service worker's
	round  *core.Scratch    // the bitset-rounding comparison's arena
	allocs *obs.AllocCounter
	traces []*obs.Trace
	extras int   // solve replays that got layerExtras
	sink   int64 // keeps the timed rng draws alive
}

func newReplayer(traced bool) *replayer {
	return &replayer{traced: traced, sc: ftclust.NewScratch(), round: core.NewScratch(), allocs: obs.NewAllocCounter()}
}

// trace starts the span tree of one replayed request (nil when untraced;
// every obs span method is a no-op on nil).
func (r *replayer) trace(name string) *obs.Trace {
	if !r.traced {
		return nil
	}
	tr := obs.NewTrace(name+"-"+strconv.Itoa(len(r.traces)), name)
	r.traces = append(r.traces, tr)
	return tr
}

// phaseRec is one solver phase as the observer reported it.
type phaseRec struct {
	info obs.PhaseInfo
	end  time.Time
}

// solve runs ftclust.SolveKMDS as the service's worker does (t, seed 1,
// one thread, the worker's arena, an observer) under a "solve" span with
// one child per solver phase.
func (r *replayer) solve(tr *obs.Trace, parent *obs.Span, g *graph.Graph, sc *ftclust.Scratch) (*ftclust.Solution, error) {
	var phases [3]phaseRec
	np := 0
	var stats obs.SolveStats
	observer := &ftclust.SolveObserver{
		OnPhase: func(p obs.PhaseInfo) {
			if np < len(phases) {
				phases[np] = phaseRec{info: p, end: time.Now()}
				np++
			}
		},
		OnDone: func(s obs.SolveStats) { stats = s },
	}
	opts := []ftclust.Option{
		ftclust.WithT(paramT), ftclust.WithSeed(1), ftclust.WithWorkers(1), ftclust.WithScratch(sc),
	}
	if tr != nil {
		opts = append(opts, ftclust.WithObserver(observer))
	}
	sp := tr.StartSpan(parent, "solve")
	a0 := r.allocs.Count()
	sol, err := ftclust.SolveKMDS(g, paramK, opts...)
	allocs := r.allocs.Count() - a0
	sp.End()
	if err != nil {
		return nil, err
	}
	for _, p := range phases[:np] {
		tr.AddSpan(sp, p.info.Name, p.end.Add(-p.info.Duration), p.end)
	}
	sp.SetAttr("n", strconv.Itoa(g.NumNodes()))
	sp.SetAttr("allocs", strconv.FormatUint(allocs, 10))
	sp.SetAttr("lp_rounds", strconv.Itoa(stats.LPRounds))
	sp.SetAttr("repaired", strconv.Itoa(stats.Repaired))
	sp.SetAttr("set_size", strconv.Itoa(stats.SetSize))
	return sol, nil
}

// replaySolve runs one /v1/solve body through the service's path and
// returns the reply body the service would send.
func (r *replayer) replaySolve(body []byte) (*service.SolutionJSON, []byte, error) {
	tr := r.trace(traceSolve)
	sp := tr.StartSpan(nil, "decode")
	var req service.SolveRequest
	err := decodeStrict(body, &req)
	sp.End()
	if err != nil || req.Graph == nil || req.K != paramK || req.T != paramT {
		return nil, nil, fmt.Errorf("replayed body is not a k=%d t=%d graph request (%v)", paramK, paramT, err)
	}
	sp = tr.StartSpan(nil, "build")
	edges := make([]graph.Edge, len(req.Graph.Edges))
	for i, e := range req.Graph.Edges {
		edges[i] = graph.Edge{U: graph.NodeID(e[0]), V: graph.NodeID(e[1])}
	}
	g, err := graph.FromEdges(req.Graph.N, edges)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	sp.SetAttr("edges", strconv.Itoa(g.NumEdges()))
	sp = tr.StartSpan(nil, "hash")
	g.CanonicalHash()
	sp.End()

	job := tr.StartSpan(nil, "job")
	sol, err := r.solve(tr, job, g, r.sc)
	if err != nil {
		job.End()
		return nil, nil, err
	}
	sp = tr.StartSpan(job, "respond")
	resp := service.NewSolutionJSON(g, sol, paramK)
	sp.End()
	job.End()
	sp = tr.StartSpan(nil, "encode")
	out, err := json.Marshal(resp)
	sp.End()
	if err != nil {
		return nil, nil, err
	}
	if r.traced && r.extras < extraReplays {
		r.extras++
		if err := r.layerExtras(tr, g, sol); err != nil {
			return nil, nil, err
		}
	}
	return resp, append(out, '\n'), nil
}

// layerExtras times what only the per-layer table needs: per-node stream
// construction, and the rounding phase with the bitset kernels forced on
// and off, which must pick the same set as the solve.
func (r *replayer) layerExtras(tr *obs.Trace, g *graph.Graph, sol *ftclust.Solution) error {
	want := append([]bool(nil), sol.InSet...)
	sp := tr.StartSpan(nil, "rng-streams")
	for v := 0; v < rngStreamsTimed; v++ {
		r.sink += rng.NewStream(1, uint64(v)+1).Int63()
	}
	sp.End()
	sp.SetAttr("calls", strconv.Itoa(rngStreamsTimed))

	k := core.EffectiveDemands(g, paramK)
	frac, err := core.SolveFractional(g, k, core.FractionalOptions{T: paramT})
	if err != nil {
		return err
	}
	for _, m := range []struct {
		name string
		mode core.BitsetMode
	}{{"rounding-bitset-on", core.BitsetOn}, {"rounding-bitset-off", core.BitsetOff}} {
		sp := tr.StartSpan(nil, m.name)
		res, err := core.RoundSolution(g, k, frac.X, frac.Delta, core.RoundingOptions{Seed: 1, Bitset: m.mode, Scratch: r.round})
		sp.End()
		if err != nil {
			return err
		}
		if !slices.Equal(res.InSet, want) {
			return fmt.Errorf("%s picked a different set than the solve", m.name)
		}
	}
	return nil
}

// resolve is the session's certified re-solve: solve the live subgraph,
// certify it, adopt it.
func (r *replayer) resolve(tr *obs.Trace, eng *maintain.Engine) (freshSize int, err error) {
	sp := tr.StartSpan(nil, "resolve")
	defer sp.End()
	sub, ids := eng.LiveSubgraph()
	if sub.NumNodes() == 0 {
		_, _, err := eng.SetMask(make([]bool, eng.N()))
		return 0, err
	}
	sol, err := r.solve(tr, sp, sub, nil)
	if err != nil {
		return 0, err
	}
	cert := tr.StartSpan(sp, "certify")
	err = ftclust.Verify(sub, sol, paramK, ftclust.ClosedPP)
	cert.End()
	if err != nil {
		return 0, fmt.Errorf("certification failed: %w", err)
	}
	mask := make([]bool, eng.N())
	for _, v := range sol.Members {
		mask[ids[v]] = true
	}
	_, _, err = eng.SetMask(mask)
	sp.SetAttr("fresh_size", strconv.Itoa(sol.Size()))
	sp.SetAttr("size_after", strconv.Itoa(eng.Size()))
	return sol.Size(), err
}

// replayFailure seeds a session engine with a replayed answer, fails
// nodes in one batch, and re-solves: the first failure a session created
// from that answer would absorb.
func (r *replayer) replayFailure(g *graph.Graph, members []int, nodes []int) error {
	tr := r.trace(traceFailure)
	mask := make([]bool, g.NumNodes())
	setAll(mask, members, true)
	sp := tr.StartSpan(nil, "engine-seed")
	eng, err := maintain.NewEngine(g, mask, paramK, maintain.Options{})
	sp.End()
	if err != nil {
		return err
	}
	ids := make([]graph.NodeID, len(nodes))
	for i, v := range nodes {
		ids[i] = graph.NodeID(v)
	}
	ops := []maintain.Op{{Kind: maintain.OpFail, Nodes: ids}}
	if err := r.validate(tr, eng, ops); err != nil {
		return err
	}
	r.apply(tr, eng, ops)
	_, err = r.resolve(tr, eng)
	return err
}

func (r *replayer) validate(tr *obs.Trace, eng *maintain.Engine, ops []maintain.Op) error {
	sp := tr.StartSpan(nil, "validate")
	defer sp.End()
	return eng.Validate(ops)
}

func (r *replayer) apply(tr *obs.Trace, eng *maintain.Engine, ops []maintain.Op) maintain.Patch {
	before := eng.Size()
	sp := tr.StartSpan(nil, "apply")
	p := eng.Apply(ops)
	sp.End()
	sp.SetAttr("touched", strconv.Itoa(p.Touched))
	sp.SetAttr("fallback", strconv.FormatBool(p.DriftExceeded))
	sp.SetAttr("size_before", strconv.Itoa(before))
	sp.SetAttr("size_after", strconv.Itoa(eng.Size()))
	return p
}

// engineOps converts wire ops to engine ops.
func engineOps(ops []service.DeltaOp) ([]maintain.Op, error) {
	out := make([]maintain.Op, 0, len(ops))
	for i, op := range ops {
		switch op.Op {
		case "fail", "revive":
			kind := maintain.OpFail
			if op.Op == "revive" {
				kind = maintain.OpRevive
			}
			ids := make([]graph.NodeID, len(op.Nodes))
			for j, v := range op.Nodes {
				ids[j] = graph.NodeID(v)
			}
			out = append(out, maintain.Op{Kind: kind, Nodes: ids})
		case "add_edge", "del_edge":
			if op.U == nil || op.V == nil {
				return nil, fmt.Errorf("op %d (%s): missing endpoint", i, op.Op)
			}
			kind := maintain.OpAddEdge
			if op.Op == "del_edge" {
				kind = maintain.OpDelEdge
			}
			out = append(out, maintain.Op{Kind: kind, U: graph.NodeID(*op.U), V: graph.NodeID(*op.V)})
		default:
			return nil, fmt.Errorf("op %d: unexpected op %q", i, op.Op)
		}
	}
	return out, nil
}

func toInts(ids []graph.NodeID) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	return out
}

// maskDiff lists the nodes entering and leaving between two masks.
func maskDiff(a, b []bool) (entered, left []int) {
	entered, left = []int{}, []int{}
	for v := range b {
		if b[v] && !a[v] {
			entered = append(entered, v)
		}
		if !b[v] && a[v] {
			left = append(left, v)
		}
	}
	return entered, left
}

// replaySession replays the first steps of one client's delta stream on
// an engine seeded from its create-time members and returns the reply
// body the service would send for each step.
func (r *replayer) replaySession(in *sessionInput, id string, members []int, steps int) ([][]byte, error) {
	mask := make([]bool, in.base.NumNodes())
	setAll(mask, members, true)
	eng, err := maintain.NewEngine(in.base, mask, paramK, maintain.Options{})
	if err != nil {
		return nil, err
	}
	var out [][]byte
	for p := 0; p < steps; p++ {
		tr := r.trace(traceDelta)
		sp := tr.StartSpan(nil, "decode")
		var req service.DeltaRequest
		err := decodeStrict(in.bodies[p%len(in.bodies)], &req)
		sp.End()
		if err != nil {
			return nil, err
		}
		ops, err := engineOps(req.Ops)
		if err != nil {
			return nil, err
		}
		if err := r.validate(tr, eng, ops); err != nil {
			return nil, fmt.Errorf("step %d: %w", p+1, err)
		}
		pre := eng.InSet()
		patch := r.apply(tr, eng, ops)
		resp := service.DeltaResponse{
			SessionID: id,
			Epoch:     int64(p + 1),
			Patch: service.RepairPatch{
				Entered:    toInts(patch.Entered),
				Left:       toInts(patch.Left),
				AddedNodes: toInts(patch.AddedNodes),
				Iterations: patch.Iterations,
				Touched:    patch.Touched,
			},
			LostHeads:       patch.LostHeads,
			DeficientBefore: patch.DeficientBefore,
			NewlyDead:       patch.NewlyDead,
			Revived:         patch.Revived,
			N:               eng.N(),
			Size:            eng.Size(),
			Feasible:        true,
		}
		if patch.DriftExceeded {
			if _, err := r.resolve(tr, eng); err != nil {
				return nil, fmt.Errorf("step %d re-solve: %w", p+1, err)
			}
			resp.Fallback = true
			resp.Size = eng.Size()
			resp.Patch.Entered, resp.Patch.Left = maskDiff(pre, eng.InSet())
		}
		sp = tr.StartSpan(nil, "encode")
		b, err := json.Marshal(resp)
		sp.End()
		if err != nil {
			return nil, err
		}
		out = append(out, append(b, '\n'))
	}
	return out, nil
}

// compareSolveRun replays solve bodies and byte-compares each reply with
// the server's: cold window requests 0, 1, …; the warm workload's hot set
// against its warm-up replies. On the solve workloads a traced run also
// replays one failure batch on the first answers.
func compareSolveRun(ck *checker, r *replayer, w workload, in *solveInputs, warm, window []sample) {
	count := checkReplays
	if r.traced {
		count = traceReplays
	}
	got := make(map[int][]byte)
	src := window
	if w.kind == warmSolve {
		src = warm
	}
	for _, s := range src {
		got[s.index] = s.body
	}
	for i := 0; i < count; i++ {
		var body []byte
		var err error
		j := i
		if w.kind == warmSolve {
			j = i % len(in.hot)
			body = in.hot[j]
		}
		if _, ok := got[j]; !ok {
			break // a short window answered fewer requests
		}
		if w.kind == coldSolve {
			body, err = in.coldBody(tagRelabel, i)
		}
		var resp *service.SolutionJSON
		var want []byte
		if err == nil {
			resp, want, err = r.replaySolve(body)
		}
		if err == nil && !bytes.Equal(want, got[j]) {
			err = fmt.Errorf("reply %d differs from an in-process solve of the same body", j)
		}
		ck.runCheck(err)
		if err == nil && r.traced && i < extraReplays {
			g := in.bases[j%len(in.bases)].g
			nodes := pickNodes(g.NumNodes(), min(failBatch, g.NumNodes()/4), stream(in.seed, tagFail, uint64(i)))
			// The failure batch runs on the deployment the reply answered,
			// renumbered back through the request's relabeling.
			members := resp.Members
			if w.kind == coldSolve {
				_, perm := in.relabel(tagRelabel, i)
				inv := make([]int, len(perm))
				for v, p := range perm {
					inv[p] = v
				}
				members = make([]int, len(resp.Members))
				for k, m := range resp.Members {
					members[k] = inv[m]
				}
			}
			ck.runCheck(r.replayFailure(g, members, nodes))
		}
	}
}

// compareSessionRun replays the session creates and the first steps of
// client 0's stream, byte-comparing each reply with the server's.
func compareSessionRun(ck *checker, r *replayer, ins []*sessionInput, sc sessionCheck, creates, window []sample) {
	rounds := 1
	steps := checkReplays
	if r.traced {
		rounds, steps = 4, traceReplays
	}
	for _, s := range creates {
		for round := 0; round < rounds; round++ {
			resp, _, err := r.replaySolve(ins[s.client].create)
			var want []byte
			if err == nil {
				want, err = json.Marshal(service.SessionCreateResponse{SessionID: sc.ids[s.client], Solution: resp})
			}
			if err == nil && !bytes.Equal(append(want, '\n'), s.body) {
				err = fmt.Errorf("session create %d differs from an in-process solve", s.client)
			}
			ck.runCheck(err)
		}
	}
	var got [][]byte
	for _, s := range window {
		if s.client == 0 && len(got) < steps {
			got = append(got, s.body)
		}
	}
	want, err := r.replaySession(ins[0], sc.ids[0], sc.members[0], len(got))
	if err != nil {
		ck.runCheck(fmt.Errorf("replaying client 0: %w", err))
		return
	}
	for p := range want {
		if !bytes.Equal(want[p], got[p]) {
			ck.runCheck(fmt.Errorf("client 0 step %d reply differs from the in-process engine", p+1))
			return
		}
	}
	ck.runCheck(nil)
}

// attrInt reads an integer span attribute.
func attrInt(sp obs.SpanJSON, k string) float64 {
	v, _ := strconv.Atoi(sp.Attrs[k])
	return float64(v)
}

// layerSamples collects the per-layer measurements of the span trees.
type layerSamples map[string][]float64

func (ls layerSamples) add(k string, v float64) { ls[k] = append(ls[k], v) }

func child(sp obs.SpanJSON, name string) (obs.SpanJSON, bool) {
	for _, c := range sp.Children {
		if c.Name == name {
			return c, true
		}
	}
	return obs.SpanJSON{}, false
}

// collectSpans turns the replayed span trees into per-layer samples. Set
// growth is |S| after a failure batch over |S| before it, and over a
// replayed delta stream |S| after its last step over |S| before its first.
func collectSpans(snaps []obs.TraceJSON) layerSamples {
	ls := layerSamples{}
	var streamStart, streamEnd float64
	for _, t := range snaps {
		var before, after float64
		for _, sp := range t.Root.Children {
			collectSpan(ls, t.Root.Name, sp)
			switch sp.Name {
			case "apply":
				before, after = attrInt(sp, "size_before"), attrInt(sp, "size_after")
			case "resolve":
				if t.Root.Name == traceFailure && before > 0 {
					ls.add("maintain.size_growth", after/before)
					ls.add("maintain.size_vs_fresh", after/attrInt(sp, "fresh_size"))
				}
				after = attrInt(sp, "size_after")
			}
		}
		if t.Root.Name == traceDelta {
			if streamStart == 0 {
				streamStart = before
			}
			streamEnd = after
		}
	}
	if streamStart > 0 {
		ls.add("maintain.size_growth", streamEnd/streamStart)
	}
	return ls
}

func collectSpan(ls layerSamples, root string, sp obs.SpanJSON) {
	ms := sp.DurationMs
	switch sp.Name {
	case "decode", "encode":
		ls.add(sp.Name+"/"+root, ms)
	case "build":
		ls.add("graph.from_edges_ms", ms)
	case "hash":
		ls.add("graph.canonical_hash_ms", ms)
	case "rng-streams":
		ls.add("rng.new_stream_us", ms*1e3/attrInt(sp, "calls"))
	case "rounding-bitset-on":
		ls.add("core.rounding_bitset_on_ms", ms)
	case "rounding-bitset-off":
		ls.add("core.rounding_bitset_off_ms", ms)
	case "validate":
		ls.add("maintain.validate_ms", ms)
	case "apply":
		ls.add("maintain.apply_ms", ms)
		ls.add("maintain.touched", attrInt(sp, "touched"))
		fb := 0.0
		if sp.Attrs["fallback"] == "true" {
			fb = 1
		}
		ls.add("maintain.fallback_share", fb)
	case "job", "resolve":
		// Both calls of the feasibility check a solve pays: the solver's
		// verify phase, then the response's (job) or certificate's (resolve).
		solve, ok1 := child(sp, "solve")
		phase, ok2 := child(solve, "verify")
		second, ok3 := child(sp, "respond")
		if !ok3 {
			second, ok3 = child(sp, "certify")
		}
		if ok1 && ok2 && ok3 {
			ls.add("verify.check_ms", phase.DurationMs+second.DurationMs)
		}
		if sp.Name == "resolve" {
			ls.add("maintain.resolve_ms", ms)
		} else {
			ls.add("job_ms", ms)
		}
		if ok1 {
			collectSolve(ls, solve)
		}
	}
}

func collectSolve(ls layerSamples, sp obs.SpanJSON) {
	ls.add("core.solve_ms", sp.DurationMs)
	ls.add("core.solve_allocs", attrInt(sp, "allocs"))
	ls.add("core.lp_rounds", attrInt(sp, "lp_rounds"))
	if size := attrInt(sp, "set_size"); size > 0 {
		ls.add("core.repaired_share", attrInt(sp, "repaired")/size)
	}
	if c, ok := child(sp, "fractional"); ok {
		ls.add("core.fractional_ms", c.DurationMs)
	}
	if c, ok := child(sp, "rounding"); ok {
		ls.add("core.rounding_ms", c.DurationMs)
		ls.add("core.rounding_ns_per_node", c.DurationMs*1e6/attrInt(sp, "n"))
	}
}
