package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"ftclust"
	"ftclust/internal/graph"
	"ftclust/internal/maintain"
	"ftclust/internal/obs"
	"ftclust/internal/verify"
)

// GraphSpec is an explicit graph in a request body.
type GraphSpec struct {
	N     int      `json:"n"`
	Edges EdgeList `json:"edges"`
}

// FamilySpec asks the server to generate a graph from a named family
// (gnp, regular, grid, tree, powerlaw, ring) — handy for smoke tests and
// load generation without shipping edge lists.
type FamilySpec struct {
	Name   string  `json:"name"`
	N      int     `json:"n"`
	Degree float64 `json:"degree"`
	Seed   int64   `json:"seed"`
}

// SolveRequest is the body of POST /v1/solve and POST /v1/session.
// Exactly one of Graph and Family must be set.
type SolveRequest struct {
	Graph  *GraphSpec  `json:"graph,omitempty"`
	Family *FamilySpec `json:"family,omitempty"`
	K      int         `json:"k"`
	T      int         `json:"t,omitempty"`    // default 3
	Seed   int64       `json:"seed,omitempty"` // default 1
	Local  bool        `json:"local_delta,omitempty"`

	// pairs, when set, is a buffer from pairPool that the graph's edge
	// list decodes into, lent by the handler that hands it back with
	// releasePairs.
	pairs *EdgeList
}

// SolutionJSON is the wire form of a solve result, shared by the service
// and `kmds -json` so scripts and the smoke test consume one format.
type SolutionJSON struct {
	Algorithm           string  `json:"algorithm"`
	N                   int     `json:"n"`
	Edges               int     `json:"edges"`
	K                   int     `json:"k"`
	Size                int     `json:"size"`
	Members             []int   `json:"members"`
	Rounds              int     `json:"rounds"`
	Kappa               float64 `json:"kappa,omitempty"`
	FractionalObjective float64 `json:"fractional_objective,omitempty"`
	CertifiedLowerBound float64 `json:"certified_lower_bound,omitempty"`
	Verified            bool    `json:"verified"`
}

// SolveResponse is the body of a successful /v1/solve. It is exactly the
// shared solution format — deliberately free of timing or cache fields so
// identical requests get byte-identical bodies (cache status travels in
// the X-Cache header instead).
type SolveResponse = SolutionJSON

// NewSolutionJSON converts a library solution to the wire form.
func NewSolutionJSON(g *graph.Graph, sol *ftclust.Solution, k int) *SolutionJSON {
	members := make([]int, 0, len(sol.Members))
	for _, v := range sol.Members {
		members = append(members, int(v))
	}
	return &SolutionJSON{
		Algorithm:           sol.Algorithm,
		N:                   g.NumNodes(),
		Edges:               g.NumEdges(),
		K:                   k,
		Size:                sol.Size(),
		Members:             members,
		Rounds:              sol.Rounds,
		Kappa:               sol.Kappa,
		FractionalObjective: sol.FractionalObjective,
		CertifiedLowerBound: sol.CertifiedLowerBound,
		Verified:            ftclust.Verify(g, sol, k, ftclust.ClosedPP) == nil,
	}
}

// VerifyRequest is the body of POST /v1/verify.
type VerifyRequest struct {
	Graph      *GraphSpec  `json:"graph,omitempty"`
	Family     *FamilySpec `json:"family,omitempty"`
	K          int         `json:"k"`
	Members    []int       `json:"members"`
	Convention string      `json:"convention,omitempty"` // "closed-pp" (default) | "standard"
}

// VerifyResponse is the body of POST /v1/verify.
type VerifyResponse struct {
	OK     bool   `json:"ok"`
	Reason string `json:"reason,omitempty"`
}

// SessionCreateResponse is the body of POST /v1/session.
type SessionCreateResponse struct {
	SessionID string        `json:"session_id"`
	Solution  *SolutionJSON `json:"solution"`
}

// maxDeltaOps caps the ops in a single delta batch; larger batches get 400.
const maxDeltaOps = 4096

// DeltaOp is one churn operation in a delta batch. Op selects the kind:
// "fail" and "revive" take nodes, "add_edge" and "del_edge" take u and v
// (pointers so a missing operand is distinguishable from node 0), and
// "add_node" takes nothing.
type DeltaOp struct {
	Op    string `json:"op"`
	Nodes []int  `json:"nodes,omitempty"`
	U     *int   `json:"u,omitempty"`
	V     *int   `json:"v,omitempty"`
}

// DeltaRequest is the body of POST /v1/session/{id}/delta.
type DeltaRequest struct {
	Ops []DeltaOp `json:"ops"`
}

// toEngineOps converts wire ops to engine ops, rejecting malformed ones.
// Range and topology validity are the engine's job (Validate); this layer
// only checks shape.
func toEngineOps(ops []DeltaOp) ([]maintain.Op, error) {
	out := make([]maintain.Op, 0, len(ops))
	for i, op := range ops {
		switch op.Op {
		case "fail", "revive":
			if len(op.Nodes) == 0 {
				return nil, fmt.Errorf("op %d (%s): nodes must be non-empty", i, op.Op)
			}
			if op.U != nil || op.V != nil {
				return nil, fmt.Errorf("op %d (%s): u/v not allowed", i, op.Op)
			}
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
				return nil, fmt.Errorf("op %d (%s): u and v are required", i, op.Op)
			}
			if len(op.Nodes) != 0 {
				return nil, fmt.Errorf("op %d (%s): nodes not allowed", i, op.Op)
			}
			kind := maintain.OpAddEdge
			if op.Op == "del_edge" {
				kind = maintain.OpDelEdge
			}
			out = append(out, maintain.Op{Kind: kind, U: graph.NodeID(*op.U), V: graph.NodeID(*op.V)})
		case "add_node":
			if len(op.Nodes) != 0 || op.U != nil || op.V != nil {
				return nil, fmt.Errorf("op %d (add_node): takes no operands", i)
			}
			out = append(out, maintain.Op{Kind: maintain.OpAddNode})
		default:
			return nil, fmt.Errorf("op %d: unknown op %q (want fail, revive, add_edge, del_edge or add_node)", i, op.Op)
		}
	}
	return out, nil
}

// errorBody is the JSON shape of every non-2xx response.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeEncoded writes a JSON body that is already encoded: a cached or
// led answer, or a relayed one.
func writeEncoded(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, errorBody{Error: err.Error()})
}

// decodeJSON reads a size-capped, strictly-validated JSON body into dst.
// It writes the error response itself and reports success.
func (s *Server) decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body, ok := s.readBody(w, r)
	if !ok {
		return false
	}
	defer releaseBody(body)
	if err := decodeStrict(bytes.NewReader(body.Bytes()), dst); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed JSON: %v", err))
		return false
	}
	return true
}

// decodeStrict decodes exactly one JSON value into dst, rejecting unknown
// fields and anything but whitespace after the value — a second value
// would otherwise be silently dropped.
func decodeStrict(r io.Reader, dst any) error {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	if err := dec.Decode(dst); err != nil {
		return err
	}
	var extra json.RawMessage
	switch err := dec.Decode(&extra); err {
	case io.EOF:
		return nil
	case nil:
		return errors.New("trailing data after JSON value")
	default:
		return err
	}
}

// maxPooledBody caps the capacity of a body buffer kept for reuse, so one
// large body does not stay resident after its request.
const maxPooledBody = 1 << 20

// bodyPool holds request-body buffers for readBody.
var bodyPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// readBody drains a size-capped request body into a buffer from
// bodyPool, writing the error response itself (413 past the cap, 400 on
// a read error). The caller owns the buffer and hands it back with
// releaseBody once nothing reads it any more.
func (s *Server) readBody(w http.ResponseWriter, r *http.Request) (*bytes.Buffer, bool) {
	r.Body = http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes)
	body := bodyPool.Get().(*bytes.Buffer)
	if _, err := body.ReadFrom(r.Body); err != nil {
		releaseBody(body)
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("body exceeds %d bytes", tooBig.Limit))
		} else {
			writeError(w, http.StatusBadRequest, fmt.Errorf("reading body: %v", err))
		}
		return nil, false
	}
	return body, true
}

// releaseBody returns a body buffer to bodyPool unless it is nil or has
// grown past maxPooledBody. A buffer handed to proxyPost must never come
// back: its transport may still be writing it.
func releaseBody(body *bytes.Buffer) {
	if body == nil || body.Cap() > maxPooledBody {
		return
	}
	body.Reset()
	bodyPool.Put(body)
}

// readRequest reads a solve or delta body and decodes it into req with
// its one-walk UnmarshalJSON, recording the read and decode stages as
// spans of the request trace. It writes the error response itself; on
// success the caller owns the body buffer.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, req json.Unmarshaler) (*bytes.Buffer, bool) {
	tr := obs.TraceFrom(r.Context())
	sp := tr.StartSpan(nil, "read")
	body, ok := s.readBody(w, r)
	sp.End()
	if !ok {
		return nil, false
	}
	sp = tr.StartSpan(nil, "decode")
	err := req.UnmarshalJSON(body.Bytes())
	sp.End()
	if err != nil {
		releaseBody(body)
		writeError(w, http.StatusBadRequest, fmt.Errorf("malformed JSON: %v", err))
		return nil, false
	}
	return body, true
}

// maxPooledEdges caps the capacity of an edge or pair buffer kept for
// reuse (1 MiB of pairs), as maxPooledBody does for bodies.
const maxPooledEdges = 1 << 16

// pairPool holds the buffers the solve and session handlers lend a
// request's edge list to decode into. The pairs are dead once the key is
// computed and, where one is needed, the CSR built (buildGraph copies
// them), so without the pool a cache hit's largest allocation is garbage
// the size of the posted list.
var pairPool = sync.Pool{New: func() any { return new(EdgeList) }}

// lentPairs returns a request that decodes its edge list, if the body
// has one, into a buffer from pairPool.
func lentPairs() SolveRequest {
	return SolveRequest{pairs: pairPool.Get().(*EdgeList)}
}

// releasePairs hands r's lent pair buffer back to pairPool, unless it has
// grown past maxPooledEdges, and drops r's edge list, which may share
// it. No job closure reads the edges: the leader builds the CSR in the
// handler goroutine before it queues the solve.
func (r *SolveRequest) releasePairs() {
	if r.pairs == nil {
		return
	}
	if cap(*r.pairs) <= maxPooledEdges {
		pairPool.Put(r.pairs)
	}
	r.pairs = nil
	if r.Graph != nil {
		r.Graph.Edges = nil
	}
}

// edgePool holds the buffers buildGraph copies posted pairs into.
// FromEdges keeps none of its input, so a buffer goes back as soon as the
// CSR is built. The copy is a quarter of what a cold request allocates,
// and the cache's encoded answers leave the collector a smaller live heap
// to pace against, so without the pool it runs more often.
var edgePool sync.Pool

// buildGraph materializes the instance a request describes.
func (s *Server) buildGraph(gs *GraphSpec, fs *FamilySpec) (*graph.Graph, error) {
	switch {
	case gs != nil && fs != nil:
		return nil, errors.New("give either graph or family, not both")
	case gs != nil:
		if gs.N < 0 || gs.N > s.cfg.MaxNodes {
			return nil, fmt.Errorf("n = %d out of range [0, %d]", gs.N, s.cfg.MaxNodes)
		}
		buf, _ := edgePool.Get().(*[]graph.Edge)
		if buf == nil || cap(*buf) < len(gs.Edges) {
			buf = new([]graph.Edge)
			*buf = make([]graph.Edge, len(gs.Edges))
		}
		edges := (*buf)[:len(gs.Edges)]
		for i, e := range gs.Edges {
			edges[i] = graph.Edge{U: graph.NodeID(e[0]), V: graph.NodeID(e[1])}
		}
		g, err := graph.FromEdges(gs.N, edges)
		if cap(edges) <= maxPooledEdges {
			edgePool.Put(buf)
		}
		return g, err
	case fs != nil:
		if fs.N < 0 || fs.N > s.cfg.MaxNodes {
			return nil, fmt.Errorf("n = %d out of range [0, %d]", fs.N, s.cfg.MaxNodes)
		}
		return graph.Generate(graph.Family(fs.Name), fs.N, fs.Degree, fs.Seed)
	default:
		return nil, errors.New("need a graph or a family")
	}
}

// Cache-status values returned by solve and echoed in the X-Cache header:
// a cache hit, a fresh solve, or a request coalesced onto a concurrent
// identical solve.
const (
	cacheHit       = "hit"
	cacheMiss      = "miss"
	cacheCoalesced = "coalesced"
)

// prepareSolve validates a request, fills its defaults and computes the
// cache/routing key: the canonical graph hash plus the solver parameters.
// Every node does this, even for keys it forwards. A canonical edge list
// (every pair u < v, in strictly ascending order, as graph.Edges emits
// it) is keyed straight from its pairs and the graph comes back nil, to
// be built only where it is needed: by the flight leader on a miss, or
// for a session. Any other instance is built here and keyed from its
// CSR, so a list the pair path does not accept gets the build's error.
// The build and hash stages are spans of ctx's trace. Every error it
// returns is the request's fault, a 400.
func (s *Server) prepareSolve(ctx context.Context, req *SolveRequest) (*graph.Graph, string, error) {
	tr := obs.TraceFrom(ctx)
	var g *graph.Graph
	hash, keyed := "", false
	if gs := req.Graph; gs != nil && req.Family == nil && gs.N <= s.cfg.MaxNodes {
		start := time.Now()
		if hash, keyed = graph.CanonicalPairsHash(gs.N, gs.Edges); keyed {
			tr.AddSpan(nil, "hash", start, time.Now())
		}
	}
	if !keyed {
		var err error
		if g, err = s.build(ctx, req); err != nil {
			return nil, "", err
		}
		sp := tr.StartSpan(nil, "hash")
		hash = g.CanonicalHash()
		sp.End()
	}
	if req.T == 0 {
		req.T = 3
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if req.T < 1 || req.T > 64 {
		return nil, "", fmt.Errorf("t = %d out of range [1, 64]", req.T)
	}
	return g, solveCacheKey(hash, req.K, req.T, req.Seed, req.Local), nil
}

// build materializes the instance a request describes, as the build
// stage: a span of ctx's trace.
func (s *Server) build(ctx context.Context, req *SolveRequest) (*graph.Graph, error) {
	sp := obs.TraceFrom(ctx).StartSpan(nil, "build")
	defer sp.End()
	return s.buildGraph(req.Graph, req.Family)
}

// solve prepares and runs a session's initial solve: the session keeps
// the graph, so it is built even when the key came from the pairs and the
// answer is cached. It returns the answer decoded from the cached bytes,
// which round-trip the struct exactly.
func (s *Server) solve(ctx context.Context, req *SolveRequest) (*SolveResponse, *graph.Graph, int, error) {
	g, key, err := s.prepareSolve(ctx, req)
	if err != nil {
		return nil, nil, http.StatusBadRequest, err
	}
	if g == nil {
		if g, err = s.build(ctx, req); err != nil {
			return nil, nil, http.StatusBadRequest, err
		}
	}
	body, _, status, err := s.solvePrepared(ctx, req, g, key)
	if err != nil {
		return nil, nil, status, err
	}
	resp, err := decodeSolution(body)
	if err != nil {
		return nil, nil, http.StatusInternalServerError, err
	}
	return resp, g, 0, nil
}

// decodeSolution decodes an encoded /v1/solve answer for the callers
// that need the struct.
func decodeSolution(body []byte) (*SolveResponse, error) {
	var resp SolveResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		return nil, fmt.Errorf("decoding a cached answer: %w", err)
	}
	return &resp, nil
}

// solvePrepared runs the cache → coalesce → lead pipeline for an
// already-prepared request: consult the cache, join an identical
// in-flight solve if one exists, otherwise lead a fresh solve on the
// bounded worker pool under the request deadline. g may be nil (the key
// came from the pairs); only a leader builds it. It returns the answer as
// the bytes /v1/solve writes, shared with the cache and the flight.
func (s *Server) solvePrepared(ctx context.Context, req *SolveRequest, g *graph.Graph, key string) ([]byte, string, int, error) {
	tr := obs.TraceFrom(ctx)
	lookup := time.Now()
	hit := func(body []byte) ([]byte, string, int, error) {
		s.metrics.cacheHits.Add(1)
		tr.AddSpan(nil, "cache", lookup, time.Now()).SetAttr("decision", cacheHit)
		return body, cacheHit, http.StatusOK, nil
	}
	if body, ok := s.cache.Get(key); ok {
		return hit(body)
	}

	// Identical request already being solved? Wait for its result instead
	// of burning a second worker on the same deterministic computation.
	f, leader := s.flights.join(key)
	if !leader {
		sp := tr.StartSpan(nil, "coalesce-wait")
		defer sp.End()
		select {
		case <-f.done:
			if f.err != nil {
				return nil, "", f.status, f.err
			}
			s.metrics.coalesced.Add(1)
			sp.SetAttr("decision", cacheCoalesced)
			return f.body, cacheCoalesced, http.StatusOK, nil
		case <-ctx.Done():
			s.metrics.canceled.Add(1)
			sp.SetAttr("decision", "abandoned")
			return nil, "", http.StatusGatewayTimeout,
				fmt.Errorf("solve abandoned: %w", ctx.Err())
		}
	}
	// A leader whose first lookup came just before the previous leader
	// cached the answer, and whose join came just after that leader left
	// the group, finds the answer now (see flightGroup.finish).
	if body, ok := s.cache.Get(key); ok {
		s.flights.finish(key, f, body, http.StatusOK, nil)
		return hit(body)
	}
	s.metrics.cacheMisses.Add(1)
	tr.AddSpan(nil, "cache", lookup, time.Now()).SetAttr("decision", cacheMiss)
	body, status, err := s.leadSolve(ctx, req, g, key)
	s.flights.finish(key, f, body, status, err)
	if err != nil {
		return nil, "", status, err
	}
	return body, cacheMiss, http.StatusOK, nil
}

// leadSolve runs the actual solver job for a flight leader, building the
// graph first if the key came from the pairs, then encodes the answer
// once, as the bytes /v1/solve writes (json.Marshal plus a newline), and
// caches them on success. Timing is split at the worker-pickup boundary:
// enqueue→start feeds the queue-wait histogram, the job body feeds the
// solve-latency histogram — so a backed-up queue cannot masquerade as a
// slow solver, and neither series ever sees cache hits or coalesced
// followers.
func (s *Server) leadSolve(ctx context.Context, req *SolveRequest, g *graph.Graph, key string) ([]byte, int, error) {
	if g == nil {
		var err error
		if g, err = s.build(ctx, req); err != nil {
			return nil, http.StatusBadRequest, err
		}
	}
	if s.cfg.SolveTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, s.cfg.SolveTimeout)
		defer cancel()
	}

	tr := obs.TraceFrom(ctx)
	var (
		resp     *SolveResponse
		solveErr error
		solveDur time.Duration
	)
	enq := time.Now()
	err := s.queue.Do(ctx, func(jobCtx context.Context, scratch *ftclust.Scratch) {
		jobStart := time.Now()
		s.metrics.queueWait.ObserveDuration(jobStart.Sub(enq))
		tr.AddSpan(nil, "queue-wait", enq, jobStart)
		s.metrics.inFlight.Add(1)
		defer s.metrics.inFlight.Add(-1)

		solveSpan := tr.StartSpan(nil, "solve")
		defer func() {
			solveDur = time.Since(jobStart)
			solveSpan.End()
		}()
		// The per-request observer fans each core callback out to the
		// global solver series and into this request's span tree. Phase
		// spans are reconstructed from the reported duration (callbacks
		// fire at phase end).
		observer := &ftclust.SolveObserver{
			OnPhase: func(p ftclust.SolvePhaseInfo) {
				s.metrics.observePhase(p)
				end := time.Now()
				sp := tr.AddSpan(solveSpan, p.Name, end.Add(-p.Duration), end)
				sp.SetAttr("rounds", strconv.Itoa(p.Rounds))
				if p.AllocObjects > 0 {
					sp.SetAttr("alloc_objects", strconv.FormatUint(p.AllocObjects, 10))
				}
			},
			OnDone: func(st ftclust.SolveStats) {
				s.metrics.observeSolveStats(st)
				solveSpan.SetAttr("lp_rounds", strconv.Itoa(st.LPRounds))
				solveSpan.SetAttr("set_size", strconv.Itoa(st.SetSize))
				solveSpan.SetAttr("kappa", strconv.FormatFloat(st.Kappa, 'g', 6, 64))
				solveSpan.SetAttr("dual_gap", strconv.FormatFloat(st.DualGap, 'g', 6, 64))
				solveSpan.SetAttr("lower_bound", strconv.FormatFloat(st.DualLowerBound, 'g', 6, 64))
			},
		}

		solveOpts := []ftclust.Option{
			ftclust.WithT(req.T),
			ftclust.WithSeed(req.Seed),
			ftclust.WithContext(jobCtx),
			ftclust.WithScratch(scratch),
			ftclust.WithObserver(observer),
		}
		if req.Local {
			solveOpts = append(solveOpts, ftclust.WithLocalDelta())
		}
		sol, err := ftclust.SolveKMDS(g, req.K, solveOpts...)
		if err != nil {
			solveErr = err
			return
		}
		// NewSolutionJSON copies everything it keeps (Members ints), so
		// the response outlives the worker's next arena reuse.
		resp = NewSolutionJSON(g, sol, req.K)
	})
	switch {
	case errors.Is(err, errQueueFull):
		// Backlog overflow is transient by construction (the pool is
		// draining it right now): shed with 429 + Retry-After computed
		// from the backlog so clients space their retries. 503 stays
		// reserved for drain/shutdown, where retrying this process is
		// pointless.
		s.metrics.queueRejected.Add(1)
		s.metrics.shedQueue.Inc()
		s.event("shed", "reason", "queue")
		return nil, http.StatusTooManyRequests, err
	case errors.Is(err, errDraining):
		s.metrics.queueRejected.Add(1)
		return nil, http.StatusServiceUnavailable, err
	case err != nil: // request context fired while waiting
		s.metrics.canceled.Add(1)
		return nil, http.StatusGatewayTimeout, fmt.Errorf("solve abandoned: %w", err)
	}
	switch {
	case errors.Is(solveErr, ftclust.ErrCanceled):
		s.metrics.canceled.Add(1)
		return nil, http.StatusGatewayTimeout, solveErr
	case errors.Is(solveErr, ftclust.ErrBadK), errors.Is(solveErr, ftclust.ErrEmptyGraph):
		return nil, http.StatusBadRequest, solveErr
	case solveErr != nil:
		s.metrics.solveErrors.Add(1)
		return nil, http.StatusInternalServerError, solveErr
	}
	s.metrics.solves.Add(1)
	s.metrics.solveLat.ObserveDuration(solveDur)
	sp := tr.StartSpan(nil, "encode")
	body, err := json.Marshal(resp)
	sp.End()
	if err != nil {
		s.metrics.solveErrors.Add(1)
		return nil, http.StatusInternalServerError, fmt.Errorf("encoding the answer: %w", err)
	}
	body = append(body, '\n')
	s.cache.Put(key, body)
	return body, http.StatusOK, nil
}

func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	req := lentPairs()
	defer req.releasePairs()
	body, ok := s.readRequest(w, r, &req)
	if !ok {
		return
	}
	// A forward hands the body to proxyPost and sets body to nil, so
	// the buffer never returns to the pool.
	defer func() { releaseBody(body) }()
	g, key, err := s.prepareSolve(r.Context(), &req)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	// Cluster routing: proxy a non-owned key to its rendezvous owner
	// (one hop — forwarded requests always land here as local). A
	// suspect owner or a failed forward degrades to a local solve.
	if s.shouldRoute(r.Header) {
		if owner, local := s.cluster.Route(key); !local {
			raw := body.Bytes()
			body = nil
			if s.forwardSolve(w, r, owner, raw) {
				return
			}
		}
	}
	if s.cluster != nil {
		w.Header().Set(clusterRouteHeader, routeLocal)
	}
	answer, cacheStatus, status, err := s.solvePrepared(r.Context(), &req, g, key)
	if err != nil {
		s.writeSolveError(w, status, err)
		return
	}
	w.Header().Set("X-Cache", cacheStatus)
	writeEncoded(w, http.StatusOK, answer)
}

func (s *Server) handleVerify(w http.ResponseWriter, r *http.Request) {
	var req VerifyRequest
	if !s.decodeJSON(w, r, &req) {
		return
	}
	g, err := s.buildGraph(req.Graph, req.Family)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	if req.K < 1 {
		writeError(w, http.StatusBadRequest, fmt.Errorf("k must be ≥ 1, got %d", req.K))
		return
	}
	conv := verify.ClosedPP
	switch req.Convention {
	case "", "closed-pp":
	case "standard":
		conv = verify.Standard
	default:
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("unknown convention %q (want closed-pp or standard)", req.Convention))
		return
	}
	mask := make([]bool, g.NumNodes())
	for _, v := range req.Members {
		if v < 0 || v >= g.NumNodes() {
			writeError(w, http.StatusBadRequest,
				fmt.Errorf("member %d out of range [0,%d)", v, g.NumNodes()))
			return
		}
		mask[v] = true
	}
	s.metrics.verifies.Add(1)
	resp := VerifyResponse{OK: true}
	if err := verify.CheckKFold(g, mask, float64(req.K), conv); err != nil {
		resp = VerifyResponse{OK: false, Reason: err.Error()}
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionCreate(w http.ResponseWriter, r *http.Request) {
	req := lentPairs()
	defer req.releasePairs() // the session keeps the built graph, never the pairs
	body, ok := s.readRequest(w, r, &req)
	if !ok {
		return
	}
	releaseBody(body)
	resp, g, status, err := s.solve(r.Context(), &req)
	if err != nil {
		s.writeSolveError(w, status, err)
		return
	}
	mask := make([]bool, g.NumNodes())
	for _, v := range resp.Members {
		mask[v] = true
	}
	sess, err := s.sessions.create(g, req.K, mask, time.Now())
	if err != nil {
		if errors.Is(err, errTooManySessions) {
			// A full session table is client-visible backpressure like a full
			// queue, not a drain: shed with 429 so 503 keeps meaning "this
			// node is going away". Slots free on delete or TTL sweep, so the
			// suggested retry is one janitor interval (quarter TTL), bounded.
			retry := 1
			if s.cfg.SessionTTL > 0 {
				retry = retryAfterSeconds(s.cfg.SessionTTL / 4)
				if retry > 60 {
					retry = 60
				}
			}
			w.Header().Set("Retry-After", strconv.Itoa(retry))
			writeError(w, http.StatusTooManyRequests, err)
			return
		}
		// The solve is verified feasible, so engine seeding cannot fail on
		// a healthy server; anything else is an internal inconsistency.
		writeError(w, http.StatusInternalServerError, err)
		return
	}
	s.metrics.sessionsCreated.Add(1)
	writeJSON(w, http.StatusCreated, SessionCreateResponse{
		SessionID: sess.id,
		Solution:  resp,
	})
}

func (s *Server) handleSessionGet(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.get(r.PathValue("id"), time.Now())
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, sess.state())
}

func (s *Server) handleSessionDelta(w http.ResponseWriter, r *http.Request) {
	sess, err := s.sessions.get(r.PathValue("id"), time.Now())
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	var req DeltaRequest
	body, ok := s.readRequest(w, r, &req)
	if !ok {
		return
	}
	releaseBody(body)
	if len(req.Ops) == 0 {
		writeError(w, http.StatusBadRequest, errors.New("ops must be non-empty"))
		return
	}
	if len(req.Ops) > maxDeltaOps {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("batch of %d ops exceeds limit %d", len(req.Ops), maxDeltaOps))
		return
	}
	ops, err := toEngineOps(req.Ops)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	start := time.Now()
	resp, st, err := sess.delta(ops, obs.TraceFrom(r.Context()))
	if err != nil {
		if errors.Is(err, errFallbackFailed) {
			writeError(w, http.StatusInternalServerError, err)
			return
		}
		writeError(w, http.StatusBadRequest, err)
		return
	}
	s.metrics.observeRepair(st, time.Since(start))
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleSessionDelete(w http.ResponseWriter, r *http.Request) {
	if err := s.sessions.delete(r.PathValue("id")); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}
