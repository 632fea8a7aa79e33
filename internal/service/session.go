package service

import (
	"errors"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ftclust"
	"ftclust/internal/graph"
	"ftclust/internal/maintain"
	"ftclust/internal/obs"
)

// Session errors.
var (
	errNoSession       = errors.New("service: no such session")
	errTooManySessions = errors.New("service: session limit reached")
	errFallbackFailed  = errors.New("service: fallback re-solve failed")
)

// session is a stateful cluster backed by the incremental churn engine:
// the solve that created it seeded the engine's coverage state, and every
// accepted batch of deltas (failures, revivals, edge and node changes) is
// absorbed with a damage-proportional repair — never a full re-solve,
// unless topology drift exceeds the engine's bound, in which case the
// session runs one certified re-solve on the live subgraph and adopts it.
//
// Mutating requests are transactional: the whole batch is validated
// against current state before anything is applied, so a rejected request
// leaves the session byte-identical.
type session struct {
	mu sync.Mutex

	id     string
	k      int
	engine *maintain.Engine

	epoch         int64 // accepted mutation batches
	repairs       int
	promotedTotal int
	fallbacks     int

	// lastUsed is touched on every session access; the store's janitor
	// sweeps sessions idle past the TTL. Guarded by the owning SHARD's
	// mutex, not s.mu, so sweeps never contend with long repairs.
	lastUsed time.Time
}

// sessionStoreShards stripes the store so concurrent session traffic on
// different sessions rarely shares a lock. A power of two keeps the
// hash→shard mapping a mask.
const sessionStoreShards = 16

// sessionShard is one stripe: a mutex and the sessions hashed onto it.
type sessionShard struct {
	mu sync.Mutex
	m  map[string]*session
}

// sessionStore is the in-memory registry of live sessions, striped into
// sessionStoreShards mutex-guarded shards keyed by FNV-1a of the session
// ID. IDs are monotonic ("s1", "s2", …): deterministic, log-friendly,
// and unique for the process lifetime. The global bound and size live in
// atomics — create reserves a slot before touching any shard lock and
// rolls the reservation back on overflow, so the cap holds exactly even
// under concurrent creates across shards.
type sessionStore struct {
	shards [sessionStoreShards]sessionShard
	next   atomic.Int64
	count  atomic.Int64
	max    int
}

func newSessionStore(max int) *sessionStore {
	st := &sessionStore{max: max}
	for i := range st.shards {
		st.shards[i].m = make(map[string]*session)
	}
	return st
}

// shardFor maps a session ID onto its stripe (FNV-1a 32).
func (st *sessionStore) shardFor(id string) *sessionShard {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(id); i++ {
		h ^= uint32(id[i])
		h *= prime32
	}
	return &st.shards[h%sessionStoreShards]
}

func (st *sessionStore) create(g *graph.Graph, k int, mask []bool, now time.Time) (*session, error) {
	eng, err := maintain.NewEngine(g, mask, k, maintain.Options{})
	if err != nil {
		return nil, err
	}
	// Reserve a slot against the global cap before picking a shard; on
	// overflow the reservation is returned, so racing creates can never
	// land more than max sessions between them.
	if st.count.Add(1) > int64(st.max) {
		st.count.Add(-1)
		return nil, errTooManySessions
	}
	s := &session{
		id:       fmt.Sprintf("s%d", st.next.Add(1)),
		k:        k,
		engine:   eng,
		lastUsed: now,
	}
	sh := st.shardFor(s.id)
	sh.mu.Lock()
	sh.m[s.id] = s
	sh.mu.Unlock()
	return s, nil
}

func (st *sessionStore) get(id string, now time.Time) (*session, error) {
	sh := st.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	s, ok := sh.m[id]
	if !ok {
		return nil, errNoSession
	}
	s.lastUsed = now
	return s, nil
}

func (st *sessionStore) delete(id string) error {
	sh := st.shardFor(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.m[id]; !ok {
		return errNoSession
	}
	delete(sh.m, id)
	st.count.Add(-1)
	return nil
}

func (st *sessionStore) len() int {
	return int(st.count.Load())
}

// sweep removes sessions idle since before the deadline and returns how
// many it dropped. Each shard is locked independently, so a sweep never
// stalls traffic on more than one stripe at a time.
func (st *sessionStore) sweep(deadline time.Time) int {
	removed := 0
	for i := range st.shards {
		sh := &st.shards[i]
		sh.mu.Lock()
		for id, s := range sh.m {
			if s.lastUsed.Before(deadline) {
				delete(sh.m, id)
				removed++
			}
		}
		sh.mu.Unlock()
	}
	if removed > 0 {
		st.count.Add(int64(-removed))
	}
	return removed
}

// SessionState is the JSON shape of a session status.
type SessionState struct {
	SessionID string `json:"session_id"`
	Epoch     int64  `json:"epoch"`
	N         int    `json:"n"`
	Edges     int    `json:"edges"`
	K         int    `json:"k"`
	Size      int    `json:"size"`
	LiveNodes int    `json:"live_nodes"`
	DeadNodes int    `json:"dead_nodes"`
	Repairs   int    `json:"repairs"`
	Promoted  int    `json:"promoted_total"`
	Fallbacks int    `json:"fallbacks"`
	Drift     int    `json:"drift"`
	Feasible  bool   `json:"feasible"`
}

// RepairPatch is the incremental diff a delta request streams back: apply
// entered/left to a mirrored member set and it matches the session.
type RepairPatch struct {
	Entered    []int `json:"entered"`
	Left       []int `json:"left"`
	AddedNodes []int `json:"added_nodes,omitempty"`
	Iterations int   `json:"iterations"`
	Touched    int   `json:"touched"`
}

// DeltaResponse is the JSON result of a delta batch.
type DeltaResponse struct {
	SessionID       string      `json:"session_id"`
	Epoch           int64       `json:"epoch"`
	Patch           RepairPatch `json:"patch"`
	LostHeads       int         `json:"lost_heads"`
	DeficientBefore int         `json:"deficient_before"`
	NewlyDead       int         `json:"newly_dead"`
	Revived         int         `json:"revived"`
	N               int         `json:"n"`
	Size            int         `json:"size"`
	Fallback        bool        `json:"fallback"`
	Feasible        bool        `json:"feasible"`
}

// repairStats is what a mutation reports to the metrics layer.
type repairStats struct {
	patchNodes int
	touched    int
	iterations int
	fallback   bool
}

// state snapshots the session under its lock.
func (s *session) state() SessionState {
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.engine
	return SessionState{
		SessionID: s.id,
		Epoch:     s.epoch,
		N:         e.N(),
		Edges:     e.NumEdges(),
		K:         s.k,
		Size:      e.Size(),
		LiveNodes: e.N() - e.DeadCount(),
		DeadNodes: e.DeadCount(),
		Repairs:   s.repairs,
		Promoted:  s.promotedTotal,
		Fallbacks: s.fallbacks,
		Drift:     e.Drift(),
		// The engine's repair terminates only at zero deficits, so a live
		// session is always feasible — no assessment pass needed.
		Feasible: true,
	}
}

// delta applies one batch of churn ops and returns the repair patch. On
// drift-bound overflow it runs a certified full re-solve on the live
// subgraph and adopts the result; the returned patch then carries the net
// membership diff of the whole batch.
func (s *session) delta(ops []maintain.Op, tr *obs.Trace) (DeltaResponse, repairStats, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	repairSpan := tr.StartSpan(nil, "repair")
	defer repairSpan.End()
	assess := tr.StartSpan(repairSpan, "assess")
	if err := s.engine.Validate(ops); err != nil {
		assess.SetAttr("rejected", "true")
		assess.End()
		return DeltaResponse{}, repairStats{}, err
	}
	assess.End()
	preMask := s.engine.InSet()
	promote := tr.StartSpan(repairSpan, "promote")
	p := s.engine.Apply(ops)
	promote.SetAttr("touched", strconv.Itoa(p.Touched))
	promote.SetAttr("iterations", strconv.Itoa(p.Iterations))
	promote.SetAttr("promoted", strconv.Itoa(len(p.Entered)))
	promote.End()
	s.epoch++
	s.repairs++
	s.promotedTotal += len(p.Entered)

	resp := DeltaResponse{
		SessionID: s.id,
		Epoch:     s.epoch,
		Patch: RepairPatch{
			Entered:    toInts(p.Entered),
			Left:       toInts(p.Left),
			AddedNodes: toInts(p.AddedNodes),
			Iterations: p.Iterations,
			Touched:    p.Touched,
		},
		LostHeads:       p.LostHeads,
		DeficientBefore: p.DeficientBefore,
		NewlyDead:       p.NewlyDead,
		Revived:         p.Revived,
		N:               s.engine.N(),
		Size:            s.engine.Size(),
		Feasible:        true,
	}
	if p.DriftExceeded {
		fb := tr.StartSpan(repairSpan, "fallback")
		if err := s.fallbackResolveLocked(); err != nil {
			fb.SetAttr("error", "resolve-failed")
			fb.End()
			// The incremental state is still feasible; surface the resolve
			// failure without corrupting the session.
			return DeltaResponse{}, repairStats{}, fmt.Errorf("%w: %v", errFallbackFailed, err)
		}
		fb.SetAttr("certified", "true")
		fb.SetAttr("size", strconv.Itoa(s.engine.Size()))
		fb.End()
		s.fallbacks++
		resp.Fallback = true
		resp.Size = s.engine.Size()
		// After adoption the honest patch is the net diff over the batch.
		resp.Patch.Entered, resp.Patch.Left = maskDiff(preMask, s.engine.InSet())
	}
	return resp, repairStats{
		patchNodes: len(resp.Patch.Entered) + len(resp.Patch.Left),
		touched:    p.Touched,
		iterations: p.Iterations,
		fallback:   resp.Fallback,
	}, nil
}

// fallbackResolveLocked compacts the drifted topology, runs the full
// deterministic solver on the live subgraph, and adopts the result. Two
// checks certify the adopted set: the solver fails unless its repaired
// set passes its own ClosedPP check against the capped demands, and
// SetMask refuses a mask that leaves a live node under its demand on the
// drifted topology. Callers hold s.mu.
func (s *session) fallbackResolveLocked() error {
	sub, ids := s.engine.LiveSubgraph()
	if sub.NumNodes() == 0 {
		// Every node is dead: the empty set is vacuously feasible, and the
		// solver would reject an empty instance. Adopt it directly — SetMask
		// still folds the drifted topology.
		_, _, err := s.engine.SetMask(make([]bool, s.engine.N()))
		return err
	}
	sol, err := ftclust.SolveKMDS(sub, s.k, ftclust.WithT(3), ftclust.WithSeed(1))
	if err != nil {
		return err
	}
	mask := make([]bool, s.engine.N())
	for _, v := range sol.Members {
		mask[ids[v]] = true
	}
	if _, _, err := s.engine.SetMask(mask); err != nil {
		return err
	}
	return nil
}

func toInts(ids []graph.NodeID) []int {
	out := make([]int, len(ids))
	for i, v := range ids {
		out[i] = int(v)
	}
	return out
}

// maskDiff returns the member sets entering and leaving between two
// masks, ascending (b may be longer than a: appended nodes).
func maskDiff(a, b []bool) (entered, left []int) {
	entered, left = []int{}, []int{}
	for v := range b {
		av := v < len(a) && a[v]
		if b[v] && !av {
			entered = append(entered, v)
		}
		if !b[v] && av {
			left = append(left, v)
		}
	}
	return entered, left
}
