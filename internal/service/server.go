// Package service exposes the k-MDS machinery as a long-running HTTP JSON
// service — the serving layer the ROADMAP's production north star asks
// for. Callers no longer link the library and pay a cold solve per query:
//
//   - POST /v1/solve          — k-MDS on a posted graph or generated family
//   - POST /v1/verify         — feasibility check of a proposed set
//   - POST /v1/session        — solve + register a stateful cluster session
//   - GET  /v1/session/{id}   — session status
//   - POST /v1/session/{id}/delta — one batch of churn ops (fail, revive,
//     add_edge, del_edge, add_node), repaired locally by the maintain
//     engine, never a full re-solve unless topology drift exceeds its bound
//   - DELETE /v1/session/{id} — drop a session
//   - GET  /metrics           — Prometheus text exposition (per-endpoint
//     latency histograms, queue-wait vs solve split, solver phase series)
//   - GET  /debug/trace       — recent request traces (newest first)
//   - GET  /debug/trace/{id}  — one request's span tree as JSON
//   - GET  /debug/events      — cluster/service event log (newest first)
//   - GET  /cluster/v1/fleet  — fleet summary: per-peer health plus
//     cluster-wide aggregates merged from every alive peer's /metrics
//   - GET  /cluster/v1/fleet/metrics — the merged exposition itself
//   - GET  /healthz           — liveness
//
// Behind the handlers sit a bounded job queue with a fixed solver-worker
// pool (overload returns 429 instead of queueing unboundedly, and 503
// means the server is draining; each worker owns a reusable solver arena,
// so steady-state solves allocate nothing), an LRU solution cache keyed
// by the canonical graph hash plus solver options (deterministic solver ⇒
// a hit is byte-identical to a re-solve), in-flight coalescing of
// identical requests (concurrent duplicates wait for the one running
// solve instead of occupying more workers; X-Cache: coalesced), and
// per-request deadlines threaded into the solver's round loop via
// ftclust.WithContext. Shutdown drains in-flight solves before returning.
//
// Every response carries an X-Request-ID header (client-supplied IDs are
// propagated); the ID resolves at /debug/trace/{id} to a span tree
// covering queue wait, the cache/coalesce decision, solver phases and
// response encoding for as long as the trace stays in the bounded ring.
package service

import (
	"context"
	"io"
	"log/slog"
	"net/http"
	"runtime"
	"sync"
	"time"

	"ftclust/internal/cluster"
	"ftclust/internal/obs"
	"ftclust/internal/rng"
)

// Config tunes the server. Zero values select the documented defaults.
type Config struct {
	// Workers is the solver pool size: at most this many solves run
	// concurrently (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds the backlog of accepted-but-not-started solves
	// (default 64); beyond it /v1/solve returns 429.
	QueueDepth int
	// CacheSize is the LRU solution-cache capacity in entries
	// (default 128; ≤ -1 disables caching, 0 selects the default).
	CacheSize int
	// MaxBodyBytes caps request bodies (default 16 MiB); larger bodies
	// get 413.
	MaxBodyBytes int64
	// MaxNodes caps the node count of posted or generated instances
	// (default 1<<20).
	MaxNodes int
	// SolveTimeout is the per-request solve deadline (default 60s;
	// negative disables).
	SolveTimeout time.Duration
	// MaxSessions bounds live sessions (default 1024).
	MaxSessions int
	// SessionTTL is how long an idle session survives before the janitor
	// sweeps it (default 30m; negative disables expiry). Every request
	// that touches a session refreshes its clock.
	SessionTTL time.Duration
	// Logger receives structured access and lifecycle logs (default: a
	// logger that discards everything).
	Logger *slog.Logger
	// SlowRequest is the threshold above which a completed request is
	// logged at warn level with its full timing breakdown (default 0:
	// disabled).
	SlowRequest time.Duration
	// Cluster enables cluster mode when non-nil: this node gossips
	// membership with its peers and routes /v1/solve keys to their
	// rendezvous owners.
	Cluster *ClusterConfig
	// RatePerSec enables per-client token-bucket admission on the /v1/*
	// routes: each client accrues this many requests per second up to
	// RateBurst, and an empty bucket is shed with 429 + Retry-After
	// (default 0: disabled).
	RatePerSec float64
	// RateBurst is the per-client burst allowance (default 2× RatePerSec,
	// minimum 1).
	RateBurst int
}

// ClusterConfig wires this server into a ftserved cluster. Self is
// required; everything else defaults sensibly.
type ClusterConfig struct {
	// Self is the advertised host:port peers reach this node on.
	Self string
	// Seeds are the bootstrap peers (the -join flag).
	Seeds []string
	// GossipInterval is the base shuffle period (default 1s).
	GossipInterval time.Duration
	// SuspectAfter / EvictAfter are the missed-heartbeat deadlines
	// (defaults 5× interval and 3× SuspectAfter).
	SuspectAfter time.Duration
	EvictAfter   time.Duration
	// Seed seeds the gossip jitter/selection source (default 1).
	Seed int64
	// Client overrides the HTTP client used for gossip and forwarding
	// (default 2s timeout).
	Client *http.Client
}

func (c *Config) fillDefaults() {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 128
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 16 << 20
	}
	if c.MaxNodes <= 0 {
		c.MaxNodes = 1 << 20
	}
	if c.SolveTimeout == 0 {
		c.SolveTimeout = 60 * time.Second
	}
	if c.MaxSessions <= 0 {
		c.MaxSessions = 1024
	}
	if c.SessionTTL == 0 {
		c.SessionTTL = 30 * time.Minute
	}
	if c.Logger == nil {
		c.Logger = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if c.RatePerSec > 0 && c.RateBurst <= 0 {
		c.RateBurst = int(2 * c.RatePerSec)
		if c.RateBurst < 1 {
			c.RateBurst = 1
		}
	}
}

// debugRing bounds both debug rings: the recent request traces behind
// /debug/trace (only /v1/* requests are kept, so probe endpoints never
// flush real solves out) and the structured event log behind
// /debug/events (membership transitions, shed decisions, forward and
// repair fallbacks).
const debugRing = 256

// Server is the clustering service. Create with New, mount Handler on an
// http.Server (or httptest), and call Shutdown to drain.
type Server struct {
	cfg      Config
	mux      *http.ServeMux
	handler  http.Handler // mux wrapped in the observability middleware
	queue    *jobQueue
	cache    *lruCache
	flights  *flightGroup
	metrics  *metrics
	sessions *sessionStore
	traces   *obs.Ring
	events   *obs.EventRing
	logger   *slog.Logger
	cluster  *cluster.Node
	limiter  *cluster.RateLimiter

	janitorStop chan struct{}
	janitorOnce sync.Once
	janitorDone chan struct{}
}

// New builds a Server from cfg (zero value = all defaults).
func New(cfg Config) *Server {
	cfg.fillDefaults()
	s := &Server{
		cfg:      cfg,
		mux:      http.NewServeMux(),
		queue:    newJobQueue(cfg.Workers, cfg.QueueDepth),
		cache:    newLRUCache(cfg.CacheSize),
		flights:  newFlightGroup(),
		metrics:  newMetrics(time.Now()),
		sessions: newSessionStore(cfg.MaxSessions),
		traces:   obs.NewRing(debugRing),
		events:   obs.NewEventRing(debugRing),
		logger:   cfg.Logger,
	}
	s.metrics.queueDepth = s.queue.Depth
	s.metrics.activeSessions = s.sessions.len

	if cfg.RatePerSec > 0 {
		s.limiter = cluster.NewRateLimiter(cfg.RatePerSec, cfg.RateBurst, 4096, time.Now)
	}
	if cfg.Cluster != nil {
		cc := cfg.Cluster
		seed := cc.Seed
		if seed == 0 {
			seed = 1
		}
		node, err := cluster.New(cluster.Config{
			Self:           cc.Self,
			Seeds:          cc.Seeds,
			GossipInterval: cc.GossipInterval,
			SuspectAfter:   cc.SuspectAfter,
			EvictAfter:     cc.EvictAfter,
			Now:            time.Now,
			Rand:           rng.New(seed),
			Client:         cc.Client,
			Logger:         cfg.Logger,
			Registry:       s.metrics.reg,
			Events:         s.events,
		})
		if err != nil {
			// Only reachable through a programming error (empty Self):
			// every runtime input is validated by the flag layer.
			panic("service: invalid cluster config: " + err.Error())
		}
		s.cluster = node
	}

	s.mux.HandleFunc("POST /v1/solve", s.handleSolve)
	s.mux.HandleFunc("POST /v1/verify", s.handleVerify)
	s.mux.HandleFunc("POST /v1/session", s.handleSessionCreate)
	s.mux.HandleFunc("GET /v1/session/{id}", s.handleSessionGet)
	s.mux.HandleFunc("POST /v1/session/{id}/delta", s.handleSessionDelta)
	s.mux.HandleFunc("DELETE /v1/session/{id}", s.handleSessionDelete)
	s.mux.HandleFunc("GET /metrics", s.metrics.promHandler)
	s.mux.HandleFunc("GET /debug/trace", s.handleTraceList)
	s.mux.HandleFunc("GET /debug/trace/{id}", s.handleTraceGet)
	s.mux.HandleFunc("GET /debug/events", s.handleEvents)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	// Fleet aggregation is mounted unconditionally: without cluster mode
	// it degrades to a fleet of one (this node's own metrics).
	s.mux.HandleFunc("GET "+FleetPath, s.handleFleet)
	s.mux.HandleFunc("GET "+fleetMetricsPath, s.handleFleetMetrics)
	if s.cluster != nil {
		s.mux.HandleFunc("POST "+cluster.GossipPath, s.cluster.HandleGossip)
		s.mux.HandleFunc("GET "+cluster.PeersPath, s.cluster.HandlePeers)
	}
	s.handler = s.withObservability(s.withAdmission(s.mux))

	s.janitorDone = make(chan struct{})
	if cfg.SessionTTL > 0 {
		s.janitorStop = make(chan struct{})
		go s.sessionJanitor(s.janitorStop)
	} else {
		close(s.janitorDone)
	}
	if s.cluster != nil {
		s.cluster.Start()
	}
	return s
}

// sessionJanitor sweeps idle sessions every quarter TTL until stop closes.
func (s *Server) sessionJanitor(stop <-chan struct{}) {
	defer close(s.janitorDone)
	interval := s.cfg.SessionTTL / 4
	if interval < time.Second {
		interval = time.Second
	}
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		select {
		case now := <-ticker.C:
			if n := s.sessions.sweep(now.Add(-s.cfg.SessionTTL)); n > 0 {
				s.metrics.sessionsExpired.Add(int64(n))
				s.logger.Info("sessions expired",
					slog.Int("swept", n),
					slog.Duration("ttl", s.cfg.SessionTTL),
					slog.Int("remaining", s.sessions.len()))
			}
		case <-stop:
			return
		}
	}
}

// Handler returns the service's HTTP handler: the route mux wrapped in
// the request-ID / tracing / access-log / per-endpoint-metrics middleware.
func (s *Server) Handler() http.Handler { return s.handler }

// Shutdown drains the solver pool: new jobs are rejected with 503 while
// every accepted solve runs to completion (in-flight HTTP handlers are
// the listener's responsibility — call http.Server.Shutdown first, then
// this). The context bounds the wait; on expiry the pool keeps draining
// in the background but Shutdown returns ctx.Err().
func (s *Server) Shutdown(ctx context.Context) error {
	if s.cluster != nil {
		// Leave the gossip loop first: a draining node should stop
		// advertising itself as a forwarding target. Peers age it into
		// suspicion and route around it.
		s.cluster.Stop()
	}
	if s.janitorStop != nil {
		s.janitorOnce.Do(func() { close(s.janitorStop) })
		<-s.janitorDone
	}
	done := make(chan struct{})
	go func() {
		s.queue.Close()
		close(done)
	}()
	select {
	case <-done:
		s.logger.LogAttrs(ctx, slog.LevelInfo, "shutdown complete",
			slog.Int64("solves", s.metrics.solves.Value()),
			slog.Int64("solve_errors", s.metrics.solveErrors.Value()),
			slog.Int64("cache_hits", s.metrics.cacheHits.Value()),
			slog.Int("traces_retained", s.traces.Len()),
			slog.Float64("uptime_seconds", time.Since(s.metrics.start).Seconds()))
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
