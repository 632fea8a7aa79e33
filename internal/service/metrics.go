package service

import (
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"ftclust"
	"ftclust/internal/obs"
)

// endpointLabels enumerates the instrumented route patterns; every
// request is classified into exactly one (unknown paths fall into
// "other") so the per-endpoint series stay bounded whatever clients send.
var endpointLabels = []string{
	"/v1/solve", "/v1/verify",
	"/v1/session", "/v1/session/{id}", "/v1/session/{id}/delta",
	"/cluster/v1/gossip", "/cluster/v1/peers",
	"/cluster/v1/fleet", "/cluster/v1/fleet/metrics",
	"/metrics", "/debug/trace", "/debug/trace/{id}",
	"/debug/events", "/healthz", "other",
}

// endpointLabel maps a request path onto its route pattern.
func endpointLabel(path string) string {
	switch path {
	case "/v1/solve", "/v1/verify", "/v1/session",
		"/cluster/v1/gossip", "/cluster/v1/peers",
		"/cluster/v1/fleet", "/cluster/v1/fleet/metrics",
		"/metrics", "/debug/trace", "/debug/events", "/healthz":
		return path
	}
	switch {
	case strings.HasPrefix(path, "/debug/trace/"):
		return "/debug/trace/{id}"
	case strings.HasPrefix(path, "/v1/session/"):
		if strings.HasSuffix(path, "/delta") {
			return "/v1/session/{id}/delta"
		}
		return "/v1/session/{id}"
	}
	return "other"
}

// solverPhases are the phase labels emitted by the core observer hooks.
var solverPhases = []string{"fractional", "rounding", "verify"}

// metrics holds the service's observability state: atomic counters,
// gauges read through callbacks, and fixed log-bucket histograms — all
// registered in an obs.Registry and served at /metrics (Prometheus text
// exposition). Observation is lock-free and quantiles come from bucket
// interpolation.
type metrics struct {
	start time.Time
	reg   *obs.Registry

	solves        *obs.Counter // completed cold solves (cache misses that ran)
	solveErrors   *obs.Counter // solves that returned an error
	cacheHits     *obs.Counter
	cacheMisses   *obs.Counter // flight leaders that solve; followers count as coalesced
	coalesced     *obs.Counter // requests served by joining an in-flight solve
	verifies      *obs.Counter
	queueRejected *obs.Counter // overload rejections (full queue or drain)
	canceled      *obs.Counter // solves lost to deadline/disconnect
	slowRequests  *obs.Counter // requests over the slow-log threshold

	// Admission-control sheds, split by reason so dashboards can tell a
	// saturated solve queue from an abusive client: both surface as 429
	// but only the former says "add capacity".
	shedQueue *obs.Counter // 429s from queue overflow
	shedRate  *obs.Counter // 429s from the per-client token bucket

	// Fleet-scrape accounting: attempts and failures of the per-peer
	// /metrics pulls behind /cluster/v1/fleet. A dead peer degrades the
	// summary and bumps the error counter; it never fails the endpoint.
	fleetScrapes      *obs.Counter
	fleetScrapeErrors *obs.Counter

	sessionsCreated *obs.Counter
	repairs         *obs.Counter // accepted session mutation batches
	fallbacks       *obs.Counter // drift-triggered certified re-solves
	sessionsExpired *obs.Counter // sessions swept by the idle-TTL janitor

	// Per-repair series: patch size (nodes entering/leaving S), touched
	// nodes (the damage the repair actually paid for), promotion passes
	// and wall time — the damage-proportionality story as metrics.
	repairPatchNodes *obs.Histogram
	repairTouched    *obs.Histogram
	repairIterations *obs.Histogram
	repairDur        *obs.Histogram

	inFlight atomic.Int64 // requests currently inside a solve job (gauge)

	queueDepth     func() int // installed by the server
	activeSessions func() int

	// solveLat times the solver job body only; queueWait times the gap
	// between enqueue and job start. Keeping them separate means cache
	// hits and coalesced followers never touch either series, and a
	// backed-up queue shows up as queue wait instead of inflating the
	// solve-latency quantiles.
	solveLat  *obs.Histogram
	queueWait *obs.Histogram

	httpLat  map[string]*obs.Histogram // per endpoint
	httpReqs map[string]*obs.Counter

	// Solver phase series fed by the core observer hooks: per-phase wall
	// time plus the paper's per-solve figures (LP rounds = 2t², rounding
	// passes, primal−dual gap against the certified lower bound).
	phaseDur  map[string]*obs.Histogram
	lpRounds  *obs.Histogram
	roundingP *obs.Histogram
	dualGap   *obs.Histogram
}

func newMetrics(now time.Time) *metrics {
	reg := obs.NewRegistry()
	m := &metrics{
		start:          now,
		reg:            reg,
		queueDepth:     func() int { return 0 },
		activeSessions: func() int { return 0 },

		solves:        reg.Counter("ftclust_solves_total", "completed cold solves (cache misses that ran)"),
		solveErrors:   reg.Counter("ftclust_solve_errors_total", "solves that returned an internal error"),
		cacheHits:     reg.Counter("ftclust_cache_hits_total", "requests served from the solution cache"),
		cacheMisses:   reg.Counter("ftclust_cache_misses_total", "flight-leader cache misses"),
		coalesced:     reg.Counter("ftclust_coalesced_total", "requests coalesced onto an in-flight identical solve"),
		verifies:      reg.Counter("ftclust_verifies_total", "verify requests"),
		queueRejected: reg.Counter("ftclust_queue_rejected_total", "solves rejected by a full queue or drain"),
		canceled:      reg.Counter("ftclust_canceled_total", "solves lost to deadline or disconnect"),
		slowRequests:  reg.Counter("ftclust_slow_requests_total", "requests over the slow-request threshold"),

		shedQueue: reg.Counter("ftclust_shed_total",
			"requests shed by admission control, by reason", "reason", "queue"),
		shedRate: reg.Counter("ftclust_shed_total",
			"requests shed by admission control, by reason", "reason", "ratelimit"),

		fleetScrapes: reg.Counter("ftclust_fleet_scrapes_total",
			"per-peer metric scrapes attempted by the fleet endpoint"),
		fleetScrapeErrors: reg.Counter("ftclust_fleet_scrape_errors_total",
			"fleet scrapes that failed (peer down, timeout, or unparseable body)"),

		sessionsCreated: reg.Counter("ftclust_sessions_created_total", "sessions created"),
		repairs:         reg.Counter("ftclust_repairs_total", "accepted session mutation batches"),
		fallbacks:       reg.Counter("ftclust_repair_fallbacks_total", "drift-triggered certified full re-solves"),
		sessionsExpired: reg.Counter("ftclust_sessions_expired_total", "sessions swept by the idle-TTL janitor"),

		repairPatchNodes: reg.Histogram("ftclust_repair_patch_nodes",
			"nodes entering or leaving S per repair patch",
			obs.ExponentialBuckets(1, 2, 16)),
		repairTouched: reg.Histogram("ftclust_repair_touched_nodes",
			"nodes examined or updated per repair (the damage paid for)",
			obs.ExponentialBuckets(1, 2, 20)),
		repairIterations: reg.Histogram("ftclust_repair_iterations",
			"promotion passes per repair (0 or 1)",
			[]float64{0, 1, 2, 3, 4, 6, 8, 16}),
		repairDur: reg.Histogram("ftclust_repair_duration_seconds",
			"wall time of one session mutation batch (apply + repair)",
			obs.DurationBuckets()),

		solveLat: reg.Histogram("ftclust_solve_duration_seconds",
			"solver job wall time (queue wait excluded; cold solves only)", obs.DurationBuckets()),
		queueWait: reg.Histogram("ftclust_queue_wait_seconds",
			"time between job enqueue and worker pickup", obs.DurationBuckets()),

		httpLat:  make(map[string]*obs.Histogram, len(endpointLabels)),
		httpReqs: make(map[string]*obs.Counter, len(endpointLabels)),
		phaseDur: make(map[string]*obs.Histogram, len(solverPhases)),

		lpRounds: reg.Histogram("ftclust_solver_lp_rounds",
			"Algorithm 1 communication rounds per solve (2t²)",
			[]float64{2, 8, 18, 32, 50, 72, 128, 512, 2048, 8192}),
		roundingP: reg.Histogram("ftclust_solver_rounding_passes",
			"Algorithm 2 sweeps per solve (sampling, plus repair unless skipped)",
			[]float64{1, 2}),
		dualGap: reg.Histogram("ftclust_solver_dual_gap",
			"fractional objective minus certified dual lower bound, per solve",
			obs.ExponentialBuckets(0.5, 2, 20)),
	}
	for _, ep := range endpointLabels {
		m.httpLat[ep] = reg.Histogram("ftclust_http_request_duration_seconds",
			"HTTP request wall time by endpoint", obs.DurationBuckets(), "endpoint", ep)
		m.httpReqs[ep] = reg.Counter("ftclust_http_requests_total",
			"HTTP requests by endpoint", "endpoint", ep)
	}
	for _, phase := range solverPhases {
		m.phaseDur[phase] = reg.Histogram("ftclust_solver_phase_duration_seconds",
			"solver phase wall time", obs.DurationBuckets(), "phase", phase)
	}
	reg.Gauge("ftclust_uptime_seconds", "seconds since server start",
		func() float64 { return time.Since(m.start).Seconds() })
	reg.Gauge("ftclust_queue_depth", "queued (not yet started) solve jobs",
		func() float64 { return float64(m.queueDepth()) })
	reg.Gauge("ftclust_in_flight", "requests currently inside a solve job",
		func() float64 { return float64(m.inFlight.Load()) })
	reg.Gauge("ftclust_sessions_active", "live sessions",
		func() float64 { return float64(m.activeSessions()) })
	return m
}

// observeRepair records one accepted session mutation batch.
func (m *metrics) observeRepair(st repairStats, d time.Duration) {
	m.repairs.Add(1)
	if st.fallback {
		m.fallbacks.Add(1)
	}
	m.repairPatchNodes.Observe(float64(st.patchNodes))
	m.repairTouched.Observe(float64(st.touched))
	m.repairIterations.Observe(float64(st.iterations))
	m.repairDur.ObserveDuration(d)
}

// observeHTTP records one completed request on the per-endpoint series.
func (m *metrics) observeHTTP(endpoint string, d time.Duration) {
	m.httpReqs[endpoint].Inc()
	m.httpLat[endpoint].ObserveDuration(d)
}

// observePhase feeds one solver phase callback into the phase series.
func (m *metrics) observePhase(p ftclust.SolvePhaseInfo) {
	if h, ok := m.phaseDur[p.Name]; ok {
		h.ObserveDuration(p.Duration)
	}
}

// observeSolveStats feeds the per-solve summary into the solver series.
func (m *metrics) observeSolveStats(s ftclust.SolveStats) {
	m.lpRounds.Observe(float64(s.LPRounds))
	m.roundingP.Observe(float64(s.RoundingPasses))
	m.dualGap.Observe(s.DualGap)
}

// promHandler serves /metrics in Prometheus text exposition format.
func (m *metrics) promHandler(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = m.reg.Snapshot().WritePrometheus(w) // a failed write means the scraper left
}
