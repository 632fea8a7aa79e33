package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sort"
	"sync"
	"time"

	"ftclust/internal/cluster"
	"ftclust/internal/obs"
)

// Fleet endpoints: one scrape of every alive peer's /metrics, merged
// into a cluster-wide view. The JSON summary carries per-peer health
// (membership state, heartbeat age, scrape outcome) plus the headline
// aggregates; the /metrics variant returns the merged exposition
// itself. A peer that is down, slow or emitting garbage is a degraded
// row and a bump of ftclust_fleet_scrape_errors_total — never a 500:
// partial fleet visibility under failures is the whole point.
const (
	// FleetPath is the fleet-summary route; exported for clients (ftop).
	FleetPath        = "/cluster/v1/fleet"
	fleetMetricsPath = "/cluster/v1/fleet/metrics"

	// fleetScrapeTimeout bounds one peer scrape; a stalled peer costs
	// the aggregation this much at worst (scrapes run concurrently).
	fleetScrapeTimeout = 2 * time.Second
	// maxScrapeBody caps one peer's exposition body.
	maxScrapeBody = 4 << 20
)

// FleetPeer is one node's row in the fleet summary.
type FleetPeer struct {
	Addr           string  `json:"addr"`
	Self           bool    `json:"self,omitempty"`
	State          string  `json:"state"` // "self", "alive" or "suspect"
	HeartbeatAgeMs float64 `json:"heartbeat_age_ms"`
	ScrapeOK       bool    `json:"scrape_ok"`
	ScrapeMs       float64 `json:"scrape_ms"`
	Error          string  `json:"error,omitempty"`

	// Headline per-peer counters, lifted from the scrape so a dashboard
	// does not need to re-parse the merged exposition per peer.
	Solves        float64 `json:"solves"`
	CacheHits     float64 `json:"cache_hits"`
	HTTPRequests  float64 `json:"http_requests"`
	Shed          float64 `json:"shed"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}

// FleetAggregate is the cluster-wide rollup of the merged scrape.
type FleetAggregate struct {
	Solves           float64 `json:"solves"`
	SolveErrors      float64 `json:"solve_errors"`
	CacheHits        float64 `json:"cache_hits"`
	CacheMisses      float64 `json:"cache_misses"`
	Coalesced        float64 `json:"coalesced"`
	ShedQueue        float64 `json:"shed_queue"`
	ShedRatelimit    float64 `json:"shed_ratelimit"`
	HTTPRequests     float64 `json:"http_requests"`
	Forwards         float64 `json:"forwards"`
	UptimeSecondsMax float64 `json:"uptime_seconds_max"`
	SolveP50Ms       float64 `json:"solve_p50_ms"`
	SolveP99Ms       float64 `json:"solve_p99_ms"`
	SolveSamples     int64   `json:"solve_samples"`
}

// FleetSummary is the JSON shape of GET /cluster/v1/fleet.
type FleetSummary struct {
	Self         string         `json:"self"`
	Members      int            `json:"members"`
	ScrapeErrors int            `json:"scrape_errors"`
	Peers        []FleetPeer    `json:"peers"`
	Aggregate    FleetAggregate `json:"aggregate"`
}

// fleetScrape is one peer's raw scrape outcome.
type fleetScrape struct {
	snap *obs.PromSnapshot
	dur  time.Duration
	err  error
}

// scrapeFleet concurrently scrapes every member (self as its registry's
// Snapshot, with no text round trip; peers by parsing their /metrics
// over HTTP) and merges the snapshots. Scrape and merge failures
// degrade to per-peer error rows; the returned aggregate holds whatever
// subset succeeded.
func (s *Server) scrapeFleet(ctx context.Context) (FleetSummary, *obs.PromSnapshot) {
	self := ""
	var statuses []cluster.PeerStatus
	if s.cluster != nil {
		self = s.cluster.Self()
		statuses = s.cluster.PeerStatuses()
	}

	// Row 0 is always self; remote rows follow ascending by address.
	type target struct {
		addr   string
		status *cluster.PeerStatus
	}
	targets := []target{{addr: self}}
	for i := range statuses {
		targets = append(targets, target{addr: statuses[i].Addr, status: &statuses[i]})
	}

	scrapes := make([]fleetScrape, len(targets))
	var wg sync.WaitGroup
	for i, tgt := range targets {
		wg.Add(1)
		go func(i int, addr string) {
			defer wg.Done()
			start := time.Now()
			var snap *obs.PromSnapshot
			var err error
			if i == 0 {
				snap = s.metrics.reg.Snapshot()
			} else {
				snap, err = s.scrapePeer(ctx, addr)
			}
			scrapes[i] = fleetScrape{snap: snap, dur: time.Since(start), err: err}
		}(i, tgt.addr)
	}
	wg.Wait()

	now := time.Now()
	agg := obs.NewPromSnapshot()
	sum := FleetSummary{Self: self, Members: len(targets)}
	for i, tgt := range targets {
		sc := scrapes[i]
		s.metrics.fleetScrapes.Inc()
		row := FleetPeer{Addr: tgt.addr, ScrapeMs: float64(sc.dur) / float64(time.Millisecond)}
		if i == 0 {
			row.Self = true
			row.State = "self"
		} else {
			row.State = tgt.status.State
			row.HeartbeatAgeMs = float64(now.Sub(tgt.status.LastSeen)) / float64(time.Millisecond)
		}
		err := sc.err
		if err == nil {
			// Merge is all-or-nothing: a layout mismatch rejects the whole
			// peer, so a skewed build cannot poison the aggregate.
			err = obs.MergePrometheus(agg, sc.snap)
		}
		if err != nil {
			row.Error = err.Error()
			s.metrics.fleetScrapeErrors.Inc()
			sum.ScrapeErrors++
		} else {
			row.ScrapeOK = true
			row.Solves, _ = sc.snap.Value("ftclust_solves_total")
			row.CacheHits, _ = sc.snap.Value("ftclust_cache_hits_total")
			row.HTTPRequests = sc.snap.SumSeries("ftclust_http_requests_total")
			row.Shed = sc.snap.SumSeries("ftclust_shed_total")
			row.UptimeSeconds, _ = sc.snap.Value("ftclust_uptime_seconds")
		}
		sum.Peers = append(sum.Peers, row)
	}
	sort.SliceStable(sum.Peers[1:], func(i, j int) bool {
		return sum.Peers[i+1].Addr < sum.Peers[j+1].Addr
	})
	sum.Aggregate = aggregateFrom(agg)
	for _, p := range sum.Peers {
		if p.UptimeSeconds > sum.Aggregate.UptimeSecondsMax {
			sum.Aggregate.UptimeSecondsMax = p.UptimeSeconds
		}
	}
	return sum, agg
}

// scrapePeer fetches and parses one remote /metrics.
func (s *Server) scrapePeer(ctx context.Context, addr string) (*obs.PromSnapshot, error) {
	ctx, cancel := context.WithTimeout(ctx, fleetScrapeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, "http://"+addr+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := s.cluster.Client().Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("peer %s: /metrics status %d", addr, resp.StatusCode)
	}
	return obs.ParsePrometheus(io.LimitReader(resp.Body, maxScrapeBody))
}

// aggregateFrom lifts the headline numbers out of the merged snapshot.
func aggregateFrom(agg *obs.PromSnapshot) FleetAggregate {
	v := func(name string, labels ...string) float64 {
		x, _ := agg.Value(name, labels...)
		return x
	}
	out := FleetAggregate{
		Solves:        v("ftclust_solves_total"),
		SolveErrors:   v("ftclust_solve_errors_total"),
		CacheHits:     v("ftclust_cache_hits_total"),
		CacheMisses:   v("ftclust_cache_misses_total"),
		Coalesced:     v("ftclust_coalesced_total"),
		ShedQueue:     v("ftclust_shed_total", "reason", "queue"),
		ShedRatelimit: v("ftclust_shed_total", "reason", "ratelimit"),
		HTTPRequests:  agg.SumSeries("ftclust_http_requests_total"),
		Forwards:      v("ftclust_cluster_forwards_total"),
	}
	if h, ok := agg.Hist("ftclust_solve_duration_seconds"); ok {
		out.SolveP50Ms = h.Quantile(0.50) * 1e3
		out.SolveP99Ms = h.Quantile(0.99) * 1e3
		out.SolveSamples = h.Count
	}
	return out
}

// handleFleet serves GET /cluster/v1/fleet.
func (s *Server) handleFleet(w http.ResponseWriter, r *http.Request) {
	sum, _ := s.scrapeFleet(r.Context())
	writeJSON(w, http.StatusOK, sum)
}

// handleFleetMetrics serves GET /cluster/v1/fleet/metrics: the merged
// exposition. Degraded peers are reported in a leading comment line so
// text-format consumers can see partiality without the JSON endpoint.
func (s *Server) handleFleetMetrics(w http.ResponseWriter, r *http.Request) {
	sum, agg := s.scrapeFleet(r.Context())
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	fmt.Fprintf(w, "# fleet: %d members, %d scrape errors\n", sum.Members, sum.ScrapeErrors)
	_ = agg.WritePrometheus(w) // a failed write means the scraper left
}
