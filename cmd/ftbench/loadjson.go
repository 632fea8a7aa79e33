package main

// -load-json mode: hold a sustained request load against an in-process
// service for a fixed wall-clock window, then read the latency story
// back from the service's own /metrics histograms (Prometheus text
// exposition) instead of harness-side stopwatches. A one-shot QPS
// number hides tail behavior; the histogram scrape reports the p50/p99
// the service itself would show a production scrape, with queue wait
// and cache hits attributed exactly the way the metrics pipeline
// attributes them. The record merges into BENCH_pipeline.json under the
// "load" key (schema ftclust-bench-pipeline/v2).

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/obs"
	"ftclust/internal/rng"
	"ftclust/internal/service"
)

// maxLoadBody caps how much of any harness-side HTTP response (solve
// replies, the /metrics scrape) is buffered. The in-process server is
// trusted, but the read-bound contract is module-wide.
const maxLoadBody = 64 << 20

// loadRecord is the sustained-load section of BENCH_pipeline.json.
// Latency quantiles are interpolated from the scraped histogram buckets
// by PromHistogram.Quantile, the same interpolation as the service's
// in-process Server.Metrics snapshot.
type loadRecord struct {
	Op              string  `json:"op"`
	DurationSec     float64 `json:"duration_sec"`
	Concurrency     int     `json:"concurrency"`
	UniqueInstances int     `json:"unique_instances"`
	// ColdFraction is the share of requests issued with a never-seen seed,
	// keeping the solve histogram fed for the whole window instead of
	// degenerating into pure cache hits after warmup.
	ColdFraction float64 `json:"cold_fraction"`
	Requests     int64   `json:"requests"`
	QPS          float64 `json:"qps"`
	Solves       int64   `json:"solves"`
	CacheHits    int64   `json:"cache_hits"`
	Coalesced    int64   `json:"coalesced"`
	// Solve quantiles come from ftclust_solve_duration_seconds (solver job
	// wall time, cold solves only); HTTP quantiles from
	// ftclust_http_request_duration_seconds{endpoint="/v1/solve"}, which
	// every request — hit, miss or coalesced — passes through.
	SolveP50Ms     float64 `json:"solve_p50_ms"`
	SolveP99Ms     float64 `json:"solve_p99_ms"`
	HTTPP50Ms      float64 `json:"http_p50_ms"`
	HTTPP99Ms      float64 `json:"http_p99_ms"`
	SolveSamples   int64   `json:"solve_samples"`
	HTTPSamples    int64   `json:"http_samples"`
	MetricsScraped bool    `json:"metrics_scraped"`
}

// measureLoad drives the closed-loop client mix for dur and scrapes the
// resulting histograms.
func measureLoad(scale float64, dur time.Duration) (loadRecord, error) {
	const (
		unique      = 8
		concurrency = 8
		coldEvery   = 4 // every 4th request uses a fresh seed
	)
	n := int(600 * scale)
	if n < 10 {
		n = 10
	}
	s := service.New(service.Config{Workers: 4, QueueDepth: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	var (
		wg       sync.WaitGroup
		seq      atomic.Int64
		requests atomic.Int64
		firstErr error
		errOnce  sync.Once
	)
	deadline := time.Now().Add(dur)
	start := time.Now()
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Now().Before(deadline) {
				i := seq.Add(1)
				seed := i%unique + 1 // hot set: repeat seeds → cache hits
				if i%coldEvery == 0 {
					seed = 1000 + i // cold: never-seen instance → real solve
				}
				body := fmt.Sprintf(`{"family":{"name":"gnp","n":%d,"degree":8,"seed":%d},"k":2}`, n, seed)
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err == nil {
					io.Copy(io.Discard, io.LimitReader(resp.Body, maxLoadBody))
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("load solve: status %d", resp.StatusCode)
					}
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
					return
				}
				requests.Add(1)
			}
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return loadRecord{}, firstErr
	}

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		return loadRecord{}, fmt.Errorf("scraping /metrics: %w", err)
	}
	snap, err := obs.ParsePrometheus(io.LimitReader(resp.Body, maxLoadBody))
	resp.Body.Close()
	if err != nil {
		return loadRecord{}, fmt.Errorf("parsing /metrics: %w", err)
	}
	solveH, ok := snap.Hist("ftclust_solve_duration_seconds")
	if !ok {
		return loadRecord{}, fmt.Errorf("no ftclust_solve_duration_seconds histogram in /metrics")
	}
	httpH, ok := snap.Hist("ftclust_http_request_duration_seconds", "endpoint", "/v1/solve")
	if !ok {
		return loadRecord{}, fmt.Errorf("no /v1/solve ftclust_http_request_duration_seconds histogram in /metrics")
	}

	m := s.Metrics()
	rec := loadRecord{
		Op:              "load/http-solve",
		DurationSec:     elapsed.Seconds(),
		Concurrency:     concurrency,
		UniqueInstances: unique,
		ColdFraction:    1.0 / coldEvery,
		Requests:        requests.Load(),
		QPS:             float64(requests.Load()) / elapsed.Seconds(),
		Solves:          m.Solves,
		CacheHits:       m.CacheHits,
		Coalesced:       m.Coalesced,
		SolveP50Ms:      1e3 * solveH.Quantile(0.50),
		SolveP99Ms:      1e3 * solveH.Quantile(0.99),
		HTTPP50Ms:       1e3 * httpH.Quantile(0.50),
		HTTPP99Ms:       1e3 * httpH.Quantile(0.99),
		SolveSamples:    solveH.Count,
		HTTPSamples:     httpH.Count,
		MetricsScraped:  true,
	}
	return rec, nil
}

// runLoadJSON runs the sustained-load harness and merges the record into
// the pipeline report at path, preserving any stages already measured by
// -pipeline-json. A missing file yields a report holding only the
// environment header and the load section.
func runLoadJSON(path string, scale float64, dur time.Duration) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("load-json: scale must be in (0,1], got %v", scale)
	}
	if dur <= 0 {
		return fmt.Errorf("load-json: duration must be positive, got %v", dur)
	}
	rep := pipelineReport{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &rep); err != nil {
			return fmt.Errorf("load-json: parsing existing %s: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	rec, err := measureLoad(scale, dur)
	if err != nil {
		return err
	}
	rep.Schema = pipelineSchema
	rep.GeneratedAt = time.Now().UTC().Format(time.RFC3339)
	rep.GoVersion = runtime.Version()
	rep.GOMAXPROCS = runtime.GOMAXPROCS(0)
	rep.NumCPU = runtime.NumCPU()
	rep.GnpGenerator = graph.GnpGenerator
	rep.RngGenerator = rng.StreamGenerator
	rep.Scale = scale
	rep.Load = &rec
	fmt.Fprintf(os.Stderr,
		"load %-18s %.1fs %d requests (%.0f QPS, %d solves, %d hits) solve p50/p99 %.2f/%.2f ms, http p50/p99 %.2f/%.2f ms\n",
		rec.Op, rec.DurationSec, rec.Requests, rec.QPS, rec.Solves, rec.CacheHits,
		rec.SolveP50Ms, rec.SolveP99Ms, rec.HTTPP50Ms, rec.HTTPP99Ms)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}
