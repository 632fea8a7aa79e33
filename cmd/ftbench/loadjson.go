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
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/rng"
	"ftclust/internal/service"
)

// maxLoadBody caps how much of any harness-side HTTP response (solve
// replies, the /metrics scrape) is buffered. The in-process server is
// trusted, but the read-bound contract is module-wide.
const maxLoadBody = 64 << 20

// loadRecord is the sustained-load section of BENCH_pipeline.json.
// Latency quantiles are interpolated from the scraped histogram buckets,
// so they match what the service's /debug/metrics snapshot reports.
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
	text, err := io.ReadAll(io.LimitReader(resp.Body, maxLoadBody))
	resp.Body.Close()
	if err != nil {
		return loadRecord{}, fmt.Errorf("reading /metrics: %w", err)
	}
	solveBk, err := promBuckets(string(text), "ftclust_solve_duration_seconds", "")
	if err != nil {
		return loadRecord{}, err
	}
	httpBk, err := promBuckets(string(text), "ftclust_http_request_duration_seconds", "/v1/solve")
	if err != nil {
		return loadRecord{}, err
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
		SolveP50Ms:      1e3 * bucketQuantile(solveBk, 0.50),
		SolveP99Ms:      1e3 * bucketQuantile(solveBk, 0.99),
		HTTPP50Ms:       1e3 * bucketQuantile(httpBk, 0.50),
		HTTPP99Ms:       1e3 * bucketQuantile(httpBk, 0.99),
		SolveSamples:    bucketTotal(solveBk),
		HTTPSamples:     bucketTotal(httpBk),
		MetricsScraped:  true,
	}
	return rec, nil
}

// promBucket is one cumulative histogram bucket from the exposition.
type promBucket struct {
	le  float64 // upper bound; +Inf for the overflow bucket
	cum int64
}

// promBuckets extracts the _bucket series of metric from Prometheus text
// exposition. endpoint filters on an endpoint="…" label when non-empty.
func promBuckets(text, metric, endpoint string) ([]promBucket, error) {
	prefix := metric + "_bucket{"
	var out []promBucket
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, prefix) {
			continue
		}
		rest := line[len(prefix):]
		end := strings.IndexByte(rest, '}')
		sp := strings.LastIndexByte(rest, ' ')
		if end < 0 || sp < end {
			return nil, fmt.Errorf("malformed exposition line %q", line)
		}
		labels := rest[:end]
		if endpoint != "" && !strings.Contains(labels, `endpoint="`+endpoint+`"`) {
			continue
		}
		le := ""
		for _, lv := range strings.Split(labels, ",") {
			if v, ok := strings.CutPrefix(lv, `le="`); ok {
				le = strings.TrimSuffix(v, `"`)
			}
		}
		if le == "" {
			return nil, fmt.Errorf("bucket line without le label: %q", line)
		}
		bound := math.Inf(1)
		if le != "+Inf" {
			b, err := strconv.ParseFloat(le, 64)
			if err != nil {
				return nil, fmt.Errorf("parsing le=%q: %w", le, err)
			}
			bound = b
		}
		cum, err := strconv.ParseInt(strings.TrimSpace(rest[sp+1:]), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("parsing bucket count in %q: %w", line, err)
		}
		out = append(out, promBucket{le: bound, cum: cum})
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no %s buckets in /metrics exposition", metric)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].le < out[j].le })
	return out, nil
}

// bucketTotal returns the observation count (the +Inf cumulative value).
func bucketTotal(bs []promBucket) int64 { return bs[len(bs)-1].cum }

// bucketQuantile mirrors obs.Histogram.Quantile on scraped cumulative
// buckets: linear interpolation inside the bucket holding the target
// rank, ranks in the overflow bucket clamped to the largest finite bound.
func bucketQuantile(bs []promBucket, q float64) float64 {
	total := bucketTotal(bs)
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	prevCum := int64(0)
	maxFinite := 0.0
	for i, b := range bs {
		if !math.IsInf(b.le, 1) {
			maxFinite = b.le
		}
		n := b.cum - prevCum
		if n > 0 && float64(b.cum) >= rank {
			if math.IsInf(b.le, 1) {
				return maxFinite
			}
			lo := 0.0
			if i > 0 {
				lo = bs[i-1].le
			}
			frac := (rank - float64(prevCum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (b.le-lo)*frac
		}
		prevCum = b.cum
	}
	return maxFinite
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
