package main

// -pipeline-json mode: measure the whole request→solution pipeline the
// service runs per query — generate (or parse) the instance, hash it for
// the cache key, solve — plus the service itself end to end over HTTP,
// and write a machine-readable report (BENCH_pipeline.json at the repo
// root). Where BENCH_core.json tracks the solver phases in isolation,
// this report tracks the throughput story of the serving path: the
// O(n+m) generator, the streaming canonical hash, the pooled solver
// scratch (fresh vs scratch allocations), and the solve QPS of the HTTP
// service with cache and coalescing active.

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"ftclust"
	"ftclust/internal/graph"
	"ftclust/internal/rng"
	"ftclust/internal/service"
)

// pipelineSchema names the current BENCH_pipeline.json schema. v2 added
// the sustained-load section ("load") with histogram-scraped quantiles.
const pipelineSchema = "ftclust-bench-pipeline/v2"

// pipelineReport is the top-level BENCH_pipeline.json document.
type pipelineReport struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	// GnpGenerator and RngGenerator record the Gnp implementation and
	// the per-node stream generator in effect (see benchReport).
	GnpGenerator string           `json:"gnp_generator"`
	RngGenerator string           `json:"rng_generator"`
	Scale        float64          `json:"scale"`
	Stages       []pipelineRecord `json:"stages"`
	// ObserverOverheadPct is the warm-solve cost of full observer
	// instrumentation: (solve/scratch+observer − solve/scratch) divided by
	// solve/scratch, in percent. The acceptance bar is < 3%.
	ObserverOverheadPct float64       `json:"observer_overhead_pct"`
	Service             serviceRecord `json:"service"`
	// Load is the sustained-load section (see loadRecord): p50/p99 scraped
	// from the service's /metrics histograms after a fixed-duration window.
	// Written by -load-json (and refreshed by -pipeline-json, which runs a
	// short window as part of the full regeneration).
	Load *loadRecord `json:"load,omitempty"`
}

// pipelineRecord is one measured pipeline stage.
type pipelineRecord struct {
	Op       string `json:"op"`
	N        int    `json:"n"`
	M        int    `json:"m,omitempty"`
	K        int    `json:"k,omitempty"`
	T        int    `json:"t,omitempty"`
	NsPerOp  int64  `json:"ns_op"`
	AllocsOp int64  `json:"allocs_op"`
	BytesOp  int64  `json:"bytes_op"`
}

// serviceRecord summarizes the HTTP end-to-end measurement: a fixed
// request mix fired at an httptest server, so QPS includes JSON codec,
// cache, coalescing and queue — everything a client sees.
type serviceRecord struct {
	Op              string  `json:"op"`
	Requests        int     `json:"requests"`
	UniqueInstances int     `json:"unique_instances"`
	Concurrency     int     `json:"concurrency"`
	QPS             float64 `json:"qps"`
	Solves          int64   `json:"solves"`
	CacheHits       int64   `json:"cache_hits"`
	Coalesced       int64   `json:"coalesced"`
}

// runPipelineJSON measures the pipeline stages, the service and a
// loadDur sustained-load window, and writes the report to path. scale
// shrinks instance sizes for smoke runs.
func runPipelineJSON(path string, scale float64, loadDur time.Duration) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("pipeline-json: scale must be in (0,1], got %v", scale)
	}
	scaled := func(n int) int {
		if s := int(float64(n) * scale); s >= 10 {
			return s
		}
		return 10
	}
	const k, t, deg = 2, 3, 8

	rep := pipelineReport{
		Schema:       pipelineSchema,
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GnpGenerator: graph.GnpGenerator,
		RngGenerator: rng.StreamGenerator,
		Scale:        scale,
	}
	measure := func(op string, n, m, k, t int, fn func() error) error {
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return fmt.Errorf("pipeline bench %s: %w", op, benchErr)
		}
		rec := pipelineRecord{
			Op: op, N: n, M: m, K: k, T: t,
			NsPerOp:  r.NsPerOp(),
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
		}
		rep.Stages = append(rep.Stages, rec)
		fmt.Fprintf(os.Stderr, "pipeline %-18s n=%-6d %12d ns/op %8d allocs/op\n",
			op, n, rec.NsPerOp, rec.AllocsOp)
		return nil
	}

	// Stage 1: instance generation at service-typical and large sizes.
	genN := scaled(20000)
	genG := graph.GnpAvgDegree(genN, deg, 3)
	if err := measure("generate/gnp", genN, genG.NumEdges(), 0, 0, func() error {
		graph.GnpAvgDegree(genN, deg, 3)
		return nil
	}); err != nil {
		return err
	}

	// Stage 2: cache-key hashing of the generated graph.
	if err := measure("hash/canonical", genN, genG.NumEdges(), 0, 0, func() error {
		genG.CanonicalHash()
		return nil
	}); err != nil {
		return err
	}

	// Stage 3: the solve, fresh-allocating vs scratch-backed. The allocs_op
	// gap between these two records is the scratch payoff the PR claims.
	solveN := scaled(2000)
	solveG := graph.GnpAvgDegree(solveN, deg, 3)
	if err := measure("solve/fresh", solveN, solveG.NumEdges(), k, t, func() error {
		_, err := ftclust.SolveKMDS(solveG, k, ftclust.WithT(t), ftclust.WithSeed(1))
		return err
	}); err != nil {
		return err
	}
	sc := ftclust.NewScratch()
	if err := measure("solve/scratch", solveN, solveG.NumEdges(), k, t, func() error {
		_, err := ftclust.SolveKMDS(solveG, k, ftclust.WithT(t), ftclust.WithSeed(1), ftclust.WithScratch(sc))
		return err
	}); err != nil {
		return err
	}

	// Stage 3b: the same warm solve with every observer hook armed — the
	// per-phase clocks, alloc counters and summary callback the service
	// attaches to each cold solve. The delta against solve/scratch is the
	// instrumentation tax (reported as observer_overhead_pct).
	obsSc := ftclust.NewScratch()
	var phaseSink int
	observer := &ftclust.SolveObserver{
		OnPhase: func(p ftclust.SolvePhaseInfo) { phaseSink += p.Rounds },
		OnDone:  func(s ftclust.SolveStats) { phaseSink += s.LPRounds },
	}
	if err := measure("solve/scratch+observer", solveN, solveG.NumEdges(), k, t, func() error {
		_, err := ftclust.SolveKMDS(solveG, k, ftclust.WithT(t), ftclust.WithSeed(1),
			ftclust.WithScratch(obsSc), ftclust.WithObserver(observer))
		return err
	}); err != nil {
		return err
	}
	var plainNs, obsNs int64
	for _, st := range rep.Stages {
		switch st.Op {
		case "solve/scratch":
			plainNs = st.NsPerOp
		case "solve/scratch+observer":
			obsNs = st.NsPerOp
		}
	}
	if plainNs > 0 {
		rep.ObserverOverheadPct = 100 * float64(obsNs-plainNs) / float64(plainNs)
		fmt.Fprintf(os.Stderr, "pipeline %-18s %+.2f%%\n", "observer-overhead", rep.ObserverOverheadPct)
	}

	// Stage 4: the full per-request pipeline generate → hash → solve, the
	// work one cold /v1/solve costs before JSON and transport.
	pipeSc := ftclust.NewScratch()
	if err := measure("pipeline/gen+hash+solve", solveN, solveG.NumEdges(), k, t, func() error {
		g := graph.GnpAvgDegree(solveN, deg, 3)
		g.CanonicalHash()
		_, err := ftclust.SolveKMDS(g, k, ftclust.WithT(t), ftclust.WithSeed(1), ftclust.WithScratch(pipeSc))
		return err
	}); err != nil {
		return err
	}

	svc, err := measureService(scale)
	if err != nil {
		return err
	}
	rep.Service = svc
	fmt.Fprintf(os.Stderr, "pipeline %-18s %d requests, %.0f solve QPS (%d solves, %d hits, %d coalesced)\n",
		"service/http", svc.Requests, svc.QPS, svc.Solves, svc.CacheHits, svc.Coalesced)

	load, err := measureLoad(scale, loadDur)
	if err != nil {
		return err
	}
	rep.Load = &load
	fmt.Fprintf(os.Stderr,
		"pipeline %-18s %.1fs, %.0f QPS, solve p50/p99 %.2f/%.2f ms, http p50/p99 %.2f/%.2f ms\n",
		"load/http-solve", load.DurationSec, load.QPS,
		load.SolveP50Ms, load.SolveP99Ms, load.HTTPP50Ms, load.HTTPP99Ms)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}

// measureService fires a fixed mix of solve requests at an in-process
// service over HTTP: a handful of unique instances requested many times
// each from concurrent clients, the load shape the cache and coalescing
// layers exist for.
func measureService(scale float64) (serviceRecord, error) {
	const (
		unique      = 8
		repeats     = 25
		concurrency = 8
	)
	n := int(800 * scale)
	if n < 10 {
		n = 10
	}
	s := service.New(service.Config{Workers: 4, QueueDepth: 256})
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	reqs := make([]string, 0, unique*repeats)
	for r := 0; r < repeats; r++ {
		for u := 0; u < unique; u++ {
			reqs = append(reqs,
				fmt.Sprintf(`{"family":{"name":"gnp","n":%d,"degree":8,"seed":%d},"k":2}`, n, u+1))
		}
	}

	var (
		wg       sync.WaitGroup
		firstErr error
		errOnce  sync.Once
	)
	start := time.Now()
	jobs := make(chan string)
	for w := 0; w < concurrency; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for body := range jobs {
				resp, err := http.Post(ts.URL+"/v1/solve", "application/json", strings.NewReader(body))
				if err == nil {
					resp.Body.Close()
					if resp.StatusCode != http.StatusOK {
						err = fmt.Errorf("service solve: status %d", resp.StatusCode)
					}
				}
				if err != nil {
					errOnce.Do(func() { firstErr = err })
				}
			}
		}()
	}
	for _, body := range reqs {
		jobs <- body
	}
	close(jobs)
	wg.Wait()
	elapsed := time.Since(start)
	if firstErr != nil {
		return serviceRecord{}, firstErr
	}
	m := s.Metrics()
	return serviceRecord{
		Op:              "service/http-solve",
		Requests:        len(reqs),
		UniqueInstances: unique,
		Concurrency:     concurrency,
		QPS:             float64(len(reqs)) / elapsed.Seconds(),
		Solves:          m.Solves,
		CacheHits:       m.CacheHits,
		Coalesced:       m.Coalesced,
	}, nil
}
