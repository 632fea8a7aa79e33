// Command ftperf is the repository's benchmark. It drives a real ftserved
// child process with one of four closed-loop workloads of posted
// unit-disk deployments, checks every answer, and prints each end-to-end
// metric by name with its unit; with -trace 1 it also replays the
// workload's first requests in-process after the server has exited and
// prints the per-layer metrics instead. The last line of standard output
// is a JSON summary: {"correct", "attempted", "failed", "metrics"}.
//
// Usage, from the repository root:
//
//	bash cmd/ftperf/run.sh -workload cold-sparse -seed 1 [-seconds 25] [-trace 0|1]
//
// run.sh builds ftserved and ftperf into .bench_build and runs
//
//	ftperf -server .bench_build/ftserved -workload NAME -seed N
//	       [-seconds 25] [-trace 0|1] [-spans FILE]
//
// -spans writes the traced replay's span trees as JSON. See README.md for
// the workloads, the metrics and the protocol for comparing two commits.
package main

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/obs"
	"ftclust/internal/service"
	"ftclust/internal/stats"
)

// setups is how many times a run starts and warms a server; setup_s is
// their median, and the last one serves the window.
const setups = 3

// warmupRequests is how many never-seen instances a cold server solves
// before its window.
const warmupRequests = 4

// networkSlack bounds everything a run does over the network beyond its
// window: start-ups, warm-up, the post-window GETs and scrapes, shutdown.
const networkSlack = 150 * time.Second

type runConfig struct {
	server string
	w      workload
	seed   int64
	window time.Duration
	traced bool
	spans  string
}

type metric struct {
	name  string
	unit  string
	value float64
}

type outcome struct {
	header    []string
	e2e       []metric
	layer     []metric
	attempted int
	failed    int
}

func main() {
	os.Exit(run())
}

func run() int {
	var (
		server  = flag.String("server", "", "ftserved binary to drive (required)")
		name    = flag.String("workload", "", "workload: cold-sparse, cold-dense, warm-repeat or session-mobility")
		seed    = flag.Int64("seed", 1, "seed every input is generated from")
		seconds = flag.Int("seconds", 25, "length of the measured window in seconds")
		trace   = flag.Int("trace", 0, "1 adds the traced in-process replay and prints the per-layer metrics")
		spans   = flag.String("spans", "", "with -trace 1, write the replay's span trees to this JSON file")
	)
	flag.Parse()
	w, err := findWorkload(*name)
	switch {
	case err != nil:
	case *server == "":
		err = errors.New("-server is required")
	case *seconds < 1:
		err = fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	case *trace != 0 && *trace != 1:
		err = fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftperf:", err)
		return 2
	}
	cfg := runConfig{
		server: *server, w: w, seed: *seed,
		window: time.Duration(*seconds) * time.Second,
		traced: *trace == 1, spans: *spans,
	}
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	out, err := measure(ctx, cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "ftperf:", err)
		return 1
	}
	if err := report(os.Stdout, cfg, out); err != nil {
		fmt.Fprintln(os.Stderr, "ftperf:", err)
		return 1
	}
	if out.failed > 0 {
		return 1
	}
	return 0
}

// measure runs one workload: inputs, the server, checks and replay, and
// the metrics.
func measure(ctx context.Context, cfg runConfig) (*outcome, error) {
	w := cfg.w
	var solveIn *solveInputs
	var sessIn []*sessionInput
	if w.kind == sessionDelta {
		for c := 0; c < clients; c++ {
			in, err := newSessionInput(w, cfg.seed, c)
			if err != nil {
				return nil, err
			}
			sessIn = append(sessIn, in)
		}
	} else {
		var err error
		if solveIn, err = newSolveInputs(w, cfg.seed); err != nil {
			return nil, err
		}
	}
	run, err := drive(ctx, cfg, solveIn, sessIn)
	if err != nil {
		return nil, err
	}

	ck := &checker{}
	r := newReplayer(cfg.traced)
	var ratios, sizeVsFresh []float64
	var fallbacks float64
	if w.kind == sessionDelta {
		sc := checkSessionRun(ck, w, sessIn, run.warm, run.window, run.states)
		total, err := counterDelta(nil, run.after, "ftclust_repair_fallbacks_total")
		if err != nil {
			return nil, err
		}
		for _, f := range sc.fallbacks {
			fallbacks += float64(f)
		}
		if total != fallbacks {
			err = fmt.Errorf("server counted %v fallbacks, replies carried %v", total, fallbacks)
		}
		ck.runCheck(err)
		compareSessionRun(ck, r, sessIn, sc, run.warm, run.window)
		ratios, sizeVsFresh = sc.ratios, sc.sizeVsFresh
	} else {
		ratios = checkSolveRun(ck, w, solveIn, run.warm, run.window)
		hits, err := counterDelta(run.before, run.after, "ftclust_cache_hits_total")
		if err != nil {
			return nil, err
		}
		if seen := countHits(run.window); float64(seen) != hits {
			err = fmt.Errorf("server counted %v cache hits, %d replies said X-Cache: hit", hits, seen)
		}
		ck.runCheck(err)
		compareSolveRun(ck, r, w, solveIn, run.warm, run.window)
	}

	lat, all, last := latencies(run.window)
	if len(lat) == 0 {
		return nil, errors.New("no request completed inside the window")
	}
	out := &outcome{attempted: ck.attempted, failed: ck.failed}
	p95 := stats.Quantile(lat, 0.95)
	beyond := 0
	for _, l := range lat {
		if l > p95 {
			beyond++
		}
	}
	out.header = header(cfg, describeInputs(solveIn, sessIn), len(lat), len(all)-len(lat), beyond, run.setupSecs)
	out.e2e = []metric{
		{"latency_p50_ms", "ms", stats.Quantile(lat, 0.5)},
		{"latency_p95_ms", "ms", p95},
		{"throughput_rps", "1/s", float64(len(lat)) / last.Seconds()},
		{"approx_ratio", "ratio", stats.Mean(ratios)},
		{"server_rss_mb", "MiB", run.rssMB},
		{"setup_s", "s", stats.Quantile(run.setupSecs, 0.5)},
	}
	if cfg.traced {
		snaps := make([]obs.TraceJSON, len(r.traces))
		for i, tr := range r.traces {
			tr.Finish()
			snaps[i] = tr.Snapshot()
		}
		if cfg.spans != "" {
			if err := writeSpans(cfg.spans, snaps); err != nil {
				return nil, err
			}
		}
		out.layer, err = layerMetrics(w, collectSpans(snaps), run, stats.Mean(all), stats.Quantile(lat, 0.5), fallbacks, sizeVsFresh)
		if err != nil {
			return nil, err
		}
	}
	for _, m := range append(out.e2e, out.layer...) {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return nil, fmt.Errorf("metric %s has no value", m.name)
		}
	}
	return out, nil
}

// serverRun is what one run collects from its servers.
type serverRun struct {
	setupSecs     []float64
	warm          []sample // the measured server's warm-up replies
	window        []sample
	states        []sample // session GETs after the window
	before, after *obs.PromSnapshot
	rssMB         float64
}

// drive starts and warms a server setups times, runs the window on the
// last one, collects what the checks and metrics need from it, and stops
// it; every server must exit 0 on SIGTERM.
func drive(ctx context.Context, cfg runConfig, solveIn *solveInputs, sessIn []*sessionInput) (*serverRun, error) {
	ctx, cancel := context.WithTimeout(ctx, cfg.window+networkSlack)
	defer cancel()
	hc := newHTTPClient()
	defer hc.CloseIdleConnections()
	run := &serverRun{}
	var srv *server
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		s, err := startServer(ctx, cfg.server, hc)
		if err != nil {
			return nil, err
		}
		run.warm = closedLoop(ctx, hc, 0, warmupNext(cfg.w, s.url, solveIn, sessIn))
		run.setupSecs = append(run.setupSecs, time.Since(t0).Seconds())
		if i == setups-1 {
			srv = s
		} else if err := s.stop(ctx); err != nil {
			return nil, err
		}
	}
	running := true
	defer func() {
		if running {
			srv.kill()
		}
	}()

	var err error
	if run.before, err = scrape(ctx, hc, srv.url); err != nil {
		return nil, err
	}
	next, ids := windowNext(cfg.w, srv.url, solveIn, sessIn, run.warm)
	run.window = closedLoop(ctx, hc, cfg.window, next)
	for c, id := range ids {
		rep, err := do(ctx, hc, http.MethodGet, srv.url+"/v1/session/"+id, nil)
		run.states = append(run.states, sample{client: c, reply: rep, err: err})
	}
	if run.after, err = scrape(ctx, hc, srv.url); err != nil {
		return nil, err
	}
	if run.rssMB, err = srv.peakRSSMB(); err != nil {
		return nil, err
	}
	running = false
	if err := srv.stop(ctx); err != nil {
		return nil, err
	}
	return run, nil
}

// warmupNext feeds a fresh server its warm-up: cold workloads solve a few
// never-seen instances, the warm workload solves its hot set once (that
// fills the cache), and each session client opens its session.
func warmupNext(w workload, url string, solveIn *solveInputs, sessIn []*sessionInput) func(int, bool) (request, bool) {
	var next atomic.Int64
	switch w.kind {
	case sessionDelta:
		var opened [clients]bool
		return func(c int, _ bool) (request, bool) {
			if opened[c] {
				return request{}, false
			}
			opened[c] = true
			return request{index: c, url: url + "/v1/session", body: sessIn[c].create}, true
		}
	case warmSolve:
		return func(int, bool) (request, bool) {
			j := int(next.Add(1) - 1)
			if j >= len(solveIn.hot) {
				return request{}, false
			}
			return request{index: j, url: url + "/v1/solve", body: solveIn.hot[j]}, true
		}
	default:
		return func(int, bool) (request, bool) {
			j := int(next.Add(1) - 1)
			if j >= warmupRequests {
				return request{}, false
			}
			body, err := solveIn.coldBody(tagWarmup, j)
			return request{index: j, url: url + "/v1/solve", body: body, err: err}, true
		}
	}
}

// windowNext feeds the measured window. Cold clients share one request
// sequence and run past the window until the quality set is answered;
// warm clients cycle the hot set; each session client plays its own
// stream and runs past the window until its first forward pass is done.
// It also returns the session IDs opened during warm-up.
func windowNext(w workload, url string, solveIn *solveInputs, sessIn []*sessionInput, warm []sample) (func(int, bool) (request, bool), []string) {
	var next atomic.Int64
	switch w.kind {
	case sessionDelta:
		ids := make([]string, clients)
		for _, s := range warm {
			var cr service.SessionCreateResponse
			if s.err == nil && json.Unmarshal(s.body, &cr) == nil {
				ids[s.client] = cr.SessionID
			}
		}
		var pos [clients]int
		return func(c int, closed bool) (request, bool) {
			if ids[c] == "" || (closed && pos[c] >= w.Steps) {
				return request{}, false
			}
			q := pos[c]
			pos[c]++
			in := sessIn[c]
			return request{index: q, url: url + "/v1/session/" + ids[c] + "/delta", body: in.bodies[q%len(in.bodies)]}, true
		}, ids
	case warmSolve:
		expect := make([][]byte, len(solveIn.hot))
		for _, s := range warm {
			if s.err == nil && s.status == http.StatusOK {
				expect[s.index] = s.body
			}
		}
		return func(_ int, closed bool) (request, bool) {
			if closed {
				return request{}, false
			}
			i := int(next.Add(1) - 1)
			j := i % len(solveIn.hot)
			return request{index: i, url: url + "/v1/solve", body: solveIn.hot[j], expect: expect[j]}, true
		}, nil
	default:
		return func(_ int, closed bool) (request, bool) {
			i := int(next.Add(1) - 1)
			if closed && i >= w.QualityRequests {
				return request{}, false
			}
			body, err := solveIn.coldBody(tagRelabel, i)
			return request{index: i, url: url + "/v1/solve", body: body, err: err}, true
		}, nil
	}
}

// latencies returns the latencies in ms of the successful requests that
// completed inside the window and of all successful requests, and when
// the last one inside the window completed: throughput is measured up to
// that completion, not to the window's end.
func latencies(window []sample) (in, all []float64, last time.Duration) {
	for _, s := range window {
		if s.err != nil || s.status/100 != 2 {
			continue
		}
		ms := float64(s.lat) / float64(time.Millisecond)
		all = append(all, ms)
		if s.inWindow {
			in = append(in, ms)
			last = max(last, s.done)
		}
	}
	return in, all, last
}

func countHits(window []sample) int {
	n := 0
	for _, s := range window {
		if s.cache == "hit" {
			n++
		}
	}
	return n
}

// layerMetrics derives the per-layer table from the replay's spans and the
// server's /metrics. Times are medians of the replayed spans; counts and
// shares are means.
func layerMetrics(w workload, ls layerSamples, run *serverRun, clientMean, clientP50, fallbacks float64, sizeVsFresh []float64) ([]metric, error) {
	before, after := run.before, run.after
	med := func(k string) float64 { return stats.Quantile(ls[k], 0.5) }
	mean := func(k string) float64 { return stats.Mean(ls[k]) }
	endpoint, path := "/v1/solve", traceSolve
	if w.kind == sessionDelta {
		endpoint, path = "/v1/session/{id}/delta", traceDelta
	}
	serverMean, err := histMean(before, after, "ftclust_http_request_duration_seconds", "endpoint", endpoint)
	if err != nil {
		return nil, err
	}
	queueWait, err := histMean(nil, after, "ftclust_queue_wait_seconds")
	if err != nil {
		return nil, err
	}
	solveJob, err := histMean(nil, after, "ftclust_solve_duration_seconds")
	if err != nil {
		return nil, err
	}
	var lookups, hits float64
	for _, name := range []string{"ftclust_cache_hits_total", "ftclust_cache_misses_total", "ftclust_coalesced_total"} {
		d, err := counterDelta(before, after, name)
		if err != nil {
			return nil, err
		}
		lookups += d
		if name == "ftclust_cache_hits_total" {
			hits = d
		}
	}
	hitRatio := 0.0
	if lookups > 0 {
		hitRatio = hits / lookups
	}
	var reqBytes, respBytes []float64
	for _, s := range run.window {
		reqBytes = append(reqBytes, float64(s.reqBytes))
		respBytes = append(respBytes, float64(len(s.body)))
	}

	decode, encode := med("decode/"+path), med("encode/"+path)
	var stages float64
	switch w.kind {
	case coldSolve:
		stages = decode + med("graph.from_edges_ms") + med("graph.canonical_hash_ms") + med("job_ms") + encode
	case warmSolve:
		stages = decode + med("graph.from_edges_ms") + med("graph.canonical_hash_ms") + encode
	case sessionDelta:
		stages = decode + med("maintain.validate_ms") + med("maintain.apply_ms") + encode
	}
	fallbackShare, vsFresh := mean("maintain.fallback_share"), mean("maintain.size_vs_fresh")
	if w.kind == sessionDelta {
		repairs, err := counterDelta(nil, after, "ftclust_repairs_total")
		if err != nil {
			return nil, err
		}
		fallbackShare, vsFresh = fallbacks/repairs, stats.Mean(sizeVsFresh)
	}
	return []metric{
		{"service.decode_ms", "ms", decode},
		{"service.encode_ms", "ms", encode},
		{"service.request_kb", "KiB", stats.Mean(reqBytes) / 1024},
		{"service.response_kb", "KiB", stats.Mean(respBytes) / 1024},
		{"service.cache_hit_ratio", "ratio", hitRatio},
		{"service.server_http_ms", "ms", serverMean * 1e3},
		{"service.queue_wait_ms", "ms", queueWait * 1e3},
		{"service.solve_job_ms", "ms", solveJob * 1e3},
		{"service.transport_ms", "ms", clientMean - serverMean*1e3},
		{"service.unaccounted_share", "ratio", 1 - stages/clientP50},
		{"graph.from_edges_ms", "ms", med("graph.from_edges_ms")},
		{"graph.canonical_hash_ms", "ms", med("graph.canonical_hash_ms")},
		{"core.solve_ms", "ms", med("core.solve_ms")},
		{"core.fractional_ms", "ms", med("core.fractional_ms")},
		{"core.rounding_ms", "ms", med("core.rounding_ms")},
		{"core.rounding_ns_per_node", "ns", med("core.rounding_ns_per_node")},
		{"core.rounding_bitset_on_ms", "ms", med("core.rounding_bitset_on_ms")},
		{"core.rounding_bitset_off_ms", "ms", med("core.rounding_bitset_off_ms")},
		{"core.lp_rounds", "count", mean("core.lp_rounds")},
		{"core.repaired_share", "ratio", mean("core.repaired_share")},
		{"core.solve_allocs", "count", med("core.solve_allocs")},
		{"rng.new_stream_us", "us", med("rng.new_stream_us")},
		{"verify.check_ms", "ms", med("verify.check_ms")},
		{"maintain.validate_ms", "ms", med("maintain.validate_ms")},
		{"maintain.apply_ms", "ms", med("maintain.apply_ms")},
		{"maintain.touched", "count", mean("maintain.touched")},
		{"maintain.fallback_share", "ratio", fallbackShare},
		{"maintain.resolve_ms", "ms", med("maintain.resolve_ms")},
		{"maintain.size_growth", "ratio", mean("maintain.size_growth")},
		{"maintain.size_vs_fresh", "ratio", vsFresh},
	}, nil
}

// describeInputs summarizes the generated instances for the header.
func describeInputs(solveIn *solveInputs, sessIn []*sessionInput) string {
	var edges, ops []float64
	if solveIn != nil {
		for _, d := range solveIn.bases {
			edges = append(edges, float64(d.g.NumEdges()))
		}
	}
	for _, in := range sessIn {
		edges = append(edges, float64(in.base.NumEdges()))
		for _, step := range in.steps {
			ops = append(ops, float64(len(step)))
		}
	}
	s := fmt.Sprintf("inputs %.1f edges per deployment", stats.Mean(edges))
	if len(ops) > 0 {
		s += fmt.Sprintf(", %.1f ops per delta step", stats.Mean(ops))
	}
	return s
}

func header(cfg runConfig, inputs string, inWindow, after, beyond int, setupSecs []float64) []string {
	params, _ := json.Marshal(cfg.w)
	return []string{
		fmt.Sprintf("ftperf workload=%s seed=%d seconds=%v trace=%v", cfg.w.Name, cfg.seed, cfg.window.Seconds(), cfg.traced),
		fmt.Sprintf("host nproc=%d gomaxprocs=%d cpu=%q go=%s gnp_generator=%s",
			runtime.NumCPU(), runtime.GOMAXPROCS(0), cpuModel(), runtime.Version(), graph.GnpGenerator),
		"workload " + string(params),
		inputs,
		fmt.Sprintf("load closed loop, %d clients on one http.Client (%d keep-alive connections), ftserved -workers 2, k=%d t=%d",
			clients, clients, paramK, paramT),
		fmt.Sprintf("setup %d server starts, setup_s samples %.4f", setups, setupSecs),
		fmt.Sprintf("window %d requests answered inside it, %d after it, %d samples beyond p95",
			inWindow, after, beyond),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(io.LimitReader(f, 1<<20))
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeSpans(path string, snaps []obs.TraceJSON) error {
	b, err := json.MarshalIndent(snaps, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// report prints the header, every metric as "name value unit", and the
// JSON summary as the last line: the end-to-end metrics untraced, the
// per-layer metrics traced.
func report(wr io.Writer, cfg runConfig, out *outcome) error {
	bw := bufio.NewWriter(wr)
	for _, h := range out.header {
		fmt.Fprintln(bw, "#", h)
	}
	for _, m := range append(out.e2e, out.layer...) {
		fmt.Fprintf(bw, "%-28s %14.6g %s\n", m.name, m.value, m.unit)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	summary := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: map[string]value{}}
	printed := out.e2e
	if cfg.traced {
		printed = out.layer
	}
	for _, m := range printed {
		summary.Metrics[m.name] = value{m.value, m.unit}
	}
	b, err := json.Marshal(summary)
	if err != nil {
		return err
	}
	fmt.Fprintln(bw, string(b))
	return bw.Flush()
}
