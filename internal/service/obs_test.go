package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ftclust/internal/obs"
)

// getBody GETs a URL and returns status, headers and body.
func getBody(t *testing.T, url string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

// /metrics serves Prometheus text exposition with the solver, queue and
// per-endpoint series, and histogram buckets are cumulative-monotone.
func TestPrometheusMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/solve", gnpSolveBody)

	resp, body := getBody(t, ts.URL+"/metrics")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	text := string(body)
	for _, want := range []string{
		"ftclust_solves_total 1",
		"ftclust_cache_misses_total 1",
		"ftclust_solve_duration_seconds_count 1",
		"ftclust_queue_wait_seconds_count 1",
		"ftclust_solver_lp_rounds_count 1",
		"ftclust_solver_rounding_passes_count 1",
		"ftclust_solver_dual_gap_count 1",
		`ftclust_solver_phase_duration_seconds_count{phase="fractional"} 1`,
		`ftclust_solver_phase_duration_seconds_count{phase="rounding"} 1`,
		`ftclust_solver_phase_duration_seconds_count{phase="verify"} 1`,
		`ftclust_http_requests_total{endpoint="/v1/solve"} 1`,
		"# TYPE ftclust_solve_duration_seconds histogram",
		"# TYPE ftclust_solves_total counter",
		"# TYPE ftclust_queue_depth gauge",
		"ftclust_uptime_seconds",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// The LP-rounds histogram must have seen exactly 2t² = 18.
	if !strings.Contains(text, "ftclust_solver_lp_rounds_sum 18") {
		t.Error("lp_rounds sum != 18 for one t=3 solve")
	}

	// Every histogram's bucket counts must be non-decreasing in le-order
	// and end at +Inf (Prometheus cumulative-bucket contract).
	buckets := map[string][]int64{} // series prefix -> counts in order
	infSeen := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.Contains(line, "_bucket{") {
			continue
		}
		name := line[:strings.Index(line, "{")]
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		// Split off the le label so each labeled histogram is tracked
		// separately (endpoint/phase variants).
		key := name + line[strings.Index(line, "{"):strings.Index(line, `le="`)]
		buckets[key] = append(buckets[key], v)
		if strings.Contains(line, `le="+Inf"`) {
			infSeen[key] = true
		}
	}
	if len(buckets) == 0 {
		t.Fatal("no histogram bucket lines in exposition")
	}
	for key, counts := range buckets {
		for i := 1; i < len(counts); i++ {
			if counts[i] < counts[i-1] {
				t.Errorf("%s: bucket counts not monotone: %v", key, counts)
			}
		}
		if !infSeen[key] {
			t.Errorf("%s: no +Inf bucket", key)
		}
	}
}

// Every family in /metrics is one contiguous group: one # HELP and one
// # TYPE line, then all of its samples (a histogram's _bucket, _sum and
// _count lines included) before the next family starts. The text
// format forbids splitting a family, and the per-endpoint http
// histogram and counter are registered alternately.
func TestMetricsFamiliesContiguous(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/solve", gnpSolveBody)
	_, body := getBody(t, ts.URL+"/metrics")

	kinds := map[string]string{} // family → # TYPE kind
	headers := map[string]int{}  // "HELP name" / "TYPE name" → lines
	closed := map[string]bool{}  // families whose group has ended
	cur := ""
	for _, line := range strings.Split(strings.TrimSpace(string(body)), "\n") {
		var family string
		if f := strings.Fields(line); len(f) >= 3 && f[0] == "#" {
			family = f[2]
			headers[f[1]+" "+family]++
			if f[1] == "TYPE" && len(f) == 4 {
				kinds[family] = f[3]
			}
		} else {
			family = line[:strings.IndexAny(line, "{ ")]
			for _, suffix := range []string{"_bucket", "_sum", "_count"} {
				if base, ok := strings.CutSuffix(family, suffix); ok && kinds[base] == "histogram" {
					family = base
				}
			}
		}
		if family != cur {
			if closed[family] {
				t.Errorf("family %s resumes after %s: %q", family, cur, line)
			}
			closed[cur] = true
			cur = family
		}
	}
	if len(kinds) < 20 {
		t.Fatalf("only %d families in /metrics:\n%s", len(kinds), body)
	}
	for family := range kinds {
		if h, ty := headers["HELP "+family], headers["TYPE "+family]; h != 1 || ty != 1 {
			t.Errorf("family %s: %d HELP and %d TYPE lines, want 1 each", family, h, ty)
		}
	}
}

// fetchTrace polls baseURL's /debug/trace/{id} until the trace is there
// (it is ring-committed after the handler returns) and decodes it.
func fetchTrace(t *testing.T, baseURL, id string) obs.TraceJSON {
	t.Helper()
	if id == "" {
		t.Fatal("response missing X-Request-ID")
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp, b := getBody(t, baseURL+"/debug/trace/"+id)
		if resp.StatusCode == http.StatusOK {
			var tj obs.TraceJSON
			if err := json.Unmarshal(b, &tj); err != nil {
				t.Fatalf("trace JSON: %v (%s)", err, b)
			}
			return tj
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared: status %d", id, resp.StatusCode)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// spansByName indexes every span of the tree under sp by name.
func spansByName(sp obs.SpanJSON) map[string]obs.SpanJSON {
	names := map[string]obs.SpanJSON{}
	var walk func(sp obs.SpanJSON)
	walk = func(sp obs.SpanJSON) {
		names[sp.Name] = sp
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(sp)
	return names
}

// Every response carries X-Request-ID; for API calls the ID resolves at
// /debug/trace/{id} to a span tree with queue wait, cache decision,
// solver phases and encode. Client-supplied IDs are propagated.
func TestRequestIDResolvesToTrace(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, _ := postJSON(t, ts.URL+"/v1/solve", gnpSolveBody)
	id := resp.Header.Get("X-Request-ID")
	tj := fetchTrace(t, ts.URL, id)
	if tj.ID != id || tj.Root.Name != "POST /v1/solve" {
		t.Fatalf("trace header wrong: %+v", tj)
	}
	names := spansByName(tj.Root)
	for _, want := range []string{"read", "decode", "build", "hash", "cache", "queue-wait", "solve", "fractional", "rounding", "verify", "encode"} {
		if _, ok := names[want]; !ok {
			t.Errorf("span %q missing from trace (have %+v)", want, tj.Root)
		}
	}
	if names["cache"].Attrs["decision"] != "miss" {
		t.Errorf("cache span decision = %v, want miss", names["cache"].Attrs)
	}
	if names["solve"].Attrs["lp_rounds"] != "18" {
		t.Errorf("solve span lp_rounds = %v, want 18", names["solve"].Attrs)
	}
	if names["fractional"].Attrs["rounds"] != "18" {
		t.Errorf("fractional span rounds = %v", names["fractional"].Attrs)
	}

	// The listing shows it too.
	lresp, lbody := getBody(t, ts.URL+"/debug/trace")
	if lresp.StatusCode != http.StatusOK || !strings.Contains(string(lbody), id) {
		t.Fatalf("trace listing missing %s: %s", id, lbody)
	}

	// A caller-chosen ID survives the round trip.
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(gnpSolveBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Request-ID", "caller-chosen-42")
	cresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	cresp.Body.Close()
	if got := cresp.Header.Get("X-Request-ID"); got != "caller-chosen-42" {
		t.Fatalf("client request ID not propagated: %q", got)
	}

	// A canonical edge list is keyed from its pairs, so its repeat is a
	// hit that builds nothing. The same edges in reverse order are not
	// canonical: they are built and hashed from the CSR, and hit the same
	// entry with the same bytes.
	g := udgDeployment(300, 8)
	edges := g.EdgeList()
	canonical := string(solveBody(t, g, false))
	_, miss := postJSON(t, ts.URL+"/v1/solve", canonical)
	reversed := make(EdgeList, 0, len(edges))
	for i := len(edges) - 1; i >= 0; i-- {
		reversed = append(reversed, [2]int{int(edges[i].U), int(edges[i].V)})
	}
	reversedBody := string(mustMarshal(t, SolveRequest{Graph: &GraphSpec{N: g.NumNodes(), Edges: reversed}, K: 2, T: 3}))
	for _, tc := range []struct {
		name, body string
		built      bool
	}{
		{"canonical repeat", canonical, false},
		{"reversed", reversedBody, true},
	} {
		resp, b := postJSON(t, ts.URL+"/v1/solve", tc.body)
		if resp.StatusCode != http.StatusOK || resp.Header.Get("X-Cache") != "hit" {
			t.Fatalf("%s: status %d, X-Cache %q", tc.name, resp.StatusCode, resp.Header.Get("X-Cache"))
		}
		if !bytes.Equal(b, miss) {
			t.Fatalf("%s: hit body differs from the miss body", tc.name)
		}
		names := spansByName(fetchTrace(t, ts.URL, resp.Header.Get("X-Request-ID")).Root)
		for _, want := range []string{"read", "decode", "hash", "cache"} {
			if _, ok := names[want]; !ok {
				t.Errorf("%s: span %q missing (have %v)", tc.name, want, names)
			}
		}
		if d := names["cache"].Attrs["decision"]; d != "hit" {
			t.Errorf("%s: cache decision = %q, want hit", tc.name, d)
		}
		if _, built := names["build"]; built != tc.built {
			t.Errorf("%s: build span recorded = %v, want %v", tc.name, built, tc.built)
		}
	}
}

// A delta's X-Request-ID resolves to a span tree with the intake stages,
// read and decode, ahead of the repair and its assess and promote phases.
func TestDeltaTraceStages(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, pathSessionBody(10, 1))

	resp, body := postJSON(t, ts.URL+"/v1/session/"+cr.SessionID+"/delta",
		`{"ops":[{"op":"fail","nodes":[3]},{"op":"add_node"},{"op":"add_edge","u":0,"v":10}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d, body %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Request-ID")
	tj := fetchTrace(t, ts.URL, id)
	if tj.ID != id || tj.Root.Name != "POST /v1/session/{id}/delta" {
		t.Fatalf("trace header wrong: %+v", tj)
	}
	names := spansByName(tj.Root)
	for _, want := range []string{"read", "decode", "repair", "assess", "promote"} {
		if _, ok := names[want]; !ok {
			t.Errorf("span %q missing from trace (have %+v)", want, tj.Root)
		}
	}
	if read, decode, repair := names["read"].Start, names["decode"].Start, names["repair"].Start; read.After(decode) || decode.After(repair) {
		t.Errorf("stages out of order: read %v, decode %v, repair %v", read, decode, repair)
	}
}

// Cache hits and coalesced followers must never touch the solve-latency
// or queue-wait histograms: those time real solver work only.
func TestQueueWaitAndSolveLatencySeparation(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	postJSON(t, ts.URL+"/v1/solve", gnpSolveBody) // cold: one solve sample
	postJSON(t, ts.URL+"/v1/solve", gnpSolveBody) // hit: no new samples
	postJSON(t, ts.URL+"/v1/solve", gnpSolveBody) // hit

	m := s.metrics
	if hits, solves := m.cacheHits.Value(), m.solves.Value(); hits != 2 || solves != 1 {
		t.Fatalf("unexpected traffic mix: hits=%d solves=%d", hits, solves)
	}
	if n := m.solveLat.Count(); n != 1 {
		t.Errorf("solve-latency samples = %d, want 1 (cache hits must not count)", n)
	}
	if n := m.queueWait.Count(); n != 1 {
		t.Errorf("queue-wait samples = %d, want 1", n)
	}
	lat, _ := m.reg.Snapshot().Hist("ftclust_solve_duration_seconds")
	if p50, p99 := lat.Quantile(0.50), lat.Quantile(0.99); p50 <= 0 || p99 < p50 {
		t.Errorf("implausible solve quantiles: p50=%gs p99=%gs", p50, p99)
	}
}

// All read-only observability endpoints reject non-GET methods.
func TestDebugEndpointsRejectNonGET(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, path := range []string{"/metrics", "/debug/trace", "/debug/trace/xyz"} {
		resp, _ := postJSON(t, ts.URL+path, "{}")
		if resp.StatusCode != http.StatusMethodNotAllowed {
			t.Errorf("POST %s: status %d, want 405", path, resp.StatusCode)
		}
	}
}

// syncBuffer is a goroutine-safe log sink for captured slog output.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// Graceful drain with observability on: a SIGTERM-style Shutdown during
// an in-flight traced solve lets the solve finish, keeps its trace
// reachable in the ring, and emits structured access plus final shutdown
// log lines.
func TestShutdownDrainFlushesTraceAndLogs(t *testing.T) {
	var logs syncBuffer
	logger := slog.New(slog.NewJSONHandler(&logs, &slog.HandlerOptions{Level: slog.LevelDebug}))
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8, Logger: logger})

	type result struct {
		status int
		id     string
	}
	resCh := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"family":{"name":"gnp","n":40000,"degree":6,"seed":3},"k":3,"t":6}`))
		if err != nil {
			resCh <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		resCh <- result{status: resp.StatusCode, id: resp.Header.Get("X-Request-ID")}
	}()

	deadline := time.Now().Add(10 * time.Second)
	for s.metrics.inFlight.Load() == 0 && s.metrics.solves.Value() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("solve never started")
		}
		time.Sleep(2 * time.Millisecond)
	}

	sctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if err := s.Shutdown(sctx); err != nil {
		t.Fatalf("Shutdown: %v", err)
	}

	res := <-resCh
	if res.status != http.StatusOK || res.id == "" {
		t.Fatalf("drained solve: status %d, id %q", res.status, res.id)
	}

	// The trace must survive the drain and resolve by ID.
	traceDeadline := time.Now().Add(5 * time.Second)
	for {
		if _, ok := s.traces.Get(res.id); ok {
			break
		}
		if time.Now().After(traceDeadline) {
			t.Fatalf("trace %s not in ring after drain", res.id)
		}
		time.Sleep(2 * time.Millisecond)
	}

	// Structured logs: a JSON access line for the solve and the final
	// shutdown line, each with the expected fields.
	assertLogLine := func(msg string, want map[string]bool) {
		t.Helper()
		lineDeadline := time.Now().Add(5 * time.Second)
		for {
			for _, line := range strings.Split(logs.String(), "\n") {
				if line == "" {
					continue
				}
				var rec map[string]any
				if err := json.Unmarshal([]byte(line), &rec); err != nil {
					t.Fatalf("non-JSON log line %q: %v", line, err)
				}
				if rec["msg"] != msg {
					continue
				}
				for field := range want {
					if _, ok := rec[field]; !ok {
						t.Errorf("log %q missing field %q: %s", msg, field, line)
					}
				}
				return
			}
			if time.Now().After(lineDeadline) {
				t.Fatalf("no %q log line in:\n%s", msg, logs.String())
			}
			time.Sleep(2 * time.Millisecond)
		}
	}
	assertLogLine("request", map[string]bool{
		"request_id": true, "method": true, "path": true, "endpoint": true,
		"status": true, "duration_ms": true,
	})
	assertLogLine("shutdown complete", map[string]bool{
		"solves": true, "traces_retained": true, "uptime_seconds": true,
	})
	if !strings.Contains(logs.String(), fmt.Sprintf("%q:%q", "request_id", res.id)) {
		t.Errorf("access log does not carry the request id %s:\n%s", res.id, logs.String())
	}
}
