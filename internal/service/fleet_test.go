package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"ftclust/internal/obs"
)

// findSpan depth-first searches a snapshot tree for a span by name.
func findSpan(s *obs.SpanJSON, name string) *obs.SpanJSON {
	if s.Name == name {
		return s
	}
	for i := range s.Children {
		if hit := findSpan(&s.Children[i], name); hit != nil {
			return hit
		}
	}
	return nil
}

// getJSON GETs url and decodes the body, failing the test on transport
// or status errors.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("GET %s: decoding: %v", url, err)
		}
	}
	return resp.StatusCode
}

// traceByID polls one node's /debug/trace/{id} until the ring holds the
// trace (the middleware files it a moment after the response flushes).
func traceByID(t *testing.T, baseURL, id string) obs.TraceJSON {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		var tr obs.TraceJSON
		if st := getJSON(t, baseURL+"/debug/trace/"+id, &tr); st == http.StatusOK {
			return tr
		}
		if time.Now().After(deadline) {
			t.Fatalf("trace %s never appeared at %s", id, baseURL)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// nonOwnedSolveBody finds a solve request whose cache key the given node
// does NOT own, so submitting it there must forward.
func nonOwnedSolveBody(t *testing.T, n *clusterNode) string {
	t.Helper()
	for seed := 0; seed < 64; seed++ {
		b := solveBodyForSeed(3000 + seed)
		var req SolveRequest
		if !jsonDecode(b, &req) {
			t.Fatal("bad test body")
		}
		_, key, err := n.srv.prepareSolve(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		if _, local := n.srv.cluster.Route(key); !local {
			return b
		}
	}
	t.Fatal("no non-owned key found in 64 tries (hash degenerate?)")
	return ""
}

// A forwarded solve resolves at the origin's /debug/trace/{id} as one
// tree spanning both nodes: the origin's forward span carries the
// remote leg's span subtree (including the remote solve-phase spans)
// as a grafted child, and the remote node traced under the origin's
// unchanged request ID.
func TestClusterStitchedTrace(t *testing.T) {
	n1 := startClusterNode(t, nil, nil)
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	n3 := startClusterNode(t, []string{n1.addr}, nil)
	nodes := []*clusterNode{n1, n2, n3}
	waitPeers(t, nodes, 3)

	body := nonOwnedSolveBody(t, n1)
	resp, respBody := postJSON(t, n1.ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d, body %s", resp.StatusCode, respBody)
	}
	if route := resp.Header.Get("X-Cluster-Route"); route != "forwarded" {
		t.Fatalf("X-Cluster-Route = %q, want forwarded", route)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("response missing X-Request-ID")
	}

	tr := traceByID(t, n1.ts.URL, id)
	if tr.ID != id {
		t.Fatalf("trace id = %q, want %q", tr.ID, id)
	}
	forward := findSpan(&tr.Root, "forward")
	if forward == nil {
		t.Fatalf("origin trace has no forward span: %+v", tr.Root)
	}
	owner := forward.Attrs["owner"]
	if owner == "" {
		t.Fatal("forward span missing owner attr")
	}
	if len(forward.Children) == 0 {
		t.Fatal("forward span has no grafted remote subtree")
	}
	// The grafted child is the remote leg's root; it must contain the
	// remote solve span with its phase children (fractional, rounding,
	// verify) — proof the tree spans both nodes.
	remoteSolve := findSpan(forward, "solve")
	if remoteSolve == nil {
		t.Fatalf("stitched tree carries no remote solve span: %+v", forward)
	}
	if len(remoteSolve.Children) == 0 {
		t.Fatal("remote solve span lost its phase children in transit")
	}

	// Satellite: the proxied leg did not mint its own ID — the owner
	// traced the same request under the origin's ID.
	var ownerNode *clusterNode
	for _, n := range nodes {
		if n.addr == owner {
			ownerNode = n
		}
	}
	if ownerNode == nil {
		t.Fatalf("owner %q is not a cluster member", owner)
	}
	remote := traceByID(t, ownerNode.ts.URL, id)
	if remote.ID != id {
		t.Fatalf("remote trace id = %q, want the origin's %q", remote.ID, id)
	}
	if findSpan(&remote.Root, "solve") == nil {
		t.Fatalf("remote trace has no solve span: %+v", remote.Root)
	}
}

// scrapeSolves fetches one node's /metrics and returns its
// ftclust_solves_total, via the same parser the fleet endpoint uses.
func scrapeSolves(t *testing.T, baseURL string) float64 {
	t.Helper()
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	snap, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("parsing %s/metrics: %v", baseURL, err)
	}
	v, _ := snap.Value("ftclust_solves_total")
	return v
}

// The fleet endpoint aggregates every peer's scrape: counters equal the
// sum of the individual per-peer scrapes, the merged exposition carries
// the summed gauges, and a peer killed mid-scrape degrades its row
// instead of failing the endpoint.
func TestClusterFleetAggregation(t *testing.T) {
	n1 := startClusterNode(t, nil, nil)
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	n3 := startClusterNode(t, []string{n1.addr}, nil)
	nodes := []*clusterNode{n1, n2, n3}
	waitPeers(t, nodes, 3)

	const keys = 12
	for i := 0; i < keys; i++ {
		node := nodes[i%len(nodes)]
		resp, body := postJSON(t, node.ts.URL+"/v1/solve", solveBodyForSeed(4000+i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}

	var individual float64
	for _, n := range nodes {
		individual += scrapeSolves(t, n.ts.URL)
	}
	if individual != keys {
		t.Fatalf("per-peer scrapes sum to %v solves, want %d", individual, keys)
	}

	var sum FleetSummary
	if st := getJSON(t, n1.ts.URL+FleetPath, &sum); st != http.StatusOK {
		t.Fatalf("fleet: status %d", st)
	}
	if sum.Members != 3 || sum.ScrapeErrors != 0 {
		t.Fatalf("healthy fleet: members=%d errors=%d, want 3/0", sum.Members, sum.ScrapeErrors)
	}
	if sum.Aggregate.Solves != individual {
		t.Fatalf("aggregate solves = %v, want the per-peer sum %v", sum.Aggregate.Solves, individual)
	}
	if sum.Aggregate.SolveP99Ms <= 0 || sum.Aggregate.SolveSamples != keys {
		t.Fatalf("merged histogram: p99=%v samples=%d, want >0/%d",
			sum.Aggregate.SolveP99Ms, sum.Aggregate.SolveSamples, keys)
	}
	for _, p := range sum.Peers {
		if !p.ScrapeOK {
			t.Fatalf("healthy fleet has a degraded row: %+v", p)
		}
	}

	// The merged exposition sums gauges across peers: each of the 3
	// nodes reports 3 members, so the fleet-wide series reads 9.
	resp, err := http.Get(n1.ts.URL + fleetMetricsPath)
	if err != nil {
		t.Fatal(err)
	}
	merged, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !bytes.Contains(merged, []byte("ftclust_cluster_peers 9")) {
		t.Fatalf("merged exposition lacks summed ftclust_cluster_peers 9:\n%s",
			firstMatching(merged, "ftclust_cluster_peers"))
	}
	snap, err := obs.ParsePrometheus(bytes.NewReader(merged[bytes.IndexByte(merged, '\n')+1:]))
	if err != nil {
		t.Fatalf("merged exposition does not re-parse: %v", err)
	}
	if h, ok := snap.Hist("ftclust_solve_duration_seconds"); !ok || h.Count != keys {
		t.Fatalf("merged exposition histogram: ok=%v count=%v, want %d", ok, h, keys)
	}

	// Kill one node and scrape again: degraded row + error counter, not
	// a 500 — and the survivors' counters still aggregate.
	n3.kill()
	var degraded FleetSummary
	if st := getJSON(t, n1.ts.URL+FleetPath, &degraded); st != http.StatusOK {
		t.Fatalf("fleet with a dead peer: status %d, want 200", st)
	}
	if degraded.ScrapeErrors < 1 {
		t.Fatalf("dead peer not counted: %+v", degraded)
	}
	failed := 0
	for _, p := range degraded.Peers {
		if !p.ScrapeOK {
			failed++
			if p.Error == "" {
				t.Fatalf("degraded row carries no error: %+v", p)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d degraded rows, want exactly 1", failed)
	}
	if degraded.Aggregate.Solves <= 0 {
		t.Fatal("aggregation lost the surviving peers' counters")
	}
	if got := n1.srv.metrics.fleetScrapeErrors.Value(); got < 1 {
		t.Fatalf("ftclust_fleet_scrape_errors_total = %d, want ≥1", got)
	}
}

// firstMatching returns the exposition lines containing substr, for
// failure messages.
func firstMatching(text []byte, substr string) string {
	var out []string
	for _, line := range strings.Split(string(text), "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}

// Without cluster mode the fleet endpoint degrades to a fleet of one.
func TestFleetOfOne(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/solve", gnpSolveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d, body %s", resp.StatusCode, body)
	}
	var sum FleetSummary
	if st := getJSON(t, ts.URL+FleetPath, &sum); st != http.StatusOK {
		t.Fatalf("fleet: status %d", st)
	}
	if sum.Members != 1 || len(sum.Peers) != 1 || !sum.Peers[0].Self {
		t.Fatalf("fleet of one: %+v", sum)
	}
	if sum.Aggregate.Solves != 1 {
		t.Fatalf("aggregate solves = %v, want 1", sum.Aggregate.Solves)
	}
}

// Every node's event log records the joins it observed, and the
// endpoint bounds and validates its n parameter.
func TestDebugEventsJoin(t *testing.T) {
	n1 := startClusterNode(t, nil, nil)
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	waitPeers(t, []*clusterNode{n1, n2}, 2)

	for _, n := range []*clusterNode{n1, n2} {
		var body struct {
			Events []obs.Event `json:"events"`
		}
		joined := func() bool {
			if st := getJSON(t, n.ts.URL+"/debug/events", &body); st != http.StatusOK {
				t.Fatalf("events on %s: status %d", n.addr, st)
			}
			for _, e := range body.Events {
				if e.Type == "join" && e.Attrs["peer"] != "" {
					return true
				}
			}
			return false
		}
		// n2 counts its seed row as a member before n1 first answers
		// it, and the join is logged at that first answer, so poll.
		deadline := time.Now().Add(10 * time.Second)
		for !joined() {
			if time.Now().After(deadline) {
				t.Fatalf("node %s logged no join event: %+v", n.addr, body.Events)
			}
			time.Sleep(5 * time.Millisecond)
		}

		if st := getJSON(t, n.ts.URL+"/debug/events?n=1", &body); st != http.StatusOK || len(body.Events) != 1 {
			t.Fatalf("events?n=1: status %d, %d events", st, len(body.Events))
		}
		var ignore any
		if st := getJSON(t, n.ts.URL+"/debug/events?n=bogus", &ignore); st != http.StatusBadRequest {
			t.Fatalf("events?n=bogus: status %d, want 400", st)
		}
	}
}

// The gossip endpoints sit behind the same middleware as /v1/*: their
// responses carry request IDs and their traffic lands in the bounded
// per-endpoint http series.
func TestGossipEndpointObservability(t *testing.T) {
	n1 := startClusterNode(t, nil, nil)
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	waitPeers(t, []*clusterNode{n1, n2}, 2)

	resp, err := http.Get(n1.ts.URL + "/cluster/v1/peers")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.Header.Get("X-Request-ID") == "" {
		t.Fatal("/cluster/v1/peers response missing X-Request-ID")
	}

	mr, err := http.Get(n1.ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	text, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	for _, endpoint := range []string{"/cluster/v1/gossip", "/cluster/v1/peers"} {
		series := fmt.Sprintf(`ftclust_http_requests_total{endpoint=%q}`, endpoint)
		if !bytes.Contains(text, []byte(series)) {
			t.Errorf("metrics lack %s coverage:\n%s", endpoint,
				firstMatching(text, "ftclust_http_requests_total"))
		}
	}
}

// Garbage in the trace-export response header is rejected without
// panicking and never corrupts the origin's trace: the forward span
// gains an export_error attr and the ring entry stays renderable.
func TestStitchRemoteTraceGarbageSafe(t *testing.T) {
	s, _ := newTestServer(t, Config{})

	for _, garbage := range []string{
		"!!!not-base64!!!",
		"AAAA",                     // base64 of junk bytes
		"bnVsbA==",                 // "null"
		"eyJuYW1lIjoiIn0=",         // {"name":""} — empty name rejected
		strings.Repeat("A", 90000), // oversized
	} {
		tr := obs.NewTrace("trace-id", "POST /v1/solve")
		sp := tr.StartSpan(nil, "forward")
		s.stitchRemoteTrace(tr, sp, garbage)
		sp.End()
		tr.Finish()
		s.traces.Add(tr)

		snap := tr.Snapshot()
		fw := findSpan(&snap.Root, "forward")
		if fw == nil {
			t.Fatalf("forward span lost after garbage %.20q", garbage)
		}
		if len(fw.Children) != 0 {
			t.Fatalf("garbage %.20q grafted children: %+v", garbage, fw.Children)
		}
		if fw.Attrs["export_error"] != "rejected" {
			t.Fatalf("garbage %.20q not marked: %+v", garbage, fw.Attrs)
		}
		if got, ok := s.traces.Get("trace-id"); !ok || got.Snapshot().ID != "trace-id" {
			t.Fatal("trace ring corrupted by rejected export")
		}
	}

	// A valid export still grafts.
	remote := obs.NewTrace("remote", "POST /v1/solve")
	remote.StartSpan(nil, "solve").End()
	remote.Finish()
	enc, _ := obs.EncodeTraceExport(remote, maxTraceExportBytes)
	tr := obs.NewTrace("trace-id-2", "POST /v1/solve")
	sp := tr.StartSpan(nil, "forward")
	s.stitchRemoteTrace(tr, sp, enc)
	snap := tr.Snapshot()
	if findSpan(&snap.Root, "solve") == nil {
		t.Fatalf("valid export did not graft: %+v", snap.Root)
	}
}

// The session delta/repair path traces its phases: repair with assess,
// promote (touched/iterations attrs) — and fallback when drift forces a
// certified re-solve.
func TestSessionDeltaTraceSpans(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/session", gnpSolveBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("session create: status %d, body %s", resp.StatusCode, body)
	}
	var created SessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}

	resp, body = postJSON(t, ts.URL+"/v1/session/"+created.SessionID+"/delta",
		`{"ops":[{"op":"fail","nodes":[3]},{"op":"add_node"}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d, body %s", resp.StatusCode, body)
	}
	id := resp.Header.Get("X-Request-ID")
	if id == "" {
		t.Fatal("delta response missing X-Request-ID")
	}

	tr := traceByID(t, ts.URL, id)
	repair := findSpan(&tr.Root, "repair")
	if repair == nil {
		t.Fatalf("delta trace has no repair span: %+v", tr.Root)
	}
	if findSpan(repair, "assess") == nil {
		t.Fatalf("repair span has no assess child: %+v", repair)
	}
	promote := findSpan(repair, "promote")
	if promote == nil {
		t.Fatalf("repair span has no promote child: %+v", repair)
	}
	if promote.Attrs["touched"] == "" || promote.Attrs["iterations"] == "" {
		t.Fatalf("promote span missing touched/iterations attrs: %+v", promote.Attrs)
	}
}
