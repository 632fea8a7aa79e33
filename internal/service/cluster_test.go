package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"ftclust/internal/obs"
)

// clusterNode is one in-process ftserved instance wired into a test
// cluster: a real Server behind a real listener, so gossip and request
// forwarding travel over actual HTTP.
type clusterNode struct {
	srv  *Server
	ts   *httptest.Server
	addr string
	stop sync.Once
}

// fastGossip returns cluster timings tight enough for tests to converge
// in tens of milliseconds without flaking under load.
func fastGossip(self string, seeds []string) *ClusterConfig {
	return &ClusterConfig{
		Self:           self,
		Seeds:          seeds,
		GossipInterval: 20 * time.Millisecond,
		SuspectAfter:   200 * time.Millisecond,
		EvictAfter:     600 * time.Millisecond,
	}
}

// startClusterNode boots a cluster member. The listener must exist
// before service.New so the node can advertise its real address; the
// handler indirects through the pointer, which is assigned before
// Start spawns any serving goroutine.
func startClusterNode(t *testing.T, seeds []string, mutate func(*Config)) *clusterNode {
	t.Helper()
	n := &clusterNode{}
	n.ts = httptest.NewUnstartedServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		n.srv.Handler().ServeHTTP(w, r)
	}))
	n.addr = n.ts.Listener.Addr().String()
	cfg := Config{Cluster: fastGossip(n.addr, seeds)}
	if mutate != nil {
		mutate(&cfg)
	}
	n.srv = New(cfg)
	n.ts.Start()
	t.Cleanup(n.kill)
	return n
}

// kill shuts the node down hard: stop serving, leave the gossip loop.
// Idempotent so tests can kill explicitly and rely on cleanup too.
func (n *clusterNode) kill() {
	n.stop.Do(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		n.srv.Shutdown(ctx)
		n.ts.Close()
	})
}

// waitPeers polls until every node sees exactly want members.
func waitPeers(t *testing.T, nodes []*clusterNode, want int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		converged := true
		for _, n := range nodes {
			if n.srv.cluster.NumMembers() != want {
				converged = false
				break
			}
		}
		if converged {
			return
		}
		if time.Now().After(deadline) {
			views := make([]string, len(nodes))
			for i, n := range nodes {
				views[i] = fmt.Sprintf("%s=%d", n.addr, n.srv.cluster.NumMembers())
			}
			t.Fatalf("cluster never converged on %d members: %s", want, strings.Join(views, " "))
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func solveBodyForSeed(seed int) string {
	return fmt.Sprintf(`{"family":{"name":"gnp","n":60,"degree":5,"seed":%d},"k":2,"t":2}`, seed)
}

// Three nodes bootstrapped off one seed converge on full membership;
// a killed node is evicted from the survivors' views; a late joiner
// brings the count back up.
func TestClusterMembershipConvergence(t *testing.T) {
	n1 := startClusterNode(t, nil, nil)
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	n3 := startClusterNode(t, []string{n1.addr}, nil)
	waitPeers(t, []*clusterNode{n1, n2, n3}, 3)

	// Kill: the dead node stops heartbeating and ages out of both views.
	n3.kill()
	waitPeers(t, []*clusterNode{n1, n2}, 2)

	// Join: a fresh node seeded off n2 propagates to n1 transitively.
	n4 := startClusterNode(t, []string{n2.addr}, nil)
	waitPeers(t, []*clusterNode{n1, n2, n4}, 3)
}

// Cache-shard locality: 64 distinct keys sprayed round-robin across 3
// nodes are each solved exactly once cluster-wide — every non-owner
// proxies to the owner instead of solving and caching its own copy.
func TestClusterExactlyOnceSolves(t *testing.T) {
	n1 := startClusterNode(t, nil, nil)
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	n3 := startClusterNode(t, []string{n1.addr}, nil)
	nodes := []*clusterNode{n1, n2, n3}
	waitPeers(t, nodes, 3)

	const keys = 64
	forwarded := 0
	for i := 0; i < keys; i++ {
		node := nodes[i%len(nodes)]
		resp, body := postJSON(t, node.ts.URL+"/v1/solve", solveBodyForSeed(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("key %d on %s: status %d, body %s", i, node.addr, resp.StatusCode, body)
		}
		switch route := resp.Header.Get("X-Cluster-Route"); route {
		case "local":
		case "forwarded":
			forwarded++
		default:
			t.Fatalf("key %d: X-Cluster-Route = %q", i, route)
		}
	}

	var solves int64
	for _, n := range nodes {
		solves += n.srv.metrics.solves.Value()
	}
	if solves != keys {
		t.Fatalf("cluster-wide solves = %d, want exactly %d (each key owned once)", solves, keys)
	}
	// With 3 nodes, ≈2/3 of round-robin placements miss the owner.
	if forwarded == 0 {
		t.Fatal("no request was forwarded; routing is not engaging")
	}

	// Replay every key against a different node than before: all cache
	// hits somewhere in the cluster, zero new solves.
	for i := 0; i < keys; i++ {
		node := nodes[(i+1)%len(nodes)]
		resp, body := postJSON(t, node.ts.URL+"/v1/solve", solveBodyForSeed(i))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("replay key %d: status %d, body %s", i, resp.StatusCode, body)
		}
		if xc := resp.Header.Get("X-Cache"); xc != "hit" {
			t.Fatalf("replay key %d: X-Cache = %q, want hit", i, xc)
		}
	}
	var after int64
	for _, n := range nodes {
		after += n.srv.metrics.solves.Value()
	}
	if after != keys {
		t.Fatalf("replay re-solved keys: solves went %d → %d", keys, after)
	}
}

// A forwarded response must be byte-identical to the one the owner
// serves directly, and exactly one of the three nodes may claim a key
// as local. A canonical edge list is keyed from its pairs, so a non-owner
// forwards it without building the graph: its own spans hold no build.
func TestClusterForwardedByteIdentical(t *testing.T) {
	n1 := startClusterNode(t, nil, nil)
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	n3 := startClusterNode(t, []string{n1.addr}, nil)
	nodes := []*clusterNode{n1, n2, n3}
	waitPeers(t, nodes, 3)

	canonical := string(solveBody(t, udgDeployment(200, 8), false))
	for _, body := range []string{solveBodyForSeed(1000), canonical} {
		var bodies [][]byte
		locals, forwards := 0, 0
		for _, n := range nodes {
			resp, b := postJSON(t, n.ts.URL+"/v1/solve", body)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("solve on %s: status %d, body %s", n.addr, resp.StatusCode, b)
			}
			switch resp.Header.Get("X-Cluster-Route") {
			case "local":
				locals++
			case "forwarded":
				forwards++
				if body == canonical {
					// The owner's spans are grafted under the forward
					// span; the non-owner's own are the root's children.
					var own []string
					for _, sp := range fetchTrace(t, n.ts.URL, resp.Header.Get("X-Request-ID")).Root.Children {
						own = append(own, sp.Name)
					}
					if !slices.Contains(own, "forward") || slices.Contains(own, "build") {
						t.Errorf("non-owner %s forwarded a canonical body with spans %v, want a forward and no build", n.addr, own)
					}
				}
			}
			bodies = append(bodies, b)
		}
		if locals != 1 || forwards != 2 {
			t.Fatalf("route split local=%d forwarded=%d, want 1/2", locals, forwards)
		}
		for i := 1; i < len(bodies); i++ {
			if !bytes.Equal(bodies[0], bodies[i]) {
				t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
			}
		}
	}
}

// An owner response larger than MaxBodyBytes is a forward error, not a
// truncated relay: forwardSolve must bail before committing anything to
// the client and report false so the caller solves locally, with the
// failure counted in ftclust_cluster_forward_errors_total. A body of
// exactly MaxBodyBytes stays within contract and relays intact.
func TestClusterForwardOversizeFallsBack(t *testing.T) {
	n := startClusterNode(t, nil, func(c *Config) { c.MaxBodyBytes = 256 })

	bodySize := 512
	owner := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		w.Write(bytes.Repeat([]byte("x"), bodySize))
	}))
	defer owner.Close()
	ownerAddr := owner.Listener.Addr().String()

	errsBefore := n.srv.cluster.Metrics().ForwardErrors.Value()
	rec := httptest.NewRecorder()
	req := httptest.NewRequest(http.MethodPost, "/v1/solve", strings.NewReader(""))
	if n.srv.forwardSolve(rec, req, ownerAddr, []byte(solveBodyForSeed(1))) {
		t.Fatal("forwardSolve relayed an over-limit owner body instead of falling back")
	}
	if rec.Body.Len() != 0 {
		t.Fatalf("fallback wrote %d bytes to the client before bailing", rec.Body.Len())
	}
	if route := rec.Header().Get("X-Cluster-Route"); route != "" {
		t.Fatalf("fallback committed X-Cluster-Route=%q before bailing", route)
	}
	if errs := n.srv.cluster.Metrics().ForwardErrors.Value(); errs != errsBefore+1 {
		t.Fatalf("forward_errors went %d → %d, want +1", errsBefore, errs)
	}

	// Exactly at the cap: within contract, relayed byte-for-byte.
	bodySize = 256
	rec = httptest.NewRecorder()
	if !n.srv.forwardSolve(rec, req, ownerAddr, []byte(solveBodyForSeed(1))) {
		t.Fatal("forwardSolve rejected a body of exactly MaxBodyBytes")
	}
	if rec.Body.Len() != 256 {
		t.Fatalf("at-cap relay wrote %d bytes, want 256", rec.Body.Len())
	}
	if route := rec.Header().Get("X-Cluster-Route"); route != "forwarded" {
		t.Fatalf("at-cap relay X-Cluster-Route=%q, want forwarded", route)
	}

}

// refuseForwards passes gossip through and fails every forwarded solve,
// as dialing an owner that has just gone down would.
type refuseForwards struct{ next http.RoundTripper }

func (rt refuseForwards) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.URL.Path == "/v1/solve" {
		return nil, errors.New("connection refused")
	}
	return rt.next.RoundTrip(r)
}

// A /v1/solve whose forward fails is solved locally, and the fallback is
// recorded once in ftclust_cluster_forward_errors_total and once as a
// forward-fallback event in /debug/events.
func TestClusterForwardFallbackRecorded(t *testing.T) {
	n1 := startClusterNode(t, nil, func(c *Config) {
		c.Cluster.Client = &http.Client{
			Transport: refuseForwards{next: http.DefaultTransport},
			Timeout:   2 * time.Second,
		}
	})
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	waitPeers(t, []*clusterNode{n1, n2}, 2)
	body := nonOwnedBody(t, n1, 3000)

	errsBefore := n1.srv.cluster.Metrics().ForwardErrors.Value()
	resp, b := postJSON(t, n1.ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve: status %d, body %s", resp.StatusCode, b)
	}
	if route := resp.Header.Get("X-Cluster-Route"); route != "local" {
		t.Fatalf("fallen-back solve X-Cluster-Route = %q, want local", route)
	}
	var sol SolutionJSON
	if err := json.Unmarshal(b, &sol); err != nil || !sol.Verified {
		t.Fatalf("fallen-back solve was not answered locally: %s", b)
	}
	if errs := n1.srv.cluster.Metrics().ForwardErrors.Value(); errs != errsBefore+1 {
		t.Fatalf("forward_errors went %d → %d, want +1", errsBefore, errs)
	}

	var events struct {
		Events []obs.Event `json:"events"`
	}
	if st := getJSON(t, n1.ts.URL+"/debug/events", &events); st != http.StatusOK {
		t.Fatalf("/debug/events: status %d", st)
	}
	var fallbacks []obs.Event
	for _, e := range events.Events {
		if e.Type == "forward-fallback" {
			fallbacks = append(fallbacks, e)
		}
	}
	if len(fallbacks) != 1 {
		t.Fatalf("%d forward-fallback events, want exactly 1: %+v", len(fallbacks), events.Events)
	}
	if a := fallbacks[0].Attrs; a["path"] != "/v1/solve" || a["owner"] != n2.addr || a["reason"] != "transport" {
		t.Fatalf("forward-fallback attrs = %v, want path=/v1/solve owner=%s reason=transport", a, n2.addr)
	}
}

// nonOwnedBody returns a solve body, seeded from base upward, whose key
// n does not own, so n forwards it.
func nonOwnedBody(t *testing.T, n *clusterNode, base int) string {
	t.Helper()
	for seed := base; seed < base+64; seed++ {
		b := solveBodyForSeed(seed)
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

// The loop guard: a request already carrying the forwarded marker is
// served locally even by a non-owner, so divergent rings cannot bounce
// a request between nodes.
func TestClusterLoopGuard(t *testing.T) {
	n1 := startClusterNode(t, nil, nil)
	n2 := startClusterNode(t, []string{n1.addr}, nil)
	waitPeers(t, []*clusterNode{n1, n2}, 2)

	// A key n1 does NOT own (it would forward).
	body := nonOwnedBody(t, n1, 2000)

	req, _ := http.NewRequest(http.MethodPost, n1.ts.URL+"/v1/solve", strings.NewReader(body))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Cluster-Forwarded", "phantom.example:1")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("loop-guarded solve: status %d", resp.StatusCode)
	}
	if route := resp.Header.Get("X-Cluster-Route"); route != "local" {
		t.Fatalf("loop-guarded request routed %q, want local (one hop max)", route)
	}
}

func jsonDecode(s string, dst any) bool {
	return json.Unmarshal([]byte(s), dst) == nil
}

// The per-client token bucket sheds with 429 + Retry-After, keys on
// X-Client-ID, exempts forwarded peer traffic, and never sheds the
// metrics endpoint.
func TestRateLimitSheds(t *testing.T) {
	s, ts := newTestServer(t, Config{RatePerSec: 0.5, RateBurst: 2})

	post := func(client string) *http.Response {
		req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(gnpSolveBody))
		req.Header.Set("Content-Type", "application/json")
		if client != "" {
			req.Header.Set("X-Client-ID", client)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	for i := 0; i < 2; i++ {
		if resp := post("alice"); resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp := post("alice")
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-burst request: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 missing Retry-After")
	}
	// A different client has its own bucket.
	if resp := post("bob"); resp.StatusCode != http.StatusOK {
		t.Fatalf("independent client shed: status %d", resp.StatusCode)
	}
	// Forwarded peer traffic bypasses the bucket (the origin node
	// already charged the client).
	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/solve", strings.NewReader(gnpSolveBody))
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("X-Client-ID", "alice")
	req.Header.Set("X-Cluster-Forwarded", "peer.example:1")
	fr, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	fr.Body.Close()
	if fr.StatusCode != http.StatusOK {
		t.Fatalf("forwarded request shed: status %d", fr.StatusCode)
	}
	// Observability endpoints stay reachable during shedding.
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mr.Body.Close()
	if mr.StatusCode != http.StatusOK {
		t.Fatalf("/metrics shed: status %d", mr.StatusCode)
	}

	if got := s.metrics.shedRate.Value(); got < 1 {
		t.Fatalf("shed_ratelimit = %d, want ≥1", got)
	}
}

// Queue overflow sheds with 429 + Retry-After and bumps the
// reason="queue" counter; 503 stays reserved for drain/shutdown.
func TestQueueOverflowReturns429(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})

	slow := func(seed int) string {
		return fmt.Sprintf(`{"family":{"name":"gnp","n":40000,"degree":6,"seed":%d},"k":3,"t":6}`, seed)
	}
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func(i int) {
			resp, _ := postJSON(t, ts.URL+"/v1/solve", slow(i))
			done <- resp.StatusCode
		}(i)
	}
	// Wait until one solve occupies the worker and one the backlog slot.
	deadline := time.Now().Add(15 * time.Second)
	for s.metrics.inFlight.Load() == 0 || s.queue.Depth() == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("queue never saturated: in_flight=%d queue_depth=%d",
				s.metrics.inFlight.Load(), s.queue.Depth())
		}
		time.Sleep(2 * time.Millisecond)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", slow(99))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflow solve: status %d, want 429 (body %s)", resp.StatusCode, body)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("overflow 429 missing Retry-After")
	}
	if shed, rejected := s.metrics.shedQueue.Value(), s.metrics.queueRejected.Value(); shed < 1 || rejected < 1 {
		t.Fatalf("shed counters after overflow: shed_queue=%d queue_rejected=%d", shed, rejected)
	}

	for i := 0; i < 2; i++ {
		if status := <-done; status != http.StatusOK {
			t.Fatalf("saturating solve %d finished with status %d", i, status)
		}
	}
}
