package service

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"ftclust"
	"ftclust/internal/obs"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return s, ts
}

func postJSON(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

const gnpSolveBody = `{"family":{"name":"gnp","n":120,"degree":6,"seed":5},"k":2}`

func TestSolveEndpointAndCache(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/solve", gnpSolveBody)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold solve: status %d, body %s", resp.StatusCode, body)
	}
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("cold solve X-Cache = %q, want miss", got)
	}
	var sol SolutionJSON
	if err := json.Unmarshal(body, &sol); err != nil {
		t.Fatalf("unmarshal: %v", err)
	}
	if !sol.Verified || sol.Size == 0 || sol.Size != len(sol.Members) || sol.N != 120 {
		t.Fatalf("implausible solution: %+v", sol)
	}
	if sol.Rounds != 2*3*3+4 {
		t.Fatalf("rounds = %d, want %d", sol.Rounds, 2*3*3+4)
	}
	if sol.Kappa == 0 || sol.CertifiedLowerBound <= 0 {
		t.Fatalf("certificate missing: kappa=%v lb=%v", sol.Kappa, sol.CertifiedLowerBound)
	}

	// Identical request: cache hit, byte-identical body.
	resp2, body2 := postJSON(t, ts.URL+"/v1/solve", gnpSolveBody)
	if resp2.StatusCode != http.StatusOK || resp2.Header.Get("X-Cache") != "hit" {
		t.Fatalf("repeat solve: status %d, X-Cache %q", resp2.StatusCode, resp2.Header.Get("X-Cache"))
	}
	if !bytes.Equal(body, body2) {
		t.Fatal("cache hit body differs from cold-solve body")
	}
	// Different seed: miss.
	resp3, _ := postJSON(t, ts.URL+"/v1/solve",
		`{"family":{"name":"gnp","n":120,"degree":6,"seed":6},"k":2}`)
	if resp3.Header.Get("X-Cache") != "miss" {
		t.Fatal("different seed must miss the cache")
	}

	m := s.metrics
	if hits, misses, solves := m.cacheHits.Value(), m.cacheMisses.Value(), m.solves.Value(); hits < 1 || misses < 2 || solves < 2 {
		t.Fatalf("metrics after solves: hits=%d misses=%d solves=%d", hits, misses, solves)
	}
	lat, _ := m.reg.Snapshot().Hist("ftclust_solve_duration_seconds")
	if n, p50, p99 := lat.Count, lat.Quantile(0.50), lat.Quantile(0.99); n < 2 || p99 < p50 {
		t.Fatalf("latency metrics: samples=%d p50=%gs p99=%gs", n, p50, p99)
	}
}

func TestSolveExplicitGraph(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	// 5-cycle, k=1.
	body := `{"graph":{"n":5,"edges":[[0,1],[1,2],[2,3],[3,4],[0,4]]},"k":1}`
	resp, b := postJSON(t, ts.URL+"/v1/solve", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, b)
	}
	var sol SolutionJSON
	if err := json.Unmarshal(b, &sol); err != nil {
		t.Fatal(err)
	}
	if !sol.Verified || sol.N != 5 || sol.Edges != 5 {
		t.Fatalf("bad solution: %+v", sol)
	}
}

func TestSolveBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxNodes: 1000})
	cases := []struct {
		name, body string
		want       int
	}{
		{"malformed json", `{"family":`, http.StatusBadRequest},
		{"unknown field", `{"fam":{"name":"gnp"},"k":2}`, http.StatusBadRequest},
		{"no instance", `{"k":2}`, http.StatusBadRequest},
		{"both instances", `{"graph":{"n":2,"edges":[[0,1]]},"family":{"name":"gnp","n":5,"degree":2,"seed":1},"k":1}`, http.StatusBadRequest},
		{"k zero", `{"family":{"name":"gnp","n":50,"degree":4,"seed":1},"k":0}`, http.StatusBadRequest},
		{"k negative", `{"family":{"name":"gnp","n":50,"degree":4,"seed":1},"k":-2}`, http.StatusBadRequest},
		{"k exceeds n", `{"family":{"name":"gnp","n":50,"degree":4,"seed":1},"k":51}`, http.StatusBadRequest},
		{"unknown family", `{"family":{"name":"hypercube","n":50,"degree":4,"seed":1},"k":2}`, http.StatusBadRequest},
		{"n over limit", `{"family":{"name":"gnp","n":100000,"degree":4,"seed":1},"k":2}`, http.StatusBadRequest},
		{"self loop", `{"graph":{"n":3,"edges":[[1,1]]},"k":1}`, http.StatusBadRequest},
		{"edge out of range", `{"graph":{"n":3,"edges":[[0,7]]},"k":1}`, http.StatusBadRequest},
		{"t out of range", `{"family":{"name":"gnp","n":50,"degree":4,"seed":1},"k":2,"t":200}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, body := postJSON(t, ts.URL+"/v1/solve", tc.body)
		if resp.StatusCode != tc.want {
			t.Errorf("%s: status %d, want %d (body %s)", tc.name, resp.StatusCode, tc.want, body)
		}
		var e errorBody
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: error body not JSON with error field: %s", tc.name, body)
		}
	}
}

// Every edge pair is exactly two integers: a short, long or null pair is a
// 400 naming the pair on each endpoint that takes a posted graph.
func TestMalformedEdgePairsRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cases := []struct {
		edges string
		pair  int
	}{
		{`[[2]]`, 0},
		{`[[0,1,2]]`, 0},
		{`[[null,1]]`, 0},
		{`[[0,1],[1]]`, 1},
		{`[[2],[1,2]]`, 0},
	}
	for _, tc := range cases {
		graph := `{"n":3,"edges":` + tc.edges + `}`
		for _, ep := range []struct{ path, body string }{
			{"/v1/solve", `{"graph":` + graph + `,"k":1}`},
			{"/v1/session", `{"graph":` + graph + `,"k":1}`},
			{"/v1/verify", `{"graph":` + graph + `,"k":1,"members":[0,1,2]}`},
		} {
			resp, body := postJSON(t, ts.URL+ep.path, ep.body)
			want := fmt.Sprintf("pair %d", tc.pair)
			if resp.StatusCode != http.StatusBadRequest ||
				!strings.Contains(string(body), "malformed JSON") || !strings.Contains(string(body), want) {
				t.Errorf("%s with edges %s: status %d, body %s; want 400 malformed JSON naming %q",
					ep.path, tc.edges, resp.StatusCode, body, want)
			}
		}
	}
}

// A key must match a field's tag exactly and at most once. A case-folded
// or repeated key anywhere in a solve body is a 400 "malformed JSON" on
// /v1/solve and /v1/session; in /v1/verify's graph the graph-level ones
// are a 400 too, and so is one anywhere in a delta body, which leaves the
// session as it was. An escaped key still matches once unescaped.
func TestStrictKeysRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const graph = `{"n":3,"edges":[[0,1],[1,2]]}`
	bodies := []string{
		`{"K":2,"graph":` + graph + `}`,
		`{"k":1,"k":2,"graph":` + graph + `}`,
		`{"graph":{"n":3,"n":3,"edges":[[0,1],[1,2]]},"k":1}`,
		`{"graph":{"n":3},"graph":{"edges":[[0,1],[1,2]]},"k":1}`,
		`{"family":{"Name":"gnp","n":20,"degree":4,"seed":7},"k":2}`,
	}
	graphLevel := []string{
		`{"n":3,"n":3,"edges":[[0,1],[1,2]]}`,
		`{"n":3,"Edges":[[0,1],[1,2]]}`,
	}
	var posts []struct{ path, body string }
	for _, b := range bodies {
		posts = append(posts,
			struct{ path, body string }{"/v1/solve", b},
			struct{ path, body string }{"/v1/session", b})
	}
	for _, g := range graphLevel {
		posts = append(posts, struct{ path, body string }{"/v1/verify", `{"graph":` + g + `,"k":1,"members":[0,1,2]}`})
	}
	sess := createSession(t, ts.URL, pathSessionBody(10, 1))
	for _, d := range []string{
		`{"OPS":[{"op":"add_node"}]}`,
		`{"ops":[{"Op":"add_node"}]}`,
		`{"ops":[{"op":"add_edge","u":0,"u":5,"v":9}]}`,
		`{"ops":[{"op":"add_node"}],"ops":[{"op":"add_node"}]}`,
	} {
		posts = append(posts, struct{ path, body string }{"/v1/session/" + sess.SessionID + "/delta", d})
	}
	for _, p := range posts {
		resp, body := postJSON(t, ts.URL+p.path, p.body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "malformed JSON") {
			t.Errorf("%s %s: status %d, body %s; want 400 malformed JSON", p.path, p.body, resp.StatusCode, body)
		}
	}
	if st, _ := getState(t, ts.URL, sess.SessionID); st.Epoch != 0 || st.N != 10 {
		t.Errorf("rejected deltas changed the session: %+v", st)
	}

	resp, body := postJSON(t, ts.URL+"/v1/solve", `{"\u006b":2,"graph":`+graph+`}`)
	var sol SolutionJSON
	if resp.StatusCode != http.StatusOK || json.Unmarshal(body, &sol) != nil || sol.K != 2 {
		t.Errorf("escaped k: status %d, body %s; want 200 with k = 2", resp.StatusCode, body)
	}
}

func TestSolveOversizedPayload(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 256})
	big := fmt.Sprintf(`{"graph":{"n":4,"edges":[[0,1]]},"k":1,"t":3,"seed":%s1}`,
		strings.Repeat(" ", 500))
	resp, body := postJSON(t, ts.URL+"/v1/solve", big)
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status %d, want 413 (body %s)", resp.StatusCode, body)
	}
}

func TestVerifyEndpoint(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	// A star: center 0 dominates under k=1 with S={0}.
	star := `"graph":{"n":5,"edges":[[0,1],[0,2],[0,3],[0,4]]}`
	resp, body := postJSON(t, ts.URL+"/v1/verify",
		`{`+star+`,"k":1,"members":[0],"convention":"standard"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d: %s", resp.StatusCode, body)
	}
	var vr VerifyResponse
	if err := json.Unmarshal(body, &vr); err != nil || !vr.OK {
		t.Fatalf("star with S={0} must verify: %s", body)
	}

	// Leaf-only set fails standard domination of the other leaves.
	_, body = postJSON(t, ts.URL+"/v1/verify", `{`+star+`,"k":1,"members":[1]}`)
	if err := json.Unmarshal(body, &vr); err != nil || vr.OK || vr.Reason == "" {
		t.Fatalf("leaf-only set must fail with a reason: %s", body)
	}

	for name, bad := range map[string]string{
		"k zero":         `{` + star + `,"k":0,"members":[0]}`,
		"bad convention": `{` + star + `,"k":1,"members":[0],"convention":"open"}`,
		"member range":   `{` + star + `,"k":1,"members":[9]}`,
		"no instance":    `{"k":1,"members":[0]}`,
	} {
		resp, _ := postJSON(t, ts.URL+"/v1/verify", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, resp.StatusCode)
		}
	}
	if got := s.metrics.verifies.Value(); got < 2 {
		t.Fatalf("verify counter = %d, want ≥ 2", got)
	}
}

func TestSessionLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})

	resp, body := postJSON(t, ts.URL+"/v1/session", gnpSolveBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: status %d, body %s", resp.StatusCode, body)
	}
	var created SessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	if created.SessionID == "" || created.Solution == nil || !created.Solution.Verified {
		t.Fatalf("bad create response: %s", body)
	}
	coldSolves := s.metrics.solves.Value()

	// Failures go through the delta fail op; there is no /fail route.
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+created.SessionID+"/fail",
		fmt.Sprintf(`{"nodes":[%d]}`, created.Solution.Members[0]))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed /fail route: status %d, want 404", resp.StatusCode)
	}

	resp, body = postJSON(t, ts.URL+"/v1/session/"+created.SessionID+"/delta",
		failDelta(created.Solution.Members[0], created.Solution.Members[1]))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail: status %d, body %s", resp.StatusCode, body)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(body, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.LostHeads != 2 || dr.NewlyDead != 2 || !dr.Feasible {
		t.Fatalf("fail response: %+v", dr)
	}
	// The session survived via local repair: no additional full solve ran.
	if got := s.metrics.solves.Value(); got != coldSolves {
		t.Fatalf("failure injection triggered a full re-solve (%d -> %d)", coldSolves, got)
	}
	if got := s.metrics.repairs.Value(); got != 1 {
		t.Fatalf("repairs counter = %d, want 1", got)
	}

	// Status reflects the damage and the repair.
	getResp, err := http.Get(ts.URL + "/v1/session/" + created.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(getResp.Body)
	getResp.Body.Close()
	var st SessionState
	if err := json.Unmarshal(body, &st); err != nil {
		t.Fatal(err)
	}
	if st.DeadNodes != 2 || st.Repairs != 1 || !st.Feasible || st.N != 120 {
		t.Fatalf("session state: %+v", st)
	}

	// Bad failure payloads.
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+created.SessionID+"/delta", failDelta())
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("empty nodes: status %d, want 400", resp.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+created.SessionID+"/delta", failDelta(5000))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("out-of-range node: status %d, want 400", resp.StatusCode)
	}

	// Unknown session.
	resp, _ = postJSON(t, ts.URL+"/v1/session/nope/delta", failDelta(1))
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session fail: status %d, want 404", resp.StatusCode)
	}

	// Delete, then everything 404s.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+created.SessionID, nil)
	delResp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	delResp.Body.Close()
	if delResp.StatusCode != http.StatusNoContent {
		t.Fatalf("delete: status %d, want 204", delResp.StatusCode)
	}
	getResp2, err := http.Get(ts.URL + "/v1/session/" + created.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	getResp2.Body.Close()
	if getResp2.StatusCode != http.StatusNotFound {
		t.Fatalf("get after delete: status %d, want 404", getResp2.StatusCode)
	}
	if got := s.sessions.len(); got != 0 {
		t.Fatalf("sessions_active after delete = %d, want 0", got)
	}
}

// Sessions keep absorbing waves of failures with local repair only.
func TestSessionRepeatedFailureWaves(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, body := postJSON(t, ts.URL+"/v1/session",
		`{"family":{"name":"gnp","n":200,"degree":10,"seed":11},"k":3}`)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create: %d %s", resp.StatusCode, body)
	}
	var created SessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatal(err)
	}
	coldSolves := s.metrics.solves.Value()
	members := created.Solution.Members
	for wave := 0; wave < 4; wave++ {
		resp, body := postJSON(t, ts.URL+"/v1/session/"+created.SessionID+"/delta",
			failDelta(members[2*wave], members[2*wave+1]))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wave %d: %d %s", wave, resp.StatusCode, body)
		}
		var dr DeltaResponse
		if err := json.Unmarshal(body, &dr); err != nil {
			t.Fatal(err)
		}
		if !dr.Feasible {
			t.Fatalf("wave %d left the session infeasible: %+v", wave, dr)
		}
	}
	if s.metrics.solves.Value() != coldSolves {
		t.Fatal("failure waves must not trigger full re-solves")
	}
	if got := s.metrics.repairs.Value(); got != 4 {
		t.Fatalf("repairs = %d, want 4", got)
	}
}

// 32 concurrent identical solves must all succeed with byte-identical
// bodies, and exactly ONE of them may actually run the solver: the first
// becomes the flight leader, overlapping duplicates coalesce onto it, and
// stragglers arriving after completion hit the cache. The instance is big
// enough (n=2000, t=4) that the requests genuinely overlap the solve.
func TestConcurrentSolvesDeterministic(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 64})
	const parallel = 32
	const body = `{"family":{"name":"gnp","n":2000,"degree":8,"seed":5},"k":2,"t":4}`

	// Park the only worker so the leader's solve cannot start, let alone
	// finish, before every duplicate has joined it: the outcome is then
	// exact whatever the solver's speed.
	parked, release := make(chan struct{}), make(chan struct{})
	parkDone := make(chan error, 1)
	go func() {
		parkDone <- s.queue.Do(context.Background(), func(context.Context, *ftclust.Scratch) {
			close(parked)
			<-release
		})
	}()
	<-parked

	bodies := make([][]byte, parallel)
	caches := make([]string, parallel)
	var wg sync.WaitGroup
	for i := 0; i < parallel; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
				strings.NewReader(body))
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			defer resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				t.Errorf("request %d: status %d", i, resp.StatusCode)
				return
			}
			caches[i] = resp.Header.Get("X-Cache")
			b, err := io.ReadAll(resp.Body)
			if err != nil {
				t.Errorf("request %d: %v", i, err)
				return
			}
			bodies[i] = b
		}(i)
	}

	// All 32 in flight: the leader's job queued behind the parked one and
	// the other 31 waiting on its flight.
	followers := func() (n int) {
		s.flights.mu.Lock()
		defer s.flights.mu.Unlock()
		for _, f := range s.flights.m {
			n += f.followers
		}
		return n
	}
	deadline := time.Now().Add(30 * time.Second)
	for s.queue.Depth() != 1 || followers() != parallel-1 {
		if time.Now().After(deadline) {
			close(release)
			t.Fatalf("requests never all in flight: queued %d, followers %d", s.queue.Depth(), followers())
		}
		time.Sleep(time.Millisecond)
	}
	close(release)
	wg.Wait()
	if err := <-parkDone; err != nil {
		t.Fatalf("parking job: %v", err)
	}

	for i := 1; i < parallel; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("response %d differs from response 0:\n%s\nvs\n%s", i, bodies[i], bodies[0])
		}
	}
	misses := 0
	for i, c := range caches {
		switch c {
		case "miss":
			misses++
		case "coalesced":
		default:
			t.Errorf("request %d: X-Cache = %q, want miss or coalesced", i, c)
		}
	}
	if misses != 1 {
		t.Errorf("%d requests answered X-Cache: miss, want exactly 1", misses)
	}
	m := s.metrics
	if m.cacheMisses.Value() != 1 || m.coalesced.Value() != parallel-1 || m.cacheHits.Value() != 0 || m.solves.Value() != 1 {
		t.Errorf("misses=%d coalesced=%d hits=%d solves=%d, want 1, %d, 0, 1",
			m.cacheMisses.Value(), m.coalesced.Value(), m.cacheHits.Value(), m.solves.Value(), parallel-1)
	}

	// Duplicates go through /v1/solve; there is no batch route.
	resp, _ := postJSON(t, ts.URL+"/v1/solvebatch", `{"requests":[`+body+`]}`)
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("removed /v1/solvebatch route: status %d, want 404", resp.StatusCode)
	}
}

// Each key is solved once, however its duplicates interleave with the
// leader. A duplicate can miss the cache just before the leader caches
// its answer and join just after the leader leaves the flight group; it
// then leads a flight of its own and must answer from the cache, not
// solve again. Solves of tiny instances are short, so over thousands of
// keys some duplicate lands in that window.
func TestOneSolvePerKey(t *testing.T) {
	s := New(Config{Workers: 2})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	const dups = 6
	seen := make(map[string]bool)
	for seed := int64(1); seed <= 4000; seed++ {
		req := SolveRequest{Family: &FamilySpec{Name: "gnp", N: 6, Degree: 2, Seed: seed}, K: 1}
		g, key, err := s.prepareSolve(context.Background(), &req)
		if err != nil {
			t.Fatal(err)
		}
		// Different seeds can give the same graph at n = 6, and so one key.
		if seen[key] {
			continue
		}
		seen[key] = true
		var wg sync.WaitGroup
		for i := 0; i < dups; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if _, _, status, err := s.solvePrepared(context.Background(), &req, g, key); err != nil {
					t.Errorf("seed %d: status %d: %v", seed, status, err)
				}
			}()
		}
		wg.Wait()
	}
	keys := int64(len(seen))
	m := s.metrics
	if m.solves.Value() != keys || m.cacheMisses.Value() != keys {
		t.Errorf("%d solves and %d misses for %d keys, want one of each per key",
			m.solves.Value(), m.cacheMisses.Value(), keys)
	}
	if got := m.cacheHits.Value() + m.coalesced.Value(); got != (dups-1)*keys {
		t.Errorf("%d hits and coalesced for %d keys, want %d", got, keys, (dups-1)*keys)
	}
}

func mustMarshal(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// A request deadline shorter than the solve aborts with 504 and bumps the
// canceled counter; the server stays healthy.
func TestSolveDeadline(t *testing.T) {
	s, ts := newTestServer(t, Config{SolveTimeout: time.Nanosecond})
	resp, body := postJSON(t, ts.URL+"/v1/solve",
		`{"family":{"name":"gnp","n":2000,"degree":8,"seed":1},"k":3,"t":6}`)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status %d, want 504 (body %s)", resp.StatusCode, body)
	}
	if got := s.metrics.canceled.Value(); got < 1 {
		t.Fatalf("canceled counter = %d, want ≥ 1", got)
	}
}

// Shutdown must let an in-flight solve finish (and serve its response)
// while rejecting new work with 503.
func TestShutdownDrainsInFlight(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 8})

	type result struct {
		status int
		body   []byte
	}
	resCh := make(chan result, 1)
	go func() {
		// gnp generates in O(n+m) expected time since the geometric-skip
		// rewrite, so the request reaches the solver quickly and the solve
		// itself (t=6 ⇒ 72 rounds over 40k nodes) is the slow part.
		resp, err := http.Post(ts.URL+"/v1/solve", "application/json",
			strings.NewReader(`{"family":{"name":"gnp","n":40000,"degree":6,"seed":3},"k":3,"t":6}`))
		if err != nil {
			resCh <- result{status: -1}
			return
		}
		defer resp.Body.Close()
		b, _ := io.ReadAll(resp.Body)
		resCh <- result{status: resp.StatusCode, body: b}
	}()

	// Wait until the solve is actually in flight.
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
	if res.status != http.StatusOK {
		t.Fatalf("in-flight solve during shutdown: status %d, body %s", res.status, res.body)
	}
	var sol SolutionJSON
	if err := json.Unmarshal(res.body, &sol); err != nil || !sol.Verified {
		t.Fatalf("drained solve returned a bad body: %s", res.body)
	}

	// After the drain, new solves are rejected crisply.
	resp, _ := postJSON(t, ts.URL+"/v1/solve", gnpSolveBody)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("post-drain solve: status %d, want 503", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	postJSON(t, ts.URL+"/v1/solve", gnpSolveBody)
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	snap, err := obs.ParsePrometheus(resp.Body)
	if err != nil {
		t.Fatalf("metrics not a valid exposition: %v", err)
	}
	solves, _ := snap.Value("ftclust_solves_total")
	lat, ok := snap.Hist("ftclust_solve_duration_seconds")
	if solves < 1 || !ok || lat.Count < 1 {
		t.Fatalf("metrics: solves=%v solve-latency histogram %+v", solves, lat)
	}

	// /metrics is the only metrics rendering; there is no JSON twin.
	dm, err := http.Get(ts.URL + "/debug/metrics")
	if err != nil {
		t.Fatal(err)
	}
	dm.Body.Close()
	if dm.StatusCode != http.StatusNotFound {
		t.Fatalf("removed /debug/metrics route: status %d, want 404", dm.StatusCode)
	}

	hz, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hz.Body.Close()
	if hz.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", hz.StatusCode)
	}
}

// Sessions are capped; the cap sheds with 429 + Retry-After (503 is
// reserved for drain/shutdown), and a delete frees the slot.
func TestSessionLimit(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxSessions: 1})
	resp, body := postJSON(t, ts.URL+"/v1/session", gnpSolveBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("first session: %d", resp.StatusCode)
	}
	var created SessionCreateResponse
	if err := json.Unmarshal(body, &created); err != nil {
		t.Fatalf("unmarshal create: %v", err)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/session", gnpSolveBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-limit session: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("over-limit session response missing Retry-After")
	}

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+created.SessionID, nil)
	del, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE session: %v", err)
	}
	del.Body.Close()
	if del.StatusCode != http.StatusNoContent && del.StatusCode != http.StatusOK {
		t.Fatalf("DELETE session: status %d", del.StatusCode)
	}
	resp, _ = postJSON(t, ts.URL+"/v1/session", gnpSolveBody)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("post-delete session: status %d, want 201", resp.StatusCode)
	}
}
