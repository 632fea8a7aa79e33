package service

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"
)

// pathSessionBody creates a session on an explicit path graph — a
// predictable topology for delta tests.
func pathSessionBody(n, k int) string {
	edges := make([]string, 0, n-1)
	for i := 0; i < n-1; i++ {
		edges = append(edges, fmt.Sprintf("[%d,%d]", i, i+1))
	}
	return fmt.Sprintf(`{"graph":{"n":%d,"edges":[%s]},"k":%d}`, n, strings.Join(edges, ","), k)
}

// failDelta is the /delta body of one fail op killing nodes.
func failDelta(nodes ...int) string {
	ids := make([]string, len(nodes))
	for i, v := range nodes {
		ids[i] = fmt.Sprint(v)
	}
	return `{"ops":[{"op":"fail","nodes":[` + strings.Join(ids, ",") + `]}]}`
}

func createSession(t *testing.T, url, body string) SessionCreateResponse {
	t.Helper()
	resp, b := postJSON(t, url+"/v1/session", body)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("create session: status %d, body %s", resp.StatusCode, b)
	}
	var cr SessionCreateResponse
	if err := json.Unmarshal(b, &cr); err != nil {
		t.Fatalf("unmarshal create: %v", err)
	}
	return cr
}

// getState fetches the raw state body — raw so tests can assert
// byte-identicality after rejected mutations.
func getState(t *testing.T, url, id string) (SessionState, []byte) {
	t.Helper()
	resp, err := http.Get(url + "/v1/session/" + id)
	if err != nil {
		t.Fatalf("GET session: %v", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read state body: %v", err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET session: status %d, body %s", resp.StatusCode, b)
	}
	var st SessionState
	if err := json.Unmarshal(b, &st); err != nil {
		t.Fatalf("unmarshal state: %v", err)
	}
	return st, b
}

func TestSessionDeltaLifecycle(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, pathSessionBody(10, 1))
	id := cr.SessionID

	// Batch 1: fail one member, bridge around it, and append a node.
	member := cr.Solution.Members[0]
	body := fmt.Sprintf(`{"ops":[
		{"op":"fail","nodes":[%d]},
		{"op":"add_node"},
		{"op":"add_edge","u":10,"v":0}
	]}`, member)
	resp, b := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta: status %d, body %s", resp.StatusCode, b)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatalf("unmarshal delta: %v", err)
	}
	if dr.Epoch != 1 || dr.N != 11 || dr.NewlyDead != 1 || dr.LostHeads != 1 {
		t.Fatalf("delta response: %+v", dr)
	}
	if len(dr.Patch.AddedNodes) != 1 || dr.Patch.AddedNodes[0] != 10 {
		t.Fatalf("added nodes: %v", dr.Patch.AddedNodes)
	}
	if dr.Patch.Touched == 0 || !dr.Feasible {
		t.Fatalf("patch missing damage accounting: %+v", dr)
	}
	for i := 1; i < len(dr.Patch.Entered); i++ {
		if dr.Patch.Entered[i-1] >= dr.Patch.Entered[i] {
			t.Fatalf("entered not sorted ascending: %v", dr.Patch.Entered)
		}
	}

	// Batch 2: revive. Epoch advances again; the node comes back live.
	resp, b = postJSON(t, ts.URL+"/v1/session/"+id+"/delta",
		fmt.Sprintf(`{"ops":[{"op":"revive","nodes":[%d]}]}`, member))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("revive delta: status %d, body %s", resp.StatusCode, b)
	}
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatal(err)
	}
	if dr.Epoch != 2 || dr.Revived != 1 {
		t.Fatalf("revive response: %+v", dr)
	}

	st, _ := getState(t, ts.URL, id)
	if st.Epoch != 2 || st.N != 11 || st.DeadNodes != 0 || !st.Feasible || st.Repairs != 2 {
		t.Fatalf("state after deltas: %+v", st)
	}
	if got := s.metrics.repairs.Value(); got != 2 {
		t.Fatalf("repairs = %d, want 2", got)
	}

	// Malformed ops are rejected with 400 and don't advance the epoch.
	for _, bad := range []string{
		`{"ops":[]}`,
		`{"ops":[{"op":"warp","nodes":[1]}]}`,
		`{"op":"fail"}`,
		`{"ops":[{"op":"fail"}]}`,
		`{"ops":[{"op":"add_edge","u":1}]}`,
		`{"ops":[{"op":"add_node","nodes":[1]}]}`,
		`{"ops":[{"op":"fail","nodes":[1],"u":2}]}`,
	} {
		resp, b := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", bad)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("bad delta %s: status %d, body %s", bad, resp.StatusCode, b)
		}
	}
	if st2, _ := getState(t, ts.URL, id); st2.Epoch != 2 {
		t.Fatalf("rejected deltas advanced the epoch: %+v", st2)
	}

	// Unknown session: 404.
	if resp, _ := postJSON(t, ts.URL+"/v1/session/nope/delta", `{"ops":[{"op":"add_node"}]}`); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown session delta: status %d", resp.StatusCode)
	}
}

// TestSessionFailRejectionLeavesStateUntouched is the regression test for
// the partial-mutation bug: a fail batch with an out-of-range ID after
// valid IDs must reject the WHOLE batch — previously the valid prefix was
// already marked dead when validation hit the bad ID.
func TestSessionFailRejectionLeavesStateUntouched(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, pathSessionBody(10, 1))
	id := cr.SessionID
	member := cr.Solution.Members[0]

	_, before := getState(t, ts.URL, id)

	// Valid member first, out-of-range second: 400, nothing sticks.
	resp, b := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", failDelta(member, 99999))
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed fail batch: status %d, body %s", resp.StatusCode, b)
	}
	_, after := getState(t, ts.URL, id)
	if string(before) != string(after) {
		t.Fatalf("rejected fail mutated state:\nbefore %s\nafter  %s", before, after)
	}

	// The prefix node must still be alive: failing it now reports 1 fresh
	// death, which it wouldn't if the rejected batch had leaked.
	resp, b = postJSON(t, ts.URL+"/v1/session/"+id+"/delta", failDelta(member))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("follow-up fail: status %d, body %s", resp.StatusCode, b)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatal(err)
	}
	if st, _ := getState(t, ts.URL, id); dr.NewlyDead != 1 || st.DeadNodes != 1 {
		t.Fatalf("prefix node leaked from rejected batch: %+v, dead_nodes %d", dr, st.DeadNodes)
	}

	// Same atomicity for delta batches: valid ops before an invalid one
	// must not apply.
	_, before = getState(t, ts.URL, id)
	resp, _ = postJSON(t, ts.URL+"/v1/session/"+id+"/delta",
		`{"ops":[{"op":"add_node"},{"op":"del_edge","u":0,"v":5}]}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("mixed delta batch: status %d", resp.StatusCode)
	}
	_, after = getState(t, ts.URL, id)
	if string(before) != string(after) {
		t.Fatalf("rejected delta mutated state:\nbefore %s\nafter  %s", before, after)
	}
}

// A body holding anything but whitespace after its JSON value is
// malformed: a second value must be rejected, not silently dropped.
func TestTrailingJSONRejected(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, pathSessionBody(10, 1))
	id := cr.SessionID

	_, before := getState(t, ts.URL, id)
	resp, b := postJSON(t, ts.URL+"/v1/session/"+id+"/delta",
		`{"ops":[{"op":"add_node"}]} {"ops":[{"op":"fail","nodes":[0]}]}`)
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "malformed JSON") {
		t.Fatalf("delta with a trailing batch: status %d, body %s", resp.StatusCode, b)
	}
	if _, after := getState(t, ts.URL, id); string(before) != string(after) {
		t.Fatalf("rejected delta mutated state:\nbefore %s\nafter  %s", before, after)
	}

	for _, body := range []string{gnpSolveBody + " trailing", gnpSolveBody + " {}"} {
		resp, b := postJSON(t, ts.URL+"/v1/solve", body)
		if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(b), "malformed JSON") {
			t.Fatalf("solve %q: status %d, body %s", body, resp.StatusCode, b)
		}
	}

	// Trailing whitespace stays accepted.
	if resp, b := postJSON(t, ts.URL+"/v1/solve", gnpSolveBody+" \n\t"); resp.StatusCode != http.StatusOK {
		t.Fatalf("solve with trailing whitespace: status %d, body %s", resp.StatusCode, b)
	}
	resp, b = postJSON(t, ts.URL+"/v1/session/"+id+"/delta", `{"ops":[{"op":"add_node"}]}`+"\n")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("delta with trailing whitespace: status %d, body %s", resp.StatusCode, b)
	}
	if st, _ := getState(t, ts.URL, id); st.Epoch != 1 || st.N != 11 {
		t.Fatalf("state after the accepted delta: %+v", st)
	}
}

// TestSessionSingleAssessmentPerFail pins the double-assessment fix: each
// accepted fail is exactly one repair (one pass of the engine's deficit
// frontier), and a rejected fail is none.
func TestSessionSingleAssessmentPerFail(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, `{"family":{"name":"gnp","n":120,"degree":6,"seed":5},"k":2}`)
	id := cr.SessionID

	for wave := 0; wave < 4; wave++ {
		node := cr.Solution.Members[wave]
		resp, b := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", failDelta(node))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("wave %d: status %d, body %s", wave, resp.StatusCode, b)
		}
		if got := s.metrics.repairs.Value(); got != int64(wave+1) {
			t.Fatalf("wave %d: repairs = %d, want exactly %d", wave, got, wave+1)
		}
	}
	// Rejected requests repair nothing.
	postJSON(t, ts.URL+"/v1/session/"+id+"/delta", failDelta(99999))
	if got := s.metrics.repairs.Value(); got != 4 {
		t.Fatalf("rejected fail ran a repair: repairs = %d, want 4", got)
	}
}

// TestSessionDeltaDriftFallback drives enough topology churn through one
// batch to trip the engine's drift bound and asserts the certified
// re-solve path: fallback flagged, drift reset by compaction, session
// still feasible and usable.
func TestSessionDeltaDriftFallback(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	// Path of 120 nodes: 119 base edges, so the drift bound is the
	// MinDriftEdges floor (64).
	cr := createSession(t, ts.URL, pathSessionBody(120, 1))
	id := cr.SessionID

	// 70 chords from node 0 — none exist on a path — overflow the bound.
	ops := make([]string, 0, 70)
	for v := 2; v < 72; v++ {
		ops = append(ops, fmt.Sprintf(`{"op":"add_edge","u":0,"v":%d}`, v))
	}
	resp, b := postJSON(t, ts.URL+"/v1/session/"+id+"/delta",
		`{"ops":[`+strings.Join(ops, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("drift batch: status %d, body %s", resp.StatusCode, b)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Fallback {
		t.Fatalf("drift overflow did not trigger fallback: %+v", dr)
	}
	if !dr.Feasible || dr.Size == 0 {
		t.Fatalf("fallback left a broken session: %+v", dr)
	}
	st, _ := getState(t, ts.URL, id)
	if st.Drift != 0 {
		t.Fatalf("fallback must compact the overlay: drift = %d", st.Drift)
	}
	if st.Fallbacks != 1 || !st.Feasible {
		t.Fatalf("state after fallback: %+v", st)
	}
	if got := s.metrics.fallbacks.Value(); got != 1 {
		t.Fatalf("fallback counter = %d, want 1", got)
	}

	// The session keeps absorbing deltas on the compacted base.
	resp, b = postJSON(t, ts.URL+"/v1/session/"+id+"/delta",
		`{"ops":[{"op":"del_edge","u":0,"v":2}]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-fallback delta: status %d, body %s", resp.StatusCode, b)
	}
}

// TestSessionDeltaFallbackWithAllNodesDead pins the degenerate fallback:
// drift overflows while every node is dead, so there is no live subgraph
// to re-solve. The session must adopt the (vacuously feasible) empty set
// instead of erroring with a half-applied batch.
func TestSessionDeltaFallbackWithAllNodesDead(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, pathSessionBody(120, 1))
	id := cr.SessionID

	nodes := make([]int, 120)
	for i := range nodes {
		nodes[i] = i
	}
	resp, b := postJSON(t, ts.URL+"/v1/session/"+id+"/delta", failDelta(nodes...))
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fail all: status %d, body %s", resp.StatusCode, b)
	}

	// Chords between dead nodes are still topology churn; 70 of them
	// overflow the drift bound with zero live nodes.
	ops := make([]string, 0, 70)
	for v := 2; v < 72; v++ {
		ops = append(ops, fmt.Sprintf(`{"op":"add_edge","u":0,"v":%d}`, v))
	}
	resp, b = postJSON(t, ts.URL+"/v1/session/"+id+"/delta",
		`{"ops":[`+strings.Join(ops, ",")+`]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("dead-graph drift batch: status %d, body %s", resp.StatusCode, b)
	}
	var dr DeltaResponse
	if err := json.Unmarshal(b, &dr); err != nil {
		t.Fatal(err)
	}
	if !dr.Fallback || dr.Size != 0 {
		t.Fatalf("all-dead fallback response: %+v", dr)
	}
	st, _ := getState(t, ts.URL, id)
	if st.Drift != 0 || st.LiveNodes != 0 || !st.Feasible {
		t.Fatalf("state after all-dead fallback: %+v", st)
	}
}

func TestSessionTTLSweep(t *testing.T) {
	// Direct sweep: everything idle before the deadline goes away.
	s, ts := newTestServer(t, Config{SessionTTL: -1})
	cr := createSession(t, ts.URL, pathSessionBody(10, 1))
	if n := s.sessions.sweep(time.Now().Add(time.Second)); n != 1 {
		t.Fatalf("sweep removed %d sessions, want 1", n)
	}
	resp, err := http.Get(ts.URL + "/v1/session/" + cr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("swept session still reachable: status %d", resp.StatusCode)
	}
}

func TestSessionTTLJanitorExpiresIdleSessions(t *testing.T) {
	if testing.Short() {
		t.Skip("janitor interval floors at 1s")
	}
	s, ts := newTestServer(t, Config{SessionTTL: 100 * time.Millisecond})
	cr := createSession(t, ts.URL, pathSessionBody(10, 1))

	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if s.sessions.len() == 0 {
			break
		}
		time.Sleep(50 * time.Millisecond)
	}
	if n := s.sessions.len(); n != 0 {
		t.Fatalf("janitor left %d sessions after TTL", n)
	}
	resp, err := http.Get(ts.URL + "/v1/session/" + cr.SessionID)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("expired session still reachable: status %d", resp.StatusCode)
	}
	if got := s.metrics.sessionsExpired.Value(); got < 1 {
		t.Fatalf("sessions_expired = %d, want ≥ 1", got)
	}
}

// TestConcurrentSessionOps hammers one session with parallel fail, delta,
// state and delete traffic plus a second session being created and
// destroyed — the -race suite for the session layer. Outcomes are not
// asserted per-request (conflicting edge ops legitimately 400); the
// invariants are: no race, no panic, only documented statuses, and a
// feasible session at the end.
func TestConcurrentSessionOps(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	cr := createSession(t, ts.URL, `{"family":{"name":"gnp","n":200,"degree":6,"seed":9},"k":2}`)
	id := cr.SessionID

	allowed := map[int]bool{
		http.StatusOK:         true,
		http.StatusBadRequest: true,
		http.StatusNotFound:   true, // the churned second session
		http.StatusNoContent:  true,
		http.StatusCreated:    true,
	}
	var wg sync.WaitGroup
	post := func(path, body string) {
		resp, b := postJSON(t, ts.URL+path, body)
		if !allowed[resp.StatusCode] {
			t.Errorf("POST %s: undocumented status %d, body %s", path, resp.StatusCode, b)
		}
	}

	for w := 0; w < 4; w++ {
		wg.Add(4)
		// Failure waves on disjoint member ranges.
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				node := cr.Solution.Members[(w*8+i)%len(cr.Solution.Members)]
				post("/v1/session/"+id+"/delta", failDelta(node))
			}
		}(w)
		// Delta churn: edge toggles and node appends (conflicts 400).
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				u, v := (w*13+i)%200, (w*29+i*7+1)%200
				if u == v {
					v = (v + 1) % 200
				}
				post("/v1/session/"+id+"/delta", fmt.Sprintf(
					`{"ops":[{"op":"add_edge","u":%d,"v":%d},{"op":"add_node"}]}`, u, v))
			}
		}(w)
		// State reads.
		go func() {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				resp, err := http.Get(ts.URL + "/v1/session/" + id)
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("state read: status %d", resp.StatusCode)
				}
			}
		}()
		// Session create/delete churn beside the main session.
		go func() {
			defer wg.Done()
			for i := 0; i < 3; i++ {
				resp, b := postJSON(t, ts.URL+"/v1/session", pathSessionBody(10, 1))
				if resp.StatusCode != http.StatusCreated {
					t.Errorf("churn create: status %d, body %s", resp.StatusCode, b)
					return
				}
				var c SessionCreateResponse
				if err := json.Unmarshal(b, &c); err != nil {
					t.Error(err)
					return
				}
				req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/session/"+c.SessionID, nil)
				dresp, err := http.DefaultClient.Do(req)
				if err != nil {
					t.Error(err)
					return
				}
				dresp.Body.Close()
			}
		}()
	}
	wg.Wait()

	st, _ := getState(t, ts.URL, id)
	if !st.Feasible || st.Size == 0 {
		t.Fatalf("session broken after concurrent churn: %+v", st)
	}
}
