package main

import (
	"context"
	"encoding/json"
	"math"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/obs"
	"ftclust/internal/service"
	"ftclust/internal/stats"
)

// tiny shrinks a workload so a run takes well under a second of compute.
func tiny(t *testing.T, name string) workload {
	t.Helper()
	w, err := findWorkload(name)
	if err != nil {
		t.Fatal(err)
	}
	switch w.kind {
	case coldSolve:
		w.N, w.Deployments, w.QualityRequests = 300, 4, 16
	case warmSolve:
		w.N, w.Deployments = 300, 4
	case sessionDelta:
		w.N, w.Speed, w.Steps, w.FailNodes, w.SampleEvery = 200, 0.3, 20, 5, 10
	}
	return w
}

func TestLatencyPercentilesAndHistogramDelta(t *testing.T) {
	var window []sample
	for i := 1; i <= 100; i++ {
		window = append(window, sample{
			lat: time.Duration(i) * time.Millisecond, done: time.Duration(i) * time.Second,
			inWindow: i <= 90, reply: reply{status: 200},
		})
	}
	window = append(window, sample{lat: time.Hour, inWindow: true, reply: reply{status: 500}})
	in, all, last := latencies(window)
	if len(in) != 90 || len(all) != 100 || last != 90*time.Second {
		t.Fatalf("latencies: %d in window, %d in all, last at %v; want 90, 100, 90s", len(in), len(all), last)
	}
	if p50, p95 := stats.Quantile(all, 0.5), stats.Quantile(all, 0.95); p50 != 50.5 || p95 != 95.05 {
		t.Fatalf("p50, p95 of 1..100 ms = %v, %v; want 50.5, 95.05", p50, p95)
	}

	expo := func(bucket, inf int, sum float64, count int) *obs.PromSnapshot {
		t.Helper()
		text := "# HELP h_seconds h\n# TYPE h_seconds histogram\n" +
			`h_seconds_bucket{endpoint="/v1/solve",le="0.1"} ` + strconv.Itoa(bucket) + "\n" +
			`h_seconds_bucket{endpoint="/v1/solve",le="+Inf"} ` + strconv.Itoa(inf) + "\n" +
			`h_seconds_sum{endpoint="/v1/solve"} ` + strconv.FormatFloat(sum, 'g', -1, 64) + "\n" +
			`h_seconds_count{endpoint="/v1/solve"} ` + strconv.Itoa(count) + "\n"
		snap, err := obs.ParsePrometheus(strings.NewReader(text))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	before, after := expo(1, 2, 0.3, 2), expo(2, 5, 1.2, 5)
	if mean, err := histMean(before, after, "h_seconds", "endpoint", "/v1/solve"); err != nil || math.Abs(mean-0.3) > 1e-12 {
		t.Fatalf("histMean = %v, %v; want 3 new observations of mean 0.3", mean, err)
	}
	if mean, err := histMean(nil, after, "h_seconds", "endpoint", "/v1/solve"); err != nil || mean != 1.2/5 {
		t.Fatalf("histMean from zero = %v, %v; want 0.24", mean, err)
	}
	if mean, err := histMean(after, after, "h_seconds", "endpoint", "/v1/solve"); err != nil || mean != 0 {
		t.Fatalf("histMean with no new observations = %v, %v; want 0", mean, err)
	}
	if _, err := histMean(after, before, "h_seconds", "endpoint", "/v1/solve"); err == nil {
		t.Fatal("histMean accepted a count that went backwards")
	}
	if _, err := histMean(before, after, "h_seconds", "endpoint", "/v1/verify"); err == nil {
		t.Fatal("histMean accepted a missing series")
	}
}

func TestColdBodiesIndependentOfInterleaving(t *testing.T) {
	w := tiny(t, "cold-sparse")
	in, err := newSolveInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	const count = 12
	sequential := make([][]byte, count)
	for i := range sequential {
		if sequential[i], err = in.coldBody(tagRelabel, i); err != nil {
			t.Fatal(err)
		}
	}
	// Two goroutines claim indexes in reverse from one shared counter, on
	// freshly generated inputs of the same seed.
	again, err := newSolveInputs(w, 7)
	if err != nil {
		t.Fatal(err)
	}
	interleaved := make([][]byte, count)
	var mu sync.Mutex
	next := count
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				mu.Lock()
				next--
				i := next
				mu.Unlock()
				if i < 0 {
					return
				}
				body, err := again.coldBody(tagRelabel, i)
				if err != nil {
					t.Error(err)
					return
				}
				interleaved[i] = body
			}
		}()
	}
	wg.Wait()
	for i := range sequential {
		if !slices.Equal(sequential[i], interleaved[i]) {
			t.Fatalf("body %d depends on the order requests were built in", i)
		}
	}

	hash := func(body []byte) (string, int) {
		var req service.SolveRequest
		if err := json.Unmarshal(body, &req); err != nil {
			t.Fatal(err)
		}
		edges := make([]graph.Edge, len(req.Graph.Edges))
		for i, e := range req.Graph.Edges {
			edges[i] = graph.Edge{U: graph.NodeID(e[0]), V: graph.NodeID(e[1])}
		}
		g, err := graph.FromEdges(req.Graph.N, edges)
		if err != nil {
			t.Fatal(err)
		}
		return g.CanonicalHash(), g.NumEdges()
	}
	base := in.bases[0].g
	h0, m0 := hash(sequential[0])
	h1, m1 := hash(sequential[w.Deployments]) // same base, another relabeling
	if m0 != base.NumEdges() || m1 != base.NumEdges() {
		t.Fatalf("relabeled instances have %d and %d edges, base has %d", m0, m1, base.NumEdges())
	}
	if h0 == base.CanonicalHash() || h1 == h0 {
		t.Fatal("relabeling did not change the canonical hash")
	}
}

func TestMobilityPlaybackReturnsToBase(t *testing.T) {
	w := tiny(t, "session-mobility")
	in, err := newSessionInput(w, 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	topo := newTopology(in.base)
	for q := 0; q < 2*w.Steps; q++ {
		if err := topo.apply(in.playback(q)); err != nil {
			t.Fatalf("playback position %d: %v", q, err)
		}
		// Mid-cycle, the state is that of a forward step.
		if q == w.Steps+2 {
			fwd := newTopology(in.base)
			for s := 0; s < in.forwardStep(q+1); s++ {
				if err := fwd.apply(in.steps[s]); err != nil {
					t.Fatal(err)
				}
			}
			if !slices.Equal(fwd.ov.Compact().EdgeList(), topo.ov.Compact().EdgeList()) || !slices.Equal(fwd.dead, topo.dead) {
				t.Fatalf("after %d playback steps the state is not forward step %d", q+1, in.forwardStep(q+1))
			}
		}
	}
	if !slices.Equal(topo.ov.Compact().EdgeList(), in.base.EdgeList()) {
		t.Fatal("forward then backward playback did not return to the base edge set")
	}
	if slices.Contains(topo.dead, true) {
		t.Fatal("forward then backward playback left nodes dead")
	}
	if in.forwardStep(2*w.Steps) != 0 || in.forwardStep(w.Steps) != w.Steps {
		t.Fatal("forwardStep does not fold the playback cycle")
	}
}

func TestCorruptedResponsesFailTheChecker(t *testing.T) {
	w := tiny(t, "warm-repeat")
	in, err := newSolveInputs(w, 5)
	if err != nil {
		t.Fatal(err)
	}
	d := in.bases[0]
	_, body, err := newReplayer(false).replaySolve(in.hot[0])
	if err != nil {
		t.Fatal(err)
	}
	if _, err := checkSolution(body, d, nil); err != nil {
		t.Fatalf("a correct reply fails the checker: %v", err)
	}
	corrupt := func(edit func(*service.SolutionJSON)) []byte {
		var sol service.SolutionJSON
		if err := json.Unmarshal(body, &sol); err != nil {
			t.Fatal(err)
		}
		edit(&sol)
		b, err := json.Marshal(sol)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	for name, bad := range map[string][]byte{
		"not a cover":    corrupt(func(s *service.SolutionJSON) { s.Members, s.Size = s.Members[:1], 1 }),
		"size mismatch":  corrupt(func(s *service.SolutionJSON) { s.Size++ }),
		"not verified":   corrupt(func(s *service.SolutionJSON) { s.Verified = false }),
		"unsorted":       corrupt(func(s *service.SolutionJSON) { s.Members[0], s.Members[1] = s.Members[1], s.Members[0] }),
		"wrong instance": corrupt(func(s *service.SolutionJSON) { s.Edges-- }),
		"unknown field":  []byte(`{"algorithm":"x","extra":1}`),
		"truncated":      body[:len(body)/2],
	} {
		if _, err := checkSolution(bad, d, nil); err == nil {
			t.Errorf("%s: corrupted reply passed the checker", name)
		}
	}

	members := make([]bool, 3)
	if _, err := applyPatch(members, service.RepairPatch{Entered: []int{1}, Left: []int{}}); err != nil {
		t.Fatal(err)
	}
	if _, err := applyPatch(members, service.RepairPatch{Entered: []int{1}}); err == nil {
		t.Error("a patch re-entering a member passed")
	}
	if _, err := applyPatch(members, service.RepairPatch{Left: []int{0}}); err == nil {
		t.Error("a patch removing a non-member passed")
	}
	path := graph.MustFromEdges(3, []graph.Edge{{U: 0, V: 1}, {U: 1, V: 2}})
	if err := checkLiveCover(path, []bool{false, false, false}, []bool{true, true, true}); err != nil {
		t.Fatal(err)
	}
	if err := checkLiveCover(path, []bool{false, false, false}, []bool{false, true, false}); err == nil {
		t.Error("a 1-fold set passed as a 2-fold cover")
	}
	if err := checkLiveCover(path, []bool{true, false, false}, []bool{true, true, true}); err == nil {
		t.Error("a dead member passed")
	}
}

// TestSmokeAllWorkloads runs every workload end to end against a real
// ftserved at tiny sizes, traced, so the harness, its checks and the
// per-layer collection all run under go test.
func TestSmokeAllWorkloads(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs ftserved")
	}
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go toolchain on PATH")
	}
	bin := filepath.Join(t.TempDir(), "ftserved")
	if out, err := exec.Command(goBin, "build", "-o", bin, "ftclust/cmd/ftserved").CombinedOutput(); err != nil {
		t.Fatalf("building ftserved: %v\n%s", err, out)
	}
	for _, name := range []string{"cold-sparse", "cold-dense", "warm-repeat", "session-mobility"} {
		t.Run(name, func(t *testing.T) {
			cfg := runConfig{server: bin, w: tiny(t, name), seed: 11, window: 500 * time.Millisecond, traced: true}
			out, err := measure(context.Background(), cfg)
			if err != nil {
				t.Fatal(err)
			}
			if out.failed != 0 || out.attempted == 0 {
				t.Fatalf("%d of %d checks failed", out.failed, out.attempted)
			}
			if len(out.e2e) != 6 || len(out.layer) != 30 {
				t.Fatalf("%d end-to-end and %d per-layer metrics, want 6 and 30", len(out.e2e), len(out.layer))
			}
			for _, m := range out.e2e {
				if !(m.value > 0) {
					t.Errorf("end-to-end metric %s = %v, want > 0", m.name, m.value)
				}
			}
		})
	}
}
