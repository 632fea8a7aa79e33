package service

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"testing"

	"ftclust/internal/geom"
	"ftclust/internal/graph"
)

// raceEnabled reports a build with the race detector (see race_test.go).
var raceEnabled bool

// discardWriter is a ResponseWriter that keeps the status and drops the
// body, so a measurement sees only the server's own work.
type discardWriter struct {
	header http.Header
	status int
}

func (w *discardWriter) Header() http.Header { return w.header }

func (w *discardWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	return len(b), nil
}

func (w *discardWriter) WriteHeader(code int) { w.status = code }

// postSolve serves one POST /v1/solve of body through h into w.
func postSolve(h http.Handler, w *discardWriter, body []byte) {
	clear(w.header)
	w.status = 0
	h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body)))
}

// udgDeployment is a unit-disk graph of n uniform nodes with the given
// expected degree, border effects aside.
func udgDeployment(n int, degree float64) *graph.Graph {
	g, _ := geom.UnitUDG(geom.UniformPoints(n, math.Sqrt(math.Pi*float64(n-1)/degree), 7))
	return g
}

// solveBody encodes a k = 2, t = 3 /v1/solve body for g, as ftperf's solve
// workloads post it: in canonical edge order, or with relabel set, with
// the nodes renamed by a seeded permutation, so the pairs arrive in no
// order.
func solveBody(tb testing.TB, g *graph.Graph, relabel bool) []byte {
	tb.Helper()
	perm := make([]int, g.NumNodes())
	for v := range perm {
		perm[v] = v
	}
	if relabel {
		perm = rand.New(rand.NewSource(8)).Perm(g.NumNodes())
	}
	edges := make(EdgeList, 0, g.NumEdges())
	g.Edges(func(u, v graph.NodeID) {
		edges = append(edges, [2]int{perm[u], perm[v]})
	})
	body, err := json.Marshal(SolveRequest{Graph: &GraphSpec{N: g.NumNodes(), Edges: edges}, K: 2, T: 3})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkSolveIntake posts bodies shaped like ftperf's three solve
// workloads through Server.Handler with a warm cache, so it times only
// the server's own work on a hit: read and decode; the pair digest for a
// canonical body, or the build and the CSR digest for a relabeled one;
// the cache lookup; and the write of the cached bytes.
func BenchmarkSolveIntake(b *testing.B) {
	s := New(Config{})
	defer s.Shutdown(context.Background())
	h := s.Handler()
	w := &discardWriter{header: http.Header{}}
	for _, bc := range []struct {
		name    string
		n       int
		degree  float64
		relabel bool
	}{
		{"canonical/n=5000/d=10", 5000, 10, false},
		{"relabeled/n=5000/d=10", 5000, 10, true},
		{"relabeled/n=2000/d=40", 2000, 40, true},
	} {
		body := solveBody(b, udgDeployment(bc.n, bc.degree), bc.relabel)
		postSolve(h, w, body) // the cold solve; every later post is a hit
		if w.status != http.StatusOK {
			b.Fatalf("%s: warm-up status %d", bc.name, w.status)
		}
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(body)))
			for i := 0; i < b.N; i++ {
				postSolve(h, w, body)
			}
		})
	}
}

// Once the body pool is warm, a cache-hit /v1/solve allocates the same
// number of objects at any edge count: the body is read into a pooled
// buffer, and a canonical list is keyed from its decoded pairs, the one
// allocation that grows with m; no edge list or CSR is built. So a hit
// at m = 25 000 allocates under 24 bytes per edge: the pairs take 16,
// where a copy of them and a CSR would add about 32 more. Both bodies
// stay under maxPooledBody even after the buffer grows. The collector is
// off while counting: each cycle empties every sync.Pool, this server's
// and the standard library's, and a pool's next use after one allocates,
// so a larger body's garbage alone would add objects.
func TestSolveIntakeConstantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	s := New(Config{})
	t.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()
	w := &discardWriter{header: http.Header{}}
	// hit returns the objects and the bytes per edge a cache hit on a
	// canonical m-edge body allocates.
	hit := func(m int) (objects, perEdge float64) {
		// A circulant graph: node u is joined to u+1, …, u+5 mod n.
		n := m / 5
		edges := make([]graph.Edge, 0, m)
		for u := 0; u < n; u++ {
			for d := 1; d <= 5; d++ {
				edges = append(edges, graph.Edge{U: graph.NodeID(u), V: graph.NodeID((u + d) % n)})
			}
		}
		body := solveBody(t, graph.MustFromEdges(n, edges), false)
		if 2*len(body) > maxPooledBody {
			t.Fatalf("m = %d: a %d-byte body may outgrow the pool cap", m, len(body))
		}
		postSolve(h, w, body)
		if w.status != http.StatusOK {
			t.Fatalf("m = %d: status %d", m, w.status)
		}
		const runs = 20
		objects = testing.AllocsPerRun(runs, func() { postSolve(h, w, body) })
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			postSolve(h, w, body)
		}
		runtime.ReadMemStats(&after)
		if got := w.header.Get("X-Cache"); got != cacheHit {
			t.Fatalf("m = %d: X-Cache %q, want hit", m, got)
		}
		return objects, float64(after.TotalAlloc-before.TotalAlloc) / runs / float64(m)
	}
	small, _ := hit(1000)
	big, perEdge := hit(25000)
	if small != big {
		t.Errorf("a cache-hit solve allocates %v objects at m = 1 000 but %v at m = 25 000", small, big)
	}
	t.Logf("a canonical cache hit at m = 25 000: %v objects, %.1f bytes per edge", big, perEdge)
	if perEdge >= 24 {
		t.Errorf("a canonical cache hit allocates %.1f bytes per edge at m = 25 000, want < 24", perEdge)
	}
}
