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
	"strings"
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

// Once the body and pair pools are warm, a cache-hit /v1/solve allocates
// the same number of objects at any edge count: the body is read into a
// pooled buffer, its pairs are decoded into a lent pooled buffer, and a
// canonical list is keyed from them; no edge list or CSR is built. So a
// hit at m = 25 000 allocates under 2 bytes per edge, where a fresh pair
// slice would take 16 and a copy of it and a CSR about 32 more. Both
// bodies stay under maxPooledBody, and both lists under maxPooledEdges,
// even after the buffers grow. The collector is off while counting: each
// cycle empties every sync.Pool, this server's and the standard
// library's, and a pool's next use after one allocates, so a larger
// body's garbage alone would add objects. And the test holds to one P,
// as AllocsPerRun does: a goroutine that moves to another P misses the
// pools' per-P caches and allocates afresh.
func TestSolveIntakeConstantAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector makes sync.Pool drop items at random")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
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
		if m >= maxPooledEdges {
			t.Fatalf("m = %d: the pair buffer would outgrow the pool cap", m)
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
	if perEdge >= 2 {
		t.Errorf("a canonical cache hit allocates %.1f bytes per edge at m = 25 000, want < 2", perEdge)
	}
}

// deltaBody encodes a delta body of edges add_edge and del_edge ops on an
// n = 2000 deployment, then one fail of 20 nodes, as ftperf's
// session-mobility steps post it.
func deltaBody(tb testing.TB, edges int) []byte {
	tb.Helper()
	rng := rand.New(rand.NewSource(9))
	ops := make([]DeltaOp, 0, edges+1)
	for i := 0; i < edges; i++ {
		u, v := rng.Intn(2000), rng.Intn(2000)
		op := "add_edge"
		if i%2 == 1 {
			op = "del_edge"
		}
		ops = append(ops, DeltaOp{Op: op, U: &u, V: &v})
	}
	ops = append(ops, DeltaOp{Op: "fail", Nodes: rng.Perm(2000)[:20]})
	body, err := json.Marshal(DeltaRequest{Ops: ops})
	if err != nil {
		tb.Fatal(err)
	}
	return body
}

// BenchmarkDeltaDecode decodes an 861-op body shaped like a
// session-mobility step with DeltaRequest.UnmarshalJSON (walker) and with
// the strict encoding/json decoder it replaced (strict).
func BenchmarkDeltaDecode(b *testing.B) {
	body := deltaBody(b, 860)
	b.Run("walker", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req DeltaRequest
			if err := req.UnmarshalJSON(body); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("strict", func(b *testing.B) {
		b.ReportAllocs()
		b.SetBytes(int64(len(body)))
		for i := 0; i < b.N; i++ {
			var req parentDeltaRequest
			if err := decodeStrict(bytes.NewReader(body), &req); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// A delta body allocates the same number of objects whatever its count
// of edge ops: one op slice, one block for every u and v, and one list
// per fail.
func TestDeltaDecodeConstantAllocs(t *testing.T) {
	allocs := func(edges int) float64 {
		body := deltaBody(t, edges)
		return testing.AllocsPerRun(20, func() {
			var req DeltaRequest
			if err := req.UnmarshalJSON(body); err != nil || len(req.Ops) != edges+1 {
				t.Fatalf("%d edge ops: %d ops decoded, err %v", edges, len(req.Ops), err)
			}
		})
	}
	small, big := allocs(100), allocs(4000)
	if small != big {
		t.Errorf("a delta body allocates %v objects at 100 edge ops but %v at 4 000", small, big)
	}
	t.Logf("a delta body: %v objects", big)
}

// The one-walk delta decoder against encoding/json into parentDeltaRequest
// on the edge cases of the wire format. Both accept or both reject, with
// identical ops, except where a key is case-folded or repeated: there the
// walker alone rejects.
func TestDeltaRequestDecode(t *testing.T) {
	for _, tc := range []struct {
		body     string
		accept   bool
		stricter bool // encoding/json accepts what the walker rejects
	}{
		{`null`, true, false},
		{`{}`, true, false},
		{`{"ops":null}`, true, false},
		{`[]`, false, false},
		{`{"ops":[]}`, true, false},
		{`{"ops":[null]}`, true, false},
		{` { "ops" : [ { "op" : "del_edge" , "u" : 3 , "v" : 4 } ] } `, true, false},
		{`{"ops":[{"op":"add_edge","u":null,"v":1}]}`, true, false},
		{`{"ops":[{"op":"add_edge","u":0,"v":1}]}`, true, false},
		{`{"ops":[{"op":"add_edge","v":1}]}`, true, false},
		{`{"ops":[{"op":"add_edge","u":-0,"v":1}]}`, true, false},
		{`{"ops":[{"op":"add_edge","u":1.0,"v":1}]}`, false, false},
		{`{"ops":[{"op":"add_edge","u":1e0,"v":1}]}`, false, false},
		{`{"ops":[{"op":"add_edge","u":"1","v":1}]}`, false, false},
		{`{"ops":[{"op":"add_edge","u":9223372036854775808,"v":1}]}`, false, false},
		{`{"ops":[{"op":"add_edge","u":01,"v":1}]}`, false, false},
		{`{"ops":[{"op":"add\u005fedge","u":0,"v":1}]}`, true, false},
		{`{"ops":[{"op":"fa\"il"}]}`, true, false},
		{`{"ops":[{"op":null}]}`, true, false},
		{`{"ops":[{"op":1}]}`, false, false},
		{`{"ops":[{"op":"fail","nodes":[]}]}`, true, false},
		{`{"ops":[{"op":"fail","nodes":null}]}`, true, false},
		{`{"ops":[{"op":"fail","nodes":[1,null,-2]}]}`, true, false},
		{`{"ops":[{"op":"fail","nodes":[1.5]}]}`, false, false},
		{`{"ops":[{"op":"add_node","x":1}]}`, false, false},
		{`{"ops":[1]}`, false, false},
		{`{"ops":{}}`, false, false},
		{`{"ops":[{"op":"add_node"},]}`, false, false},
		{`{"ops":[{"op":"add_node"}]} {}`, false, false},
		{`{"ops":[{"op":"add_node"}]}x`, false, false},
		{`{"OPS":[{"op":"add_node"}]}`, false, true},
		{`{"ops":[{"Op":"add_node"}]}`, false, true},
		{`{"ops":[{"op":"add_edge","u":1,"u":2,"v":3}]}`, false, true},
	} {
		var got DeltaRequest
		err := got.UnmarshalJSON([]byte(tc.body))
		var ref parentDeltaRequest
		refErr := decodeStrict(strings.NewReader(tc.body), &ref)
		switch {
		case (err == nil) != tc.accept:
			t.Errorf("%s: err %v, want accepted = %v", tc.body, err, tc.accept)
		case (refErr == nil) != (tc.accept || tc.stricter):
			t.Errorf("%s: encoding/json err %v, want accepted = %v", tc.body, refErr, tc.accept || tc.stricter)
		case err == nil && !sameOps(got.Ops, ref.Ops):
			t.Errorf("%s: decoded %+v, encoding/json %+v", tc.body, got.Ops, ref.Ops)
		}
	}

	// 0 is an operand; a missing u is none.
	decode := func(body string) []DeltaOp {
		var req DeltaRequest
		if err := req.UnmarshalJSON([]byte(body)); err != nil {
			t.Fatalf("%s: %v", body, err)
		}
		return req.Ops
	}
	if op := decode(`{"ops":[{"op":"add_edge","u":0,"v":1}]}`)[0]; op.U == nil || *op.U != 0 {
		t.Errorf(`"u":0 decoded to %v, want a pointer to 0`, op.U)
	}
	if op := decode(`{"ops":[{"op":"add_edge","v":1}]}`)[0]; op.U != nil {
		t.Errorf("a missing u decoded to %v, want nil", *op.U)
	}
	if op := decode(`{"ops":[{"op":"add\u005fedge","u":0,"v":1}]}`)[0]; op.Op != "add_edge" {
		t.Errorf("the escaped op decoded to %q", op.Op)
	}
	// A null op is the zero op, which toEngineOps rejects as unknown.
	if _, err := toEngineOps(decode(`{"ops":[null]}`)); err == nil || !strings.Contains(err.Error(), `unknown op ""`) {
		t.Errorf(`{"ops":[null]}: toEngineOps err %v, want unknown op ""`, err)
	}
}
