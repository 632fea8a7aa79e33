package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"
)

// FuzzSolveRequestDecode drives arbitrary bytes through the full
// POST /v1/solve path — size cap, strict JSON decode, instance
// validation, solve — and asserts the decode layer's contract: the
// handler never panics, every outcome is a documented status code, and
// every response body is well-formed JSON (a SolutionJSON on 200, an
// errorBody otherwise). Solves are kept cheap by capping MaxNodes.
func FuzzSolveRequestDecode(f *testing.F) {
	s := New(Config{
		Workers:      2,
		MaxNodes:     128,
		MaxBodyBytes: 1 << 12,
		SolveTimeout: 5 * time.Second,
		CacheSize:    -1, // every input exercises the full path, not the cache
	})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()

	f.Add([]byte(`{"graph":{"n":3,"edges":[[0,1],[1,2]]},"k":1}`))
	f.Add([]byte(`{"family":{"name":"gnp","n":20,"degree":4,"seed":7},"k":2}`))
	f.Add([]byte(`{"graph":{"n":2,"edges":[[0,0]]},"k":1}`)) // self-loop
	f.Add([]byte(`{"k":1}`))                                 // neither graph nor family
	f.Add([]byte(`{"graph":{"n":-5},"k":1}`))
	f.Add([]byte(`{"unknown_field":true}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Add([]byte(`[1,2,3]`))
	f.Fuzz(func(t *testing.T, body []byte) {
		req := httptest.NewRequest(http.MethodPost, "/v1/solve", bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic

		switch rec.Code {
		case http.StatusOK,
			http.StatusBadRequest,
			http.StatusRequestEntityTooLarge,
			http.StatusTooManyRequests,
			http.StatusInternalServerError,
			http.StatusServiceUnavailable,
			http.StatusGatewayTimeout:
		default:
			t.Fatalf("undocumented status %d for body %q", rec.Code, body)
		}

		if rec.Code == http.StatusOK {
			var sol SolutionJSON
			if err := json.Unmarshal(rec.Body.Bytes(), &sol); err != nil {
				t.Fatalf("200 body is not a SolutionJSON: %v", err)
			}
			return
		}
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("status %d body %q is not an errorBody: %v", rec.Code, rec.Body.Bytes(), err)
		}
		if eb.Error == "" {
			t.Fatalf("status %d carries an empty error message", rec.Code)
		}
	})
}

// FuzzSessionDeltaDecode drives arbitrary bytes through the full
// POST /v1/session/{id}/delta path against one live session and asserts
// the transactional contract: the handler never panics, every outcome is
// a documented status code (200, 400 or 413), every non-200 body is an
// errorBody — and, the heart of the batch-validation fix, any non-200
// outcome leaves the session state byte-identical. The session is shared
// across iterations, so accepted batches keep mutating it into arbitrary
// churned configurations; the no-partial-mutation invariant must hold
// from every one of them.
func FuzzSessionDeltaDecode(f *testing.F) {
	s := New(Config{
		Workers:      2,
		MaxNodes:     128,
		MaxBodyBytes: 1 << 12,
		SolveTimeout: 5 * time.Second,
		CacheSize:    -1,
		SessionTTL:   -1, // no janitor: the fixture session must outlive the run
	})
	f.Cleanup(func() { s.Shutdown(context.Background()) })
	h := s.Handler()

	create := httptest.NewRequest(http.MethodPost, "/v1/session",
		bytes.NewReader([]byte(`{"graph":{"n":16,"edges":[[0,1],[1,2],[2,3],[3,4],[4,5],[5,6],[6,7],[7,8],[8,9],[9,10],[10,11],[11,12],[12,13],[13,14],[14,15]]},"k":2}`)))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, create)
	if rec.Code != http.StatusCreated {
		f.Fatalf("fixture session: status %d, body %s", rec.Code, rec.Body.Bytes())
	}
	var cr SessionCreateResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &cr); err != nil {
		f.Fatal(err)
	}
	deltaURL := "/v1/session/" + cr.SessionID + "/delta"
	stateURL := "/v1/session/" + cr.SessionID

	state := func(t *testing.T) []byte {
		req := httptest.NewRequest(http.MethodGet, stateURL, nil)
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("state read: status %d", rec.Code)
		}
		return rec.Body.Bytes()
	}

	f.Add([]byte(`{"ops":[{"op":"fail","nodes":[0,3]}]}`))
	f.Add([]byte(`{"ops":[{"op":"revive","nodes":[0]}]}`))
	f.Add([]byte(`{"ops":[{"op":"add_node"},{"op":"add_edge","u":16,"v":0}]}`))
	f.Add([]byte(`{"ops":[{"op":"del_edge","u":0,"v":1},{"op":"add_edge","u":0,"v":1}]}`))
	f.Add([]byte(`{"ops":[{"op":"fail","nodes":[2]},{"op":"fail","nodes":[9999]}]}`)) // valid prefix, bad tail
	f.Add([]byte(`{"ops":[{"op":"add_edge","u":1,"v":1}]}`))                          // self-loop
	f.Add([]byte(`{"ops":[{"op":"warp"}]}`))
	f.Add([]byte(`{"ops":[{"op":"fail"}]}`))
	f.Add([]byte(`{"ops":[{"op":"add_edge","u":3}]}`))
	f.Add([]byte(`{"ops":[]}`))
	f.Add([]byte(`{"unknown":1}`))
	f.Add([]byte(`{`))
	f.Add([]byte(``))
	f.Fuzz(func(t *testing.T, body []byte) {
		before := state(t)

		req := httptest.NewRequest(http.MethodPost, deltaURL, bytes.NewReader(body))
		req.Header.Set("Content-Type", "application/json")
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req) // must not panic

		switch rec.Code {
		case http.StatusOK, http.StatusBadRequest, http.StatusRequestEntityTooLarge:
		default:
			t.Fatalf("undocumented status %d for body %q", rec.Code, body)
		}

		if rec.Code == http.StatusOK {
			var dr DeltaResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &dr); err != nil {
				t.Fatalf("200 body is not a DeltaResponse: %v", err)
			}
			if !dr.Feasible {
				t.Fatalf("accepted delta left an infeasible session: %s", rec.Body.Bytes())
			}
			return
		}
		var eb struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(rec.Body.Bytes(), &eb); err != nil {
			t.Fatalf("status %d body %q is not an errorBody: %v", rec.Code, rec.Body.Bytes(), err)
		}
		if eb.Error == "" {
			t.Fatalf("status %d carries an empty error message", rec.Code)
		}
		if after := state(t); !bytes.Equal(before, after) {
			t.Fatalf("rejected delta (status %d, body %q) mutated session state:\nbefore %s\nafter  %s",
				rec.Code, body, before, after)
		}
	})
}

// FuzzEdgeList checks EdgeList's one-pass decoder against encoding/json
// into [][2]int on arbitrary bytes: it never panics; whatever it accepts,
// encoding/json accepts with identical pairs; and a JSON array whose
// every element is exactly two in-range integers is accepted by both.
func FuzzEdgeList(f *testing.F) {
	for _, s := range []string{
		`[[2]]`, `[[0,1,2]]`, `[[null,1]]`, `[[0,1],[1]]`, `[[2],[1,2]]`,
		`[[0,1],[1,2]]`, " [ [ 0 , 1 ] ,\n\t[1,2]\r] ", `[[0,1] , [1 ,2 ]]`,
		`[[-0,1]]`, `[[1e2,1]]`, `[[1.0,1]]`,
		`[[9223372036854775807,0]]`, `[[9223372036854775808,0]]`, `[[-9223372036854775808,0]]`,
		`[[-9223372036854775809,0]]`, `[[92233720368547758100,0]]`,
		`null`, ` null `, `[]`, `[ ]`, `[[0,1],]`, `[[01,2]]`, `[["0",1]]`, `[[0,1]]x`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got EdgeList
		err := got.UnmarshalJSON(data)
		var want [][2]int
		refErr := json.Unmarshal(data, &want)
		if err == nil {
			if refErr != nil {
				t.Fatalf("%q: accepted, but encoding/json rejects it: %v", data, refErr)
			}
			if !reflect.DeepEqual([][2]int(got), want) {
				t.Fatalf("%q: decoded %v, encoding/json %v", data, got, want)
			}
		}
		if intPairArray(data) && (err != nil || refErr != nil) {
			t.Fatalf("%q: an array of integer pairs was rejected: %v / %v", data, err, refErr)
		}
	})
}

// intPairArray reports whether data is a JSON array (not null) whose
// every element is an array of exactly two integer literals that fit in
// an int.
func intPairArray(data []byte) bool {
	var outer []json.RawMessage
	if json.Unmarshal(data, &outer) != nil || outer == nil {
		return false
	}
	for _, el := range outer {
		var pair []json.RawMessage
		if json.Unmarshal(el, &pair) != nil || len(pair) != 2 {
			return false
		}
		for _, x := range pair {
			if _, err := strconv.ParseInt(string(bytes.TrimSpace(x)), 10, strconv.IntSize); err != nil {
				return false
			}
		}
	}
	return true
}

// parentSolveRequest and parentGraphSpec copy the solve body's structs,
// tags and EdgeList edges included, without SolveRequest's and
// GraphSpec's UnmarshalJSON methods: decodeStrict reads them with plain
// encoding/json, the decoder the one-walk UnmarshalJSON replaced.
type (
	parentSolveRequest struct {
		Graph  *parentGraphSpec `json:"graph,omitempty"`
		Family *FamilySpec      `json:"family,omitempty"`
		K      int              `json:"k"`
		T      int              `json:"t,omitempty"`
		Seed   int64            `json:"seed,omitempty"`
		Local  bool             `json:"local_delta,omitempty"`
	}
	parentGraphSpec struct {
		N     int      `json:"n"`
		Edges EdgeList `json:"edges"`
	}
)

// FuzzSolveRequest checks SolveRequest.UnmarshalJSON against decodeStrict
// into parentSolveRequest on arbitrary bytes: it never panics, and when
// every key in the body is exact-case and unique (the two leniencies of
// encoding/json it drops), either both accept with identical fields or
// both reject.
func FuzzSolveRequest(f *testing.F) {
	for _, s := range []string{
		`{"graph":{"n":3,"edges":[[0,1],[1,2]]},"k":1}`,
		`{"family":{"name":"gnp","n":20,"degree":4.5,"seed":-7},"k":2,"t":4,"seed":9,"local_delta":true}`,
		` { "graph" : { "edges" : [ [ 2 , 0 ] ] , "n" : 3 } , "k" : 2 } `,
		`{"graph":null,"family":null,"k":null,"t":null,"seed":null,"local_delta":null}`,
		`{"graph":{"n":null,"edges":null}}`, `{"graph":{"edges":[]}}`, `{"graph":{}}`, `{}`,
		`null`, ` null `, `nul`, `[]`, `"k"`, `1`, ``, `{`, `{"k":1}x`, `{"k":1} {}`,
		`{"k":1,}`, `{,"k":1}`, `{"k" 1}`, `{"k":1 "t":2}`, `{"k":01}`, `{"k":1.0}`, `{"k":1e0}`,
		`{"k":-0}`, `{"k":"1"}`, `{"k":true}`, `{"k":9223372036854775807}`, `{"k":9223372036854775808}`,
		`{"seed":-9223372036854775808}`, `{"seed":-9223372036854775809}`,
		`{"k":2}`, `{"graph":{"n":1}}`, `{"k\"":1}`, `{"\k":1}`, "{\"k\x01\":1}",
		`{"K":2}`, `{"k":1,"k":2}`, `{"graph":{"n":1},"graph":{"n":2}}`, `{"family":{"Name":"gnp"}}`,
		`{"family":{"name":"a\"b\\c","degree":[1,{"x":"]"}]}}`, `{"family":{"name":"gnp","degree":1e400}}`,
		`{"graph":{"n":3,"edges":[[0,1],[1]]}}`, `{"local_delta":"true"}`, `{"edges":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got SolveRequest
		err := got.UnmarshalJSON(data)
		if !exactUniqueKeys(data, solveKeys, graphKeys, familyKeys) {
			return
		}
		var ref parentSolveRequest
		refErr := decodeStrict(bytes.NewReader(data), &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: err %v, encoding/json err %v", data, err, refErr)
		}
		if err != nil {
			return
		}
		want := SolveRequest{Family: ref.Family, K: ref.K, T: ref.T, Seed: ref.Seed, Local: ref.Local}
		if ref.Graph != nil {
			want.Graph = &GraphSpec{N: ref.Graph.N, Edges: ref.Graph.Edges}
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", data, got, want)
		}
	})
}

// parentDeltaRequest and parentDeltaOp copy the delta body's structs
// without DeltaRequest's UnmarshalJSON method: decodeStrict reads them
// with plain encoding/json, the decoder the one-walk UnmarshalJSON
// replaced.
type (
	parentDeltaRequest struct {
		Ops []parentDeltaOp `json:"ops"`
	}
	parentDeltaOp struct {
		Op    string `json:"op"`
		Nodes []int  `json:"nodes,omitempty"`
		U     *int   `json:"u,omitempty"`
		V     *int   `json:"v,omitempty"`
	}
)

// sameOps reports whether got holds ref's ops, with u and v compared by
// value and nil lists told apart from empty ones.
func sameOps(got []DeltaOp, ref []parentDeltaOp) bool {
	if (got == nil) != (ref == nil) || len(got) != len(ref) {
		return false
	}
	sameInt := func(a, b *int) bool { return a == nil && b == nil || a != nil && b != nil && *a == *b }
	for i, op := range got {
		r := ref[i]
		if op.Op != r.Op || !reflect.DeepEqual(op.Nodes, r.Nodes) || !sameInt(op.U, r.U) || !sameInt(op.V, r.V) {
			return false
		}
	}
	return true
}

// FuzzDeltaRequest checks DeltaRequest.UnmarshalJSON against decodeStrict
// into parentDeltaRequest on arbitrary bytes, as FuzzSolveRequest does
// for solve bodies: it never panics, and when every key in the body is
// exact-case and unique, either both accept with identical ops or both
// reject.
func FuzzDeltaRequest(f *testing.F) {
	for _, s := range []string{
		`{"ops":[{"op":"add_edge","u":1,"v":2},{"op":"del_edge","u":0,"v":3},{"op":"fail","nodes":[4,5]}]}`,
		`{"ops":[{"op":"revive","nodes":[4]},{"op":"add_node"}]}`,
		` { "ops" : [ { "v" : 4 , "op" : "del_edge" , "u" : 3 } , null ] } `,
		`null`, `{}`, `{"ops":null}`, `{"ops":[]}`, `{"ops":[null]}`, `[]`, ``, `{`, `{"ops":[`,
		`{"ops":[{"op":"add_edge","u":null,"v":0}]}`, `{"ops":[{"op":"add_edge","u":-0,"v":1}]}`,
		`{"ops":[{"u":1.0}]}`, `{"ops":[{"u":1e0}]}`, `{"ops":[{"u":"1"}]}`, `{"ops":[{"u":01}]}`,
		`{"ops":[{"u":9223372036854775808}]}`, `{"ops":[{"v":-9223372036854775808}]}`,
		`{"ops":[{"op":"add\u005fedge"}]}`, `{"ops":[{"op":"fa\"il"}]}`, `{"ops":[{"op":null}]}`,
		`{"ops":[{"op":1}]}`, `{"ops":[{"op":"warp"}]}`, `{"ops":[{"nodes":[]}]}`,
		`{"ops":[{"nodes":null}]}`, `{"ops":[{"nodes":[1,null,-2]}]}`, `{"ops":[{"nodes":[1,]}]}`,
		`{"ops":[{"nodes":[1.5]}]}`, `{"ops":[{"nodes":{}}]}`, `{"ops":[1]}`, `{"ops":{}}`,
		`{"ops":[{},]}`, `{"ops":[{"x":1}]}`, `{"ops":[]}x`, `{"ops":[]} {}`,
		`{"OPS":[]}`, `{"ops":[{"Op":"fail"}]}`, `{"ops":[{"u":1,"u":2}]}`, `{"ops":[],"ops":[]}`,
	} {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var got DeltaRequest
		err := got.UnmarshalJSON(data)
		if !exactUniqueKeys(data, deltaKeys, opKeys) {
			return
		}
		var ref parentDeltaRequest
		refErr := decodeStrict(bytes.NewReader(data), &ref)
		if (err == nil) != (refErr == nil) {
			t.Fatalf("%q: err %v, encoding/json err %v", data, err, refErr)
		}
		if err == nil && !sameOps(got.Ops, ref.Ops) {
			t.Fatalf("%q: decoded %+v, encoding/json %+v", data, got.Ops, ref.Ops)
		}
	})
}

// exactUniqueKeys reads data's token stream up to its end or first error
// and reports whether every object key, once unescaped, is unique within
// its object and is either one of the field names in keyLists or no
// case-folded match of one (encoding/json reads a case-folded key as the
// field).
func exactUniqueKeys(data []byte, keyLists ...[]string) bool {
	var names []string
	for _, keys := range keyLists {
		names = append(names, keys...)
	}
	type frame struct {
		keys map[string]bool // nil for an array
		key  bool            // the object's next token is a key
	}
	var stack []*frame
	dec := json.NewDecoder(bytes.NewReader(data))
	for {
		tok, err := dec.Token()
		if err != nil {
			return true
		}
		if len(stack) > 0 {
			if top := stack[len(stack)-1]; top.key {
				if key, ok := tok.(string); ok {
					if top.keys[key] {
						return false
					}
					top.keys[key] = true
					for _, name := range names {
						if key != name && strings.EqualFold(key, name) {
							return false
						}
					}
					top.key = false
					continue
				}
			}
		}
		switch tok {
		case json.Delim('{'):
			stack = append(stack, &frame{keys: map[string]bool{}, key: true})
			continue
		case json.Delim('['):
			stack = append(stack, &frame{})
			continue
		case json.Delim('}'), json.Delim(']'):
			stack = stack[:len(stack)-1]
		}
		// A value is complete: its object's next token is a key.
		if len(stack) > 0 && stack[len(stack)-1].keys != nil {
			stack[len(stack)-1].key = true
		}
	}
}
