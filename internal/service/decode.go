package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"strconv"
)

// The keys of the objects a solve or delta body nests, each matched
// exactly.
var (
	solveKeys  = []string{"graph", "family", "k", "t", "seed", "local_delta"}
	graphKeys  = []string{"n", "edges"}
	familyKeys = []string{"name", "n", "degree", "seed"}
	deltaKeys  = []string{"ops"}
	opKeys     = []string{"op", "nodes", "u", "v"}
)

// opNames are the op kinds toEngineOps knows. An op string whose raw
// bytes equal one of them decodes to that constant, without allocating.
var opNames = [...]string{"fail", "revive", "add_edge", "del_edge", "add_node"}

// UnmarshalJSON decodes a solve body in one walk over data. The request,
// graph and family objects are walked in place: the edge list goes to
// parsePairs, n, k, t and seed to parseInt, and every other value to
// encoding/json as its own sub-slice. It keeps encoding/json's rules for
// null (the field keeps its zero value), unknown fields (an error, as
// under DisallowUnknownFields) and trailing data (an error), and is
// stricter on two: a key must match a field's tag exactly once unescaped,
// where encoding/json also takes a case-folded match, and a key may not
// repeat, where encoding/json keeps the last value and merges a repeated
// object.
func (r *SolveRequest) UnmarshalJSON(data []byte) error {
	return decodeWhole(data, r.decodeAt)
}

// UnmarshalJSON decodes a graph object under the rules of
// SolveRequest.UnmarshalJSON.
func (g *GraphSpec) UnmarshalJSON(data []byte) error {
	return decodeWhole(data, func(data []byte, i int) (int, error) {
		return g.decodeAt(data, i, nil)
	})
}

// UnmarshalJSON decodes a delta body in one walk over data, under the
// rules of SolveRequest.UnmarshalJSON; the op array goes to parseOps.
func (r *DeltaRequest) UnmarshalJSON(data []byte) error {
	return decodeWhole(data, r.decodeAt)
}

// decodeWhole runs decodeAt on the value data holds, leaving the target
// as it is for a null, and rejects anything but whitespace after it.
func decodeWhole(data []byte, decodeAt func(data []byte, i int) (int, error)) error {
	i := skipSpace(data, 0)
	if isNull(data, i) {
		i += 4
	} else {
		var err error
		if i, err = decodeAt(data, i); err != nil {
			return err
		}
	}
	if skipSpace(data, i) != len(data) {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

func (r *SolveRequest) decodeAt(data []byte, i int) (int, error) {
	return walkObject(data, i, solveKeys, func(key string, i int) (int, error) {
		switch key {
		case "graph":
			if isNull(data, i) {
				r.Graph = nil
				return i + 4, nil
			}
			if r.Graph == nil {
				r.Graph = new(GraphSpec)
			}
			return r.Graph.decodeAt(data, i, r.pairs)
		case "family":
			if isNull(data, i) {
				r.Family = nil
				return i + 4, nil
			}
			if r.Family == nil {
				r.Family = new(FamilySpec)
			}
			return r.Family.decodeAt(data, i)
		case "k":
			return intValue(data, i, &r.K)
		case "t":
			return intValue(data, i, &r.T)
		case "seed":
			return int64Value(data, i, &r.Seed)
		default:
			return jsonValue(data, i, &r.Local)
		}
	})
}

// decodeAt decodes the graph object at data[i:]. An edge list decodes
// into the capacity of g.Edges, or of the buffer *lend when one is lent;
// *lend then holds the list as decoded, so a buffer the decode grew is
// the one that goes back to its pool.
func (g *GraphSpec) decodeAt(data []byte, i int, lend *EdgeList) (int, error) {
	return walkObject(data, i, graphKeys, func(key string, i int) (int, error) {
		if key == "n" {
			return intValue(data, i, &g.N)
		}
		dst := g.Edges
		if lend != nil {
			dst = *lend
		}
		edges, next, err := parsePairs(dst, data, i)
		if err != nil {
			return 0, err
		}
		if lend != nil && edges != nil {
			*lend = edges
		}
		g.Edges = edges
		return next, nil
	})
}

func (r *DeltaRequest) decodeAt(data []byte, i int) (int, error) {
	return walkObject(data, i, deltaKeys, func(_ string, i int) (int, error) {
		ops, next, err := parseOps(data, i)
		if err != nil {
			return 0, err
		}
		r.Ops = ops
		return next, nil
	})
}

// parseOps decodes the op array (or null) at data[i:] and returns it with
// the index just past it. The slice is sized by counting '{' bytes,
// capped at maxDeltaOps+1, so capacity follows the body and never
// outgrows what the handler accepts by more than one op. The ops are
// decoded one by one through a single opDecoder, so no op allocates on
// its own account: every u and v points into one []int of twice the
// slice's capacity, and only a nodes list allocates. A body therefore
// allocates the same number of objects whatever its count of edge ops.
func parseOps(data []byte, i int) ([]DeltaOp, int, error) {
	if isNull(data, i) {
		return nil, i + 4, nil
	}
	ops := make([]DeltaOp, 0, min(bytes.Count(data[i:], []byte("{")), maxDeltaOps+1))
	d := opDecoder{data: data}
	member := d.member
	next, err := walkArray(data, i, func(i int) (int, error) {
		ops = append(ops, DeltaOp{})
		if isNull(data, i) {
			return i + 4, nil // a null op stays the zero op, as under encoding/json
		}
		d.op, d.block = &ops[len(ops)-1], 2*cap(ops)
		return walkObject(data, i, opKeys, member)
	})
	if err != nil {
		return nil, 0, err
	}
	return ops, next, nil
}

// opDecoder decodes the members of one op, op, at a time. The operands
// u and v point into ints, a block of block ints shared by every op of a
// body; a new block starts only when one fills.
type opDecoder struct {
	data  []byte
	op    *DeltaOp
	ints  []int
	block int
}

func (d *opDecoder) member(key string, i int) (int, error) {
	switch key {
	case "op":
		return d.kind(i)
	case "nodes":
		return intsValue(d.data, i, &d.op.Nodes)
	case "u":
		return d.operand(i, &d.op.U)
	default:
		return d.operand(i, &d.op.V)
	}
}

// kind decodes the op string at data[i:]: raw bytes equal to one of
// opNames become that constant, and any other value goes to
// encoding/json.
func (d *opDecoder) kind(i int) (int, error) {
	if i < len(d.data) && d.data[i] == '"' {
		if n := bytes.IndexByte(d.data[i+1:], '"'); n >= 0 {
			for _, name := range opNames {
				if string(d.data[i+1:i+1+n]) == name {
					d.op.Op = name
					return i + n + 2, nil
				}
			}
		}
	}
	return jsonValue(d.data, i, &d.op.Op)
}

// operand decodes the integer or null at data[i:] into *dst: an integer
// lands in the current block of ints, and a null clears *dst, as
// encoding/json clears a pointer.
func (d *opDecoder) operand(i int, dst **int) (int, error) {
	if isNull(d.data, i) {
		*dst = nil
		return i + 4, nil
	}
	v, next, err := parseInt(d.data, i, strconv.IntSize)
	if err != nil {
		return 0, err
	}
	if len(d.ints) == cap(d.ints) {
		d.ints = make([]int, 0, d.block)
	}
	d.ints = append(d.ints, int(v))
	*dst = &d.ints[len(d.ints)-1]
	return next, nil
}

// intsValue decodes the integer array or null at data[i:] into *dst as
// encoding/json decodes a []int: null clears it, and a null element is 0.
// The slice is sized by counting the commas before the first ']'.
func intsValue(data []byte, i int, dst *[]int) (int, error) {
	if isNull(data, i) {
		*dst = nil
		return i + 4, nil
	}
	end := bytes.IndexByte(data[i:], ']')
	if end < 0 {
		end = len(data) - i
	}
	out := make([]int, 0, bytes.Count(data[i:i+end], []byte(","))+1)
	next, err := walkArray(data, i, func(i int) (int, error) {
		var v int64
		next := i + 4
		if !isNull(data, i) {
			var err error
			if v, next, err = parseInt(data, i, strconv.IntSize); err != nil {
				return 0, err
			}
		}
		out = append(out, int(v))
		return next, nil
	})
	if err != nil {
		return 0, err
	}
	*dst = out
	return next, nil
}

func (f *FamilySpec) decodeAt(data []byte, i int) (int, error) {
	return walkObject(data, i, familyKeys, func(key string, i int) (int, error) {
		switch key {
		case "name":
			return jsonValue(data, i, &f.Name)
		case "n":
			return intValue(data, i, &f.N)
		case "degree":
			return jsonValue(data, i, &f.Degree)
		default:
			return int64Value(data, i, &f.Seed)
		}
	})
}

// walkObject walks the JSON object at data[i:], calling member with each
// key, as the matching entry of keys, and the index of its value's first
// byte; member returns the index just past the value. A key is unescaped
// and must equal an entry of keys exactly, at most once. walkObject
// returns the index just past the closing brace.
func walkObject(data []byte, i int, keys []string, member func(key string, i int) (int, error)) (int, error) {
	if i == len(data) || data[i] != '{' {
		return 0, errors.New("want an object")
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == '}' {
		return i + 1, nil
	}
	var seen uint
	for {
		k, next, err := objectKey(data, i, keys)
		if err != nil {
			return 0, err
		}
		if seen&(1<<k) != 0 {
			return 0, fmt.Errorf("duplicate field %q", keys[k])
		}
		seen |= 1 << k
		if i = skipSpace(data, next); i == len(data) || data[i] != ':' {
			return 0, fmt.Errorf("want ':' after %q", keys[k])
		}
		if i, err = member(keys[k], skipSpace(data, i+1)); err != nil {
			return 0, fmt.Errorf("%s: %w", keys[k], err)
		}
		if i = skipSpace(data, i); i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if i < len(data) && data[i] == '}' {
			return i + 1, nil
		}
		return 0, fmt.Errorf("want ',' or '}' after %q", keys[k])
	}
}

// walkArray walks the JSON array at data[i:], calling elem with the
// index of each element's first byte; elem returns the index just past
// the element. walkArray returns the index just past the closing
// bracket.
func walkArray(data []byte, i int, elem func(i int) (int, error)) (int, error) {
	if i == len(data) || data[i] != '[' {
		return 0, errors.New("want an array")
	}
	if i = skipSpace(data, i+1); i < len(data) && data[i] == ']' {
		return i + 1, nil
	}
	for n := 0; ; n++ {
		var err error
		if i, err = elem(i); err != nil {
			return 0, fmt.Errorf("element %d: %w", n, err)
		}
		if i = skipSpace(data, i); i < len(data) && data[i] == ',' {
			i = skipSpace(data, i+1)
			continue
		}
		if i < len(data) && data[i] == ']' {
			return i + 1, nil
		}
		return 0, fmt.Errorf("want ',' or ']' after element %d", n)
	}
}

// objectKey reads the JSON string at data[i:] and returns the index in
// keys of the entry it equals once unescaped, and the index just past
// its closing quote.
func objectKey(data []byte, i int, keys []string) (int, int, error) {
	if i == len(data) || data[i] != '"' {
		return 0, 0, errors.New("want a quoted field name")
	}
	end, escaped := i+1, false
	for ; end < len(data) && data[end] != '"'; end++ {
		if data[end] == '\\' {
			escaped = true
			end++
		}
	}
	if end >= len(data) {
		return 0, 0, errors.New("unterminated field name")
	}
	name := data[i+1 : end]
	if escaped {
		var s string
		if err := json.Unmarshal(data[i:end+1], &s); err != nil {
			return 0, 0, err
		}
		name = []byte(s)
	}
	for k, key := range keys {
		if string(name) == key {
			return k, end + 1, nil
		}
	}
	return 0, 0, fmt.Errorf("unknown field %q", name)
}

// intValue decodes the integer or null at data[i:] into *dst, which a
// null leaves as it is, and returns the index just past it.
func intValue(data []byte, i int, dst *int) (int, error) {
	if isNull(data, i) {
		return i + 4, nil
	}
	v, next, err := parseInt(data, i, strconv.IntSize)
	if err != nil {
		return 0, err
	}
	*dst = int(v)
	return next, nil
}

// int64Value is intValue for an int64 field.
func int64Value(data []byte, i int, dst *int64) (int, error) {
	if isNull(data, i) {
		return i + 4, nil
	}
	v, next, err := parseInt(data, i, 64)
	if err != nil {
		return 0, err
	}
	*dst = v
	return next, nil
}

// jsonValue hands the value at data[i:] to encoding/json as its own
// sub-slice and returns the index just past it.
func jsonValue(data []byte, i int, dst any) (int, error) {
	end := valueEnd(data, i)
	if err := json.Unmarshal(data[i:end], dst); err != nil {
		return 0, err
	}
	return end, nil
}

// valueEnd returns the index just past the JSON value that starts at
// data[i]: past the bracket that closes an array or object, past the
// quote that closes a string, or at the first delimiter after a number
// or literal. It only finds the value's extent; whoever decodes the
// value checks its syntax.
func valueEnd(data []byte, i int) int {
	depth := 0
	for ; i < len(data); i++ {
		switch data[i] {
		case '"':
			for i++; i < len(data) && data[i] != '"'; i++ {
				if data[i] == '\\' {
					i++
				}
			}
			if depth == 0 {
				return min(i+1, len(data))
			}
		case '[', '{':
			depth++
		case ']', '}':
			if depth == 0 {
				return i
			}
			if depth--; depth == 0 {
				return i + 1
			}
		case ',', ' ', '\t', '\n', '\r':
			if depth == 0 {
				return i
			}
		}
	}
	return len(data)
}
