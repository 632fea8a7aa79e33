package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
)

// hashChunk is the scratch-buffer size the canonical digest streams
// through. One buffer covers the header plus hundreds of edges, so the
// hash state sees a handful of large writes instead of two small ones per
// edge.
const hashChunk = 4096

// CanonicalHash returns a hex-encoded SHA-256 digest of the graph's
// canonical structure encoding: the node count, the edge count, and every
// undirected edge (u, v) with u < v in ascending order — the same order
// the text codec emits. Two graphs get the same hash iff they have the
// same node count and edge set, regardless of construction order, so the
// digest is a sound cache key for solver results (together with the
// solver parameters).
//
// The encoding streams directly over the CSR adjacency: the rows are
// already sorted, so the u < v halves of each row come out in canonical
// order with no edge-list materialization and no sort. The only heap
// allocations are the output string's, independent of m — asserted by
// TestCanonicalHashConstantAllocs.
//
// Format note: the uint32 packing and chunked framing replace the
// pre-streaming per-edge uint64 encoding, so digests differ from those
// produced by older versions of this package. The digest is an in-process
// cache key, never persisted, so only same-version comparisons matter.
func (g *Graph) CanonicalHash() string {
	return canonicalDigest(g.n, g.m, g, nil)
}

// CanonicalPairsHash returns, without building the graph, the
// CanonicalHash of the graph FromEdges would build from n and pairs, and
// true, when the pairs are canonical: every pair has 0 ≤ u < v < n, in
// strictly ascending (u, v) order, as Edges emits them. For any other
// list, or one FromEdges would reject, it returns false; the caller
// builds that graph and hashes it instead.
func CanonicalPairsHash(n int, pairs [][2]int) (string, bool) {
	if n < 0 || n > math.MaxInt32 || len(pairs) > math.MaxInt32/2 {
		return "", false
	}
	// With 0 ≤ u < v < n < 2³¹, the key u<<32 | v orders pairs as (u, v)
	// does, so one comparison checks the order; comparing u, then v,
	// mispredicts a branch at every change of u.
	var prev uint64 // below the key of every valid pair
	for _, p := range pairs {
		u, v := p[0], p[1]
		key := uint64(u)<<32 | uint64(v)
		if u < 0 || u >= v || v >= n || key <= prev {
			return "", false
		}
		prev = key
	}
	return canonicalDigest(n, len(pairs), nil, pairs), true
}

// canonicalDigest is the one writer of the canonical encoding: n and m as
// little-endian uint64s, then every edge (u, v), u < v, in ascending
// order, as two little-endian uint32s (CSR offsets are int32, so node
// counts beyond 2³¹ are unrepresentable anyway). The edges come from g's
// rows when g is set, and otherwise from pairs, which the caller has
// checked are canonical. They are packed into a fixed stack buffer that
// is hashed in hashChunk-sized writes; put is inlined into both loops, so
// there is no call per edge.
func canonicalDigest(n, m int, g *Graph, pairs [][2]int) string {
	h := sha256.New()
	var buf [hashChunk]byte
	binary.LittleEndian.PutUint64(buf[0:8], uint64(n))
	binary.LittleEndian.PutUint64(buf[8:16], uint64(m))
	w := 16
	put := func(u, v int) {
		// The header and every edge take a multiple of 8 bytes, as does
		// hashChunk, so a full buffer ends exactly at hashChunk.
		if w == hashChunk {
			h.Write(buf[:])
			w = 0
		}
		binary.LittleEndian.PutUint32(buf[w:w+4], uint32(u))
		binary.LittleEndian.PutUint32(buf[w+4:w+8], uint32(v))
		w += 8
	}
	if g != nil {
		for u := 0; u < n; u++ {
			row := g.adj[g.off[u]:g.off[u+1]]
			// Skip the v < u half of the row; the tail holds the
			// canonical (u, v) pairs of row u.
			lo := 0
			for lo < len(row) && int(row[lo]) < u {
				lo++
			}
			for _, v := range row[lo:] {
				put(u, int(v))
			}
		}
	} else {
		for _, p := range pairs {
			put(p[0], p[1])
		}
	}
	h.Write(buf[:w])
	return hex.EncodeToString(h.Sum(buf[:0]))
}
