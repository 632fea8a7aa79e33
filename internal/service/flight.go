package service

import "sync"

// flightGroup coalesces concurrent solves of the same cache key: the first
// request to miss the cache becomes the leader and runs the solve; every
// request for the same key that arrives while it is in flight becomes a
// follower and waits for the leader's result instead of occupying another
// pool worker. The leader encodes the answer once, and leader and
// followers write those same bytes, so coalescing is invisible except for
// the X-Cache header and the coalesced counter.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-flight solve. done is closed after body/status/err
// are set and the flight has been removed from the group, so a follower
// that observes done always sees the final outcome. body is the encoded
// /v1/solve answer, the same slice the cache holds; nobody modifies it.
type flight struct {
	done   chan struct{}
	body   []byte
	status int
	err    error
	// followers counts the requests that joined behind the leader
	// (guarded by the group's mu), so a test can tell when every
	// duplicate is waiting.
	followers int
}

func newFlightGroup() *flightGroup {
	return &flightGroup{m: make(map[string]*flight)}
}

// join returns the flight for key and whether the caller is its leader.
// A leader MUST call finish exactly once.
func (g *flightGroup) join(key string) (*flight, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		f.followers++
		return f, false
	}
	f := &flight{done: make(chan struct{})}
	g.m[key] = f
	return f, true
}

// finish publishes the leader's outcome and releases the followers. The
// caller must have inserted the result into the solution cache first (on
// success). A request that missed the cache before that insert and joins
// after the flight is removed leads a new flight; solvePrepared's second
// cache lookup then finds the answer, so the key is not solved again.
func (g *flightGroup) finish(key string, f *flight, body []byte, status int, err error) {
	f.body, f.status, f.err = body, status, err
	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	close(f.done)
}
