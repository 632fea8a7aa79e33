package service

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"ftclust/internal/graph"
	"ftclust/internal/maintain"
)

func storeTestGraph(t *testing.T, seed int64) *graph.Graph {
	t.Helper()
	return graph.GnpAvgDegree(60, 6, seed)
}

func fullMask(n int) []bool {
	mask := make([]bool, n)
	for i := range mask {
		mask[i] = true
	}
	return mask
}

// The striped store must survive concurrent create/fail/delta/delete
// across goroutines (run under -race in CI) while keeping its global
// count and cap exact.
func TestSessionStoreParallelChurn(t *testing.T) {
	st := newSessionStore(1024)
	g := storeTestGraph(t, 1)
	now := time.Unix(1700000000, 0)

	const workers = 8
	const perWorker = 12
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				s, err := st.create(g, 1, fullMask(g.NumNodes()), now)
				if err != nil {
					t.Errorf("worker %d create: %v", w, err)
					return
				}
				if _, err := st.get(s.id, now.Add(time.Second)); err != nil {
					t.Errorf("worker %d get %s: %v", w, s.id, err)
					return
				}
				victim := (w*perWorker + i) % g.NumNodes()
				ops := []maintain.Op{{Kind: maintain.OpFail, Nodes: []graph.NodeID{graph.NodeID(victim)}}}
				if _, _, err := s.delta(ops, nil); err != nil {
					t.Errorf("worker %d fail: %v", w, err)
					return
				}
				ops = []maintain.Op{{Kind: maintain.OpRevive, Nodes: []graph.NodeID{graph.NodeID(victim)}}}
				if _, _, err := s.delta(ops, nil); err != nil {
					t.Errorf("worker %d delta: %v", w, err)
					return
				}
				// Delete every other session; the rest stay live.
				if i%2 == 0 {
					if err := st.delete(s.id); err != nil {
						t.Errorf("worker %d delete %s: %v", w, s.id, err)
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()

	want := workers * perWorker / 2
	if got := st.len(); got != want {
		t.Fatalf("store length after churn = %d, want %d", got, want)
	}
	// The count must agree with what the shards actually hold.
	actual := 0
	for i := range st.shards {
		st.shards[i].mu.Lock()
		actual += len(st.shards[i].m)
		st.shards[i].mu.Unlock()
	}
	if actual != want {
		t.Fatalf("shard contents sum to %d, want %d", actual, want)
	}
}

// The cap holds exactly under concurrent creates racing across shards:
// the atomic reservation admits max sessions and sheds the rest.
func TestSessionStoreCapUnderConcurrency(t *testing.T) {
	const cap = 10
	st := newSessionStore(cap)
	g := storeTestGraph(t, 2)
	now := time.Unix(1700000000, 0)

	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 64; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := st.create(g, 1, fullMask(g.NumNodes()), now)
			errs <- err
		}()
	}
	wg.Wait()
	close(errs)

	created, rejected := 0, 0
	for err := range errs {
		switch err {
		case nil:
			created++
		case errTooManySessions:
			rejected++
		default:
			t.Fatalf("unexpected create error: %v", err)
		}
	}
	if created != cap || rejected != 64-cap {
		t.Fatalf("created=%d rejected=%d, want %d/%d", created, rejected, cap, 64-cap)
	}
	if st.len() != cap {
		t.Fatalf("store length = %d, want %d", st.len(), cap)
	}
}

// Sweeps are per-shard and must reconcile the global count.
func TestSessionStoreShardedSweep(t *testing.T) {
	st := newSessionStore(1024)
	g := storeTestGraph(t, 3)
	base := time.Unix(1700000000, 0)

	var stale []string
	for i := 0; i < 20; i++ {
		s, err := st.create(g, 1, fullMask(g.NumNodes()), base)
		if err != nil {
			t.Fatal(err)
		}
		if i%2 == 0 {
			stale = append(stale, s.id)
		} else if _, err := st.get(s.id, base.Add(time.Hour)); err != nil {
			t.Fatal(err)
		}
	}
	// IDs must spread across stripes, or the striping buys nothing.
	shards := map[*sessionShard]bool{}
	for _, id := range stale {
		shards[st.shardFor(id)] = true
	}
	if len(shards) < 2 {
		t.Fatalf("10 sessions landed on %d shard(s); hash is degenerate", len(shards))
	}

	if n := st.sweep(base.Add(time.Minute)); n != len(stale) {
		t.Fatalf("sweep removed %d, want %d", n, len(stale))
	}
	if st.len() != 10 {
		t.Fatalf("store length after sweep = %d, want 10", st.len())
	}
	for _, id := range stale {
		if _, err := st.get(id, base); err != errNoSession {
			t.Fatalf("swept session %s still resolvable (err=%v)", id, err)
		}
	}
}

// Monotonic IDs stay unique under concurrency.
func TestSessionStoreUniqueIDs(t *testing.T) {
	st := newSessionStore(1024)
	g := storeTestGraph(t, 4)
	now := time.Unix(1700000000, 0)

	const total = 50
	ids := make(chan string, total)
	var wg sync.WaitGroup
	for w := 0; w < total; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s, err := st.create(g, 1, fullMask(g.NumNodes()), now)
			if err != nil {
				ids <- fmt.Sprintf("error: %v", err)
				return
			}
			ids <- s.id
		}()
	}
	wg.Wait()
	close(ids)
	seen := map[string]bool{}
	for id := range ids {
		if seen[id] {
			t.Fatalf("duplicate session id %q", id)
		}
		seen[id] = true
	}
}
