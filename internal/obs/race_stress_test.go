package obs

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"
)

// TestMetricsConcurrentStress hammers one Registry from every direction
// the service does in production — histogram observations, counter
// bumps, late registrations, Prometheus scrapes, and quantile reads — all
// concurrently. Run under -race this pins the lock-free CAS paths in
// Histogram and the registry's internal locking; without -race it still
// checks the count/sum bookkeeping survives contention.
func TestMetricsConcurrentStress(t *testing.T) {
	r := NewRegistry()
	bounds := []float64{0.001, 0.01, 0.1, 1, 10}
	h := r.Histogram("stress_seconds", "stress latencies", bounds)
	c := r.Counter("stress_total", "stress events")
	r.Gauge("stress_depth", "constant gauge", func() float64 { return 42 })

	const (
		writers   = 8
		perWriter = 2000
		scrapers  = 4
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				h.Observe(float64(i%100) / 50.0)
				c.Add(1)
				// Labeled series registered mid-flight race the scrapes.
				r.Counter("stress_labeled_total", "labeled stress events",
					"writer", []string{"a", "b", "c"}[w%3]).Add(1)
			}
		}(w)
	}
	for s := 0; s < scrapers; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				var sb strings.Builder
				if err := r.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				// A mid-flight scrape must still be self-consistent
				// (each histogram's _count equals its +Inf bucket), or
				// a fleet scrape that parses it rejects the peer.
				if _, err := ParsePrometheus(strings.NewReader(sb.String())); err != nil {
					t.Errorf("mid-flight scrape does not parse: %v", err)
					return
				}
				if q := h.Quantile(0.5); math.IsNaN(q) || q < 0 {
					t.Errorf("mid-flight Quantile(0.5) = %v", q)
					return
				}
				_ = h.Count()
				_ = h.Sum()
			}
		}()
	}
	wg.Wait()

	if got, want := h.Count(), int64(writers*perWriter); got != want {
		t.Errorf("histogram count = %d, want %d", got, want)
	}
	if got, want := c.Value(), int64(writers*perWriter); got != want {
		t.Errorf("counter = %d, want %d", got, want)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatalf("final WritePrometheus: %v", err)
	}
	for _, series := range []string{
		"stress_seconds_count 16000",
		"stress_total 16000",
		"stress_depth 42",
	} {
		if !strings.Contains(sb.String(), series) {
			t.Errorf("final exposition missing %q:\n%s", series, sb.String())
		}
	}
}

// TestRingConcurrentStress exercises the trace ring the way the service
// middleware and the /debug/trace endpoints do: many request goroutines
// appending finished traces while readers list and fetch them.
func TestRingConcurrentStress(t *testing.T) {
	ring := NewRing(32)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				tr := NewTrace(fmt.Sprintf("t%d-%d", w, i), "request")
				sp := tr.StartSpan(nil, "solve")
				sp.End()
				ring.Add(tr)
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 1000; i++ {
			for _, s := range ring.List() {
				if _, ok := ring.Get(s.ID); !ok {
					// Eviction between List and Get is legal; absence is
					// fine, only races and torn reads are not.
					continue
				}
			}
			_ = ring.Len()
		}
	}()
	wg.Wait()
	if got := ring.Len(); got != 32 {
		t.Errorf("ring length = %d, want full capacity 32", got)
	}
}
