package obs

import (
	"fmt"
	"math"
	"strconv"
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
				snap := r.Snapshot()
				// A mid-flight snapshot must still be self-consistent:
				// each histogram's Count is the sum of its buckets, so
				// the rendered _count equals the +Inf bucket and a fleet
				// scrape that parses it accepts the peer.
				ph, ok := snap.Hist("stress_seconds")
				if !ok {
					t.Error("mid-flight snapshot lacks stress_seconds")
					return
				}
				var sb strings.Builder
				if err := snap.WritePrometheus(&sb); err != nil {
					t.Errorf("WritePrometheus: %v", err)
					return
				}
				if _, err := ParsePrometheus(strings.NewReader(sb.String())); err != nil {
					t.Errorf("mid-flight scrape does not parse: %v", err)
					return
				}
				if q := ph.Quantile(0.5); math.IsNaN(q) || q < 0 {
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
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
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

// TestSnapshotRacesRegistration registers a new series on every step
// while another goroutine snapshots: a snapshot must never read a series
// whose counter, gauge or histogram is still being attached (under
// -race the detector sees that; without it, a nil read panics).
func TestSnapshotRacesRegistration(t *testing.T) {
	r := NewRegistry()
	const steps = 2000
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		defer close(done)
		for i := 0; i < steps; i++ {
			l := strconv.Itoa(i)
			r.Counter("late_total", "late counter", "i", l).Inc()
			r.Histogram("late_seconds", "late histogram", []float64{1}, "i", l).Observe(0.5)
			r.Gauge("late_gauge", "late gauge", func() float64 { return 1 }, "i", l)
		}
	}()
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
				r.Snapshot()
			}
		}
	}()
	wg.Wait()
	if got := r.Snapshot().SumSeries("late_total"); got != steps {
		t.Fatalf("late counters sum to %v, want %d", got, steps)
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
