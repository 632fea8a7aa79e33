// Package obs is the service's stdlib-only observability kernel: atomic
// counters and gauges, fixed log-bucket histograms, one metrics model
// (PromSnapshot: a registry's Snapshot, a parsed peer scrape or a merged
// fleet view, all rendered by one Prometheus text writer), solver
// phase-observer hooks, and request span traces with a bounded
// browsable ring. It deliberately imports nothing beyond the standard
// library so internal/core can depend on it without pulling the serving
// stack into the solver.
package obs

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing atomic counter.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by delta (delta < 0 is a programming error
// and is ignored).
func (c *Counter) Add(delta int64) {
	if delta > 0 {
		c.v.Add(delta)
	}
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.v.Add(1) }

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Histogram is a fixed-bucket histogram with atomic per-bucket counters:
// observations are lock-free, and quantiles come from interpolating a
// snapshot of the buckets (PromHistogram.Quantile) instead of the
// lock-and-sort a sample ring needs. Bounds are the inclusive upper
// edges of the finite buckets; one implicit +Inf bucket catches the
// overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	sum    atomic.Uint64  // float64 bits, CAS-updated
}

// NewHistogram builds a histogram over the given ascending finite bounds.
func NewHistogram(bounds []float64) *Histogram {
	if len(bounds) == 0 {
		panic("obs: histogram needs at least one bucket bound")
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly ascending")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// ExponentialBuckets returns n bounds start, start·factor, start·factor².
func ExponentialBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// DurationBuckets are the shared latency bounds in seconds: 100 µs to
// ~210 s in factor-2 steps, covering sub-millisecond cache hits through
// the 60 s default solve deadline with headroom.
func DurationBuckets() []float64 { return ExponentialBuckets(1e-4, 2, 22) }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations: a snapshot's Count, the sum
// of the buckets.
func (h *Histogram) Count() int64 { return h.snapshot().Count }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// snapshot reads every bucket once. Count is the sum of the buckets
// read, so _count equals the +Inf bucket even while Observe runs
// concurrently.
func (h *Histogram) snapshot() *PromHistogram {
	ph := &PromHistogram{
		Bounds:  slices.Clone(h.bounds),
		Buckets: make([]int64, len(h.counts)),
		Sum:     h.Sum(),
	}
	for i := range h.counts {
		ph.Buckets[i] = h.counts[i].Load()
		ph.Count += ph.Buckets[i]
	}
	return ph
}

// Metric kinds, spelled as the exposition's # TYPE line spells them.
const (
	kindCounter   = "counter"
	kindGauge     = "gauge"
	kindHistogram = "histogram"
)

// metric is one registered series: a (name, labels) pair plus its data.
type metric struct {
	name   string
	help   string
	kind   string
	labels string // canonical `k="v",…` (keys sorted) or ""
	c      *Counter
	g      func() float64
	h      *Histogram
}

// Registry holds named metrics; Snapshot reads them into the
// PromSnapshot that /metrics renders. Registration takes a lock; the
// returned Counter and Histogram handles are lock-free to use.
type Registry struct {
	mu    sync.Mutex
	order []*metric
	byKey map[string]*metric
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry { return &Registry{byKey: make(map[string]*metric)} }

// renderLabels turns pairwise k, v arguments into `k="v",…`.
func renderLabels(pairs []string) string {
	if len(pairs) == 0 {
		return ""
	}
	if len(pairs)%2 != 0 {
		panic("obs: label arguments must come in key, value pairs")
	}
	var sb strings.Builder
	for i := 0; i < len(pairs); i += 2 {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", pairs[i], pairs[i+1])
	}
	return sb.String()
}

// register publishes m under (m.name, labels), or returns the series
// already there. m is complete before it is published, so a concurrent
// Snapshot never reads a half-built series.
func (r *Registry) register(m *metric, labels []string) *metric {
	m.labels = canonicalLabels(renderLabels(labels))
	key := m.name + "{" + m.labels + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if old, ok := r.byKey[key]; ok {
		if old.kind != m.kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different kind", key))
		}
		return old
	}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns the existing) counter series. Optional
// labels are pairwise key, value arguments.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	return r.register(&metric{name: name, help: help, kind: kindCounter, c: &Counter{}}, labels).c
}

// Gauge registers a gauge series read through fn at snapshot time;
// re-registering an existing series keeps its first fn.
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...string) {
	r.register(&metric{name: name, help: help, kind: kindGauge, g: fn}, labels)
}

// Histogram registers (or returns the existing) histogram series over the
// given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	return r.register(&metric{name: name, help: help, kind: kindHistogram, h: NewHistogram(bounds)}, labels).h
}

// Snapshot reads every registered series once: families in
// first-registration order under their first registration's HELP text
// and kind, series in registration order.
func (r *Registry) Snapshot() *PromSnapshot {
	r.mu.Lock()
	ms := slices.Clone(r.order)
	r.mu.Unlock()

	s := NewPromSnapshot()
	for _, m := range ms {
		f := s.family(m.name)
		if len(f.series) == 0 {
			f.Help, f.Kind = m.help, m.kind
		}
		sr := f.seriesFor(m.labels)
		switch m.kind {
		case kindCounter:
			sr.Value = float64(m.c.Value())
		case kindGauge:
			sr.Value = m.g()
		default:
			sr.Hist = m.h.snapshot()
		}
	}
	return s
}
