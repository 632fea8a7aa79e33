// Package obs is the service's stdlib-only observability kernel: atomic
// counters and gauges, fixed log-bucket histograms with a Prometheus
// text-exposition writer, solver phase-observer hooks, and request span
// traces with a bounded browsable ring. It deliberately imports nothing
// beyond the standard library so internal/core can depend on it without
// pulling the serving stack into the solver.
package obs

import (
	"fmt"
	"io"
	"math"
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
// observations are lock-free and quantiles come from bucket interpolation
// instead of the lock-and-sort a sample ring needs. Bounds are the
// inclusive upper edges of the finite buckets; one implicit +Inf bucket
// catches the overflow.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1, last = +Inf
	total  atomic.Int64
	sum    atomic.Uint64 // float64 bits, CAS-updated
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
	h.total.Add(1)
	for {
		old := h.sum.Load()
		if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+v)) {
			return
		}
	}
}

// ObserveDuration records a duration in seconds.
func (h *Histogram) ObserveDuration(d time.Duration) { h.Observe(d.Seconds()) }

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.total.Load() }

// Sum returns the sum of all observed values.
func (h *Histogram) Sum() float64 { return math.Float64frombits(h.sum.Load()) }

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the target rank. Estimates are monotone in q.
// With no observations it returns 0; ranks landing in the +Inf bucket
// report the largest finite bound.
func (h *Histogram) Quantile(q float64) float64 {
	counts := make([]int64, len(h.counts))
	for i := range h.counts {
		counts[i] = h.counts[i].Load()
	}
	return quantile(h.bounds, counts, q)
}

// quantile is the one bucket interpolation behind Histogram.Quantile and
// PromHistogram.Quantile. counts holds per-bucket (non-cumulative) counts
// over the finite ascending bounds plus the +Inf bucket last; the total
// is their sum, so one snapshot of counts always yields a consistent
// rank.
func quantile(bounds []float64, counts []int64, q float64) float64 {
	total := int64(0)
	for _, n := range counts {
		total += n
	}
	if total == 0 || len(bounds) == 0 {
		return 0
	}
	rank := q * float64(total)
	cum := int64(0)
	for i, n := range counts {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(bounds) { // +Inf bucket: clamp
				return bounds[len(bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = bounds[i-1]
			}
			hi := bounds[i]
			frac := (rank - float64(cum)) / float64(n)
			if frac < 0 {
				frac = 0
			} else if frac > 1 {
				frac = 1
			}
			return lo + (hi-lo)*frac
		}
		cum += n
	}
	return bounds[len(bounds)-1]
}

// Merge adds o's buckets into h. Both histograms must share the exact
// bucket layout (same bounds, element-wise) — bucket-wise sum is only
// meaningful then, and a mismatch returns an error without touching h.
// Merging preserves quantile monotonicity: every per-bucket count, the
// total, and the sum grow by o's non-negative contributions, so the
// cumulative distribution of the merged histogram dominates both
// inputs' and Quantile stays monotone in q. Safe for concurrent use
// with Observe on h; o should be quiescent (a scraped snapshot) or the
// copy is merely racy-but-consistent per bucket.
func (h *Histogram) Merge(o *Histogram) error {
	if o == nil {
		return nil
	}
	if len(h.bounds) != len(o.bounds) {
		return fmt.Errorf("obs: histogram merge: %d buckets vs %d", len(h.bounds), len(o.bounds))
	}
	for i := range h.bounds {
		if h.bounds[i] != o.bounds[i] {
			return fmt.Errorf("obs: histogram merge: bound %d differs (%v vs %v)", i, h.bounds[i], o.bounds[i])
		}
	}
	for i := range o.counts {
		if n := o.counts[i].Load(); n > 0 {
			h.counts[i].Add(n)
		}
	}
	if n := o.total.Load(); n > 0 {
		h.total.Add(n)
	}
	if s := o.Sum(); s != 0 {
		for {
			old := h.sum.Load()
			if h.sum.CompareAndSwap(old, math.Float64bits(math.Float64frombits(old)+s)) {
				break
			}
		}
	}
	return nil
}

// metricKind tags a registered series for the exposition writer.
type metricKind int

const (
	kindCounter metricKind = iota
	kindGauge
	kindHistogram
)

func (k metricKind) String() string {
	switch k {
	case kindCounter:
		return "counter"
	case kindGauge:
		return "gauge"
	default:
		return "histogram"
	}
}

// metric is one registered series: a (name, labels) pair plus its data.
type metric struct {
	name   string
	help   string
	kind   metricKind
	labels string // pre-rendered `k="v",…` or ""
	c      *Counter
	g      func() float64
	h      *Histogram
}

// Registry holds named metrics and renders them in Prometheus text
// exposition format. Registration takes a lock; the returned Counter and
// Histogram handles are lock-free to use.
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

func (r *Registry) register(name, help string, kind metricKind, labels []string) *metric {
	ls := renderLabels(labels)
	key := name + "{" + ls + "}"
	r.mu.Lock()
	defer r.mu.Unlock()
	if m, ok := r.byKey[key]; ok {
		if m.kind != kind {
			panic(fmt.Sprintf("obs: metric %s re-registered as a different kind", key))
		}
		return m
	}
	m := &metric{name: name, help: help, kind: kind, labels: ls}
	r.byKey[key] = m
	r.order = append(r.order, m)
	return m
}

// Counter registers (or returns the existing) counter series. Optional
// labels are pairwise key, value arguments.
func (r *Registry) Counter(name, help string, labels ...string) *Counter {
	m := r.register(name, help, kindCounter, labels)
	if m.c == nil {
		m.c = &Counter{}
	}
	return m.c
}

// Gauge registers a gauge series read through fn at exposition time.
func (r *Registry) Gauge(name, help string, fn func() float64, labels ...string) {
	m := r.register(name, help, kindGauge, labels)
	m.g = fn
}

// Histogram registers (or returns the existing) histogram series over the
// given bucket bounds.
func (r *Registry) Histogram(name, help string, bounds []float64, labels ...string) *Histogram {
	m := r.register(name, help, kindHistogram, labels)
	if m.h == nil {
		m.h = NewHistogram(bounds)
	}
	return m.h
}

// WritePrometheus renders every registered series in text exposition
// format (version 0.0.4): one # HELP / # TYPE header per metric name,
// then the series in registration order; histograms expand into
// cumulative _bucket{le=…} series plus _sum and _count, with _count
// equal to the +Inf bucket even under concurrent observations.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	ms := append([]*metric(nil), r.order...)
	r.mu.Unlock()

	seen := make(map[string]bool, len(ms))
	var sb strings.Builder
	for _, m := range ms {
		if !seen[m.name] {
			seen[m.name] = true
			fmt.Fprintf(&sb, "# HELP %s %s\n", m.name, m.help)
			fmt.Fprintf(&sb, "# TYPE %s %s\n", m.name, m.kind)
		}
		switch m.kind {
		case kindCounter:
			fmt.Fprintf(&sb, "%s %d\n", seriesName(m.name, m.labels), m.c.Value())
		case kindGauge:
			fmt.Fprintf(&sb, "%s %s\n", seriesName(m.name, m.labels), formatFloat(m.g()))
		case kindHistogram:
			cum := int64(0)
			for i, bound := range m.h.bounds {
				cum += m.h.counts[i].Load()
				fmt.Fprintf(&sb, "%s %d\n",
					seriesName(m.name+"_bucket", withLabel(m.labels, "le", formatFloat(bound))), cum)
			}
			cum += m.h.counts[len(m.h.bounds)].Load()
			fmt.Fprintf(&sb, "%s %d\n",
				seriesName(m.name+"_bucket", withLabel(m.labels, "le", "+Inf")), cum)
			fmt.Fprintf(&sb, "%s %s\n", seriesName(m.name+"_sum", m.labels), formatFloat(m.h.Sum()))
			// _count is the +Inf bucket of the same read, not the live
			// total: an Observe racing this scrape must not leave the
			// two disagreeing.
			fmt.Fprintf(&sb, "%s %d\n", seriesName(m.name+"_count", m.labels), cum)
		}
	}
	_, err := io.WriteString(w, sb.String())
	return err
}

func seriesName(name, labels string) string {
	if labels == "" {
		return name
	}
	return name + "{" + labels + "}"
}

func withLabel(labels, k, v string) string {
	extra := fmt.Sprintf("%s=%q", k, v)
	if labels == "" {
		return extra
	}
	return labels + "," + extra
}

// formatFloat renders a float the way Prometheus clients expect: shortest
// exact decimal form, with +Inf/-Inf/NaN spelled out.
func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strings.TrimRight(strings.TrimRight(fmt.Sprintf("%f", v), "0"), ".")
}
