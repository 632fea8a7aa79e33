package obs

import (
	"strings"
	"testing"
	"time"
)

func TestCounter(t *testing.T) {
	var c Counter
	c.Inc()
	c.Add(41)
	c.Add(-5) // ignored: counters are monotone
	if got := c.Value(); got != 42 {
		t.Fatalf("counter = %d, want 42", got)
	}
}

func TestHistogramQuantilesMonotone(t *testing.T) {
	h := NewHistogram(DurationBuckets())
	for i := 1; i <= 1000; i++ {
		h.Observe(float64(i) * 1e-4) // 0.1ms … 100ms
	}
	if h.Count() != 1000 {
		t.Fatalf("count = %d", h.Count())
	}
	snap := h.snapshot()
	p50, p90, p99 := snap.Quantile(0.50), snap.Quantile(0.90), snap.Quantile(0.99)
	if !(p50 <= p90 && p90 <= p99) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v", p50, p90, p99)
	}
	// The true p50 is 50ms; factor-2 buckets with interpolation must land
	// within the bucket [32.77ms, 65.54ms].
	if p50 < 0.0327 || p50 > 0.0656 {
		t.Errorf("p50 = %v, want within the bucket around 0.05", p50)
	}
	sum := h.Sum()
	if sum < 50.0 || sum > 50.1 { // Σ i·1e-4 = 50.05
		t.Errorf("sum = %v, want ≈50.05", sum)
	}
}

func TestHistogramEmptyAndOverflow(t *testing.T) {
	h := NewHistogram([]float64{1, 2, 4})
	if q := h.snapshot().Quantile(0.99); q != 0 {
		t.Fatalf("empty histogram quantile = %v, want 0", q)
	}
	h.Observe(1000) // +Inf bucket
	if q := h.snapshot().Quantile(0.5); q != 4 {
		t.Fatalf("overflow quantile = %v, want clamp to 4", q)
	}
}

func TestRegistryPrometheusExposition(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ft_requests_total", "requests served", "endpoint", "/v1/solve")
	c.Add(3)
	r.Gauge("ft_queue_depth", "queued jobs", func() float64 { return 7 })
	h := r.Histogram("ft_latency_seconds", "latency", []float64{0.001, 0.01, 0.1}, "endpoint", "/v1/solve")
	h.Observe(0.005)
	h.Observe(0.005)
	h.Observe(5) // overflow

	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# HELP ft_requests_total requests served",
		"# TYPE ft_requests_total counter",
		`ft_requests_total{endpoint="/v1/solve"} 3`,
		"# TYPE ft_queue_depth gauge",
		"ft_queue_depth 7",
		"# TYPE ft_latency_seconds histogram",
		`ft_latency_seconds_bucket{endpoint="/v1/solve",le="0.001"} 0`,
		`ft_latency_seconds_bucket{endpoint="/v1/solve",le="0.01"} 2`,
		`ft_latency_seconds_bucket{endpoint="/v1/solve",le="0.1"} 2`,
		`ft_latency_seconds_bucket{endpoint="/v1/solve",le="+Inf"} 3`,
		`ft_latency_seconds_sum{endpoint="/v1/solve"} 5.01`,
		`ft_latency_seconds_count{endpoint="/v1/solve"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q:\n%s", want, out)
		}
	}
}

func TestRegistryDedupAndHeaderOnce(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("ft_x_total", "x", "l", "1")
	b := r.Counter("ft_x_total", "x", "l", "2")
	if a == b {
		t.Fatal("different label sets must be distinct series")
	}
	if again := r.Counter("ft_x_total", "x", "l", "1"); again != a {
		t.Fatal("same name+labels must return the same counter")
	}
	a.Inc()
	b.Add(2)
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	if strings.Count(out, "# TYPE ft_x_total counter") != 1 {
		t.Errorf("TYPE header must appear once per metric name:\n%s", out)
	}
	if !strings.Contains(out, `ft_x_total{l="1"} 1`) || !strings.Contains(out, `ft_x_total{l="2"} 2`) {
		t.Errorf("label series missing:\n%s", out)
	}
}

func TestHistogramBucketMonotonicityInExposition(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("ft_d_seconds", "d", DurationBuckets())
	for _, d := range []time.Duration{time.Millisecond, 40 * time.Millisecond, 2 * time.Second, 500 * time.Second} {
		h.ObserveDuration(d)
	}
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	n := 0
	for _, line := range strings.Split(sb.String(), "\n") {
		if !strings.HasPrefix(line, "ft_d_seconds_bucket") {
			continue
		}
		n++
		var v int64
		if _, err := fmtSscan(line, &v); err != nil {
			t.Fatalf("parse %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("bucket counts must be cumulative non-decreasing: %q after %d", line, prev)
		}
		prev = v
	}
	if n != len(DurationBuckets())+1 {
		t.Fatalf("bucket lines = %d, want %d", n, len(DurationBuckets())+1)
	}
	if prev != 4 {
		t.Fatalf("+Inf bucket = %d, want 4", prev)
	}
}

// fmtSscan pulls the trailing integer value off an exposition line.
func fmtSscan(line string, v *int64) (int, error) {
	i := strings.LastIndexByte(line, ' ')
	var err error
	*v, err = parseInt(line[i+1:])
	if err != nil {
		return 0, err
	}
	return 1, nil
}

func parseInt(s string) (int64, error) {
	var v int64
	for _, c := range s {
		if c < '0' || c > '9' {
			return 0, errBadInt
		}
		v = v*10 + int64(c-'0')
	}
	return v, nil
}

var errBadInt = &badInt{}

type badInt struct{}

func (*badInt) Error() string { return "not an integer" }

func TestAllocCounter(t *testing.T) {
	a := NewAllocCounter()
	before := a.Count()
	sink := make([][]byte, 0, 1000)
	for i := 0; i < 1000; i++ {
		sink = append(sink, make([]byte, 16))
	}
	_ = sink
	if after := a.Count(); after <= before {
		t.Errorf("alloc counter did not advance: %d -> %d", before, after)
	}
}
