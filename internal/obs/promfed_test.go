package obs

import (
	"math"
	"slices"
	"strings"
	"testing"
)

// registryText renders a small registry with one of each metric kind.
func registryText(t *testing.T, scale int64) string {
	t.Helper()
	r := NewRegistry()
	c := r.Counter("ft_solves_total", "solves", "endpoint", "/v1/solve")
	c.Add(3 * scale)
	r.Counter("ft_plain_total", "plain").Add(scale)
	r.Gauge("ft_peers", "peers", func() float64 { return float64(2 * scale) })
	h := r.Histogram("ft_dur_seconds", "dur", []float64{0.001, 0.01, 0.1})
	for i := int64(0); i < scale; i++ {
		h.Observe(0.005)
		h.Observe(5) // +Inf
	}
	var sb strings.Builder
	if err := r.Snapshot().WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	return sb.String()
}

func TestParsePrometheusRoundTrip(t *testing.T) {
	text := registryText(t, 2)
	snap, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if v, ok := snap.Value("ft_solves_total", "endpoint", "/v1/solve"); !ok || v != 6 {
		t.Fatalf("counter = %v ok=%v, want 6", v, ok)
	}
	if v, ok := snap.Value("ft_plain_total"); !ok || v != 2 {
		t.Fatalf("unlabeled counter = %v ok=%v, want 2", v, ok)
	}
	if v, ok := snap.Value("ft_peers"); !ok || v != 4 {
		t.Fatalf("gauge = %v ok=%v, want 4", v, ok)
	}
	h, ok := snap.Hist("ft_dur_seconds")
	if !ok {
		t.Fatal("histogram missing")
	}
	if h.Count != 4 || len(h.Bounds) != 3 || len(h.Buckets) != 4 {
		t.Fatalf("histogram shape: %+v", h)
	}
	if h.Buckets[1] != 2 || h.Buckets[3] != 2 {
		t.Fatalf("de-cumulated buckets wrong: %+v", h.Buckets)
	}

	// Re-render and re-parse: stable.
	var sb strings.Builder
	if err := snap.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	again, err := ParsePrometheus(strings.NewReader(sb.String()))
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if v, _ := again.Value("ft_solves_total", "endpoint", "/v1/solve"); v != 6 {
		t.Fatalf("reparse counter = %v", v)
	}
	h2, _ := again.Hist("ft_dur_seconds")
	if h2 == nil || h2.Count != 4 || h2.Sum != h.Sum {
		t.Fatalf("reparse histogram: %+v", h2)
	}
}

// A histogram read from a scraped exposition equals the node's own
// snapshot exactly: Snapshot → WritePrometheus → ParsePrometheus must
// reproduce the bounds, buckets, count and sum bit for bit (so every
// quantile too).
func TestQuantileRoundTripThroughExposition(t *testing.T) {
	durations := make([]float64, 1000)
	for i := range durations {
		// 100 µs to ~750 s: spans every duration bucket and overflows.
		durations[i] = 1e-4 * math.Pow(2, float64(i%230)/10)
	}
	cases := []struct {
		name   string
		bounds []float64
		obs    []float64
	}{
		{"empty", []float64{1, 2, 4}, nil},
		{"single-bucket", []float64{1}, []float64{0.25, 0.5, 0.5, 1}},
		{"overflow", []float64{1, 2, 4}, []float64{0.5, 3, 10, 100, 1e6}},
		{"durations", DurationBuckets(), durations},
	}
	for _, tc := range cases {
		reg := NewRegistry()
		h := reg.Histogram("ft_rt_seconds", "round trip", tc.bounds)
		for _, v := range tc.obs {
			h.Observe(v)
		}
		local := reg.Snapshot()
		lh, _ := local.Hist("ft_rt_seconds")
		var sb strings.Builder
		if err := local.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		snap, err := ParsePrometheus(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatalf("%s: parse: %v", tc.name, err)
		}
		ph, ok := snap.Hist("ft_rt_seconds")
		if !ok || ph.Count != lh.Count || ph.Count != h.Count() ||
			!slices.Equal(ph.Bounds, lh.Bounds) || !slices.Equal(ph.Buckets, lh.Buckets) ||
			ph.Sum != lh.Sum {
			t.Fatalf("%s: parsed histogram %+v, want %+v", tc.name, ph, lh)
		}
		for _, q := range []float64{0, 0.25, 0.5, 0.9, 0.99, 1} {
			if got, want := ph.Quantile(q), lh.Quantile(q); got != want {
				t.Errorf("%s: q=%v scraped %v, local %v", tc.name, q, got, want)
			}
		}
	}
}

func TestMergePrometheusSumsPeers(t *testing.T) {
	agg := NewPromSnapshot()
	for _, scale := range []int64{1, 2, 4} {
		snap, err := ParsePrometheus(strings.NewReader(registryText(t, scale)))
		if err != nil {
			t.Fatal(err)
		}
		if err := MergePrometheus(agg, snap); err != nil {
			t.Fatalf("merge scale %d: %v", scale, err)
		}
	}
	if v, _ := agg.Value("ft_solves_total", "endpoint", "/v1/solve"); v != 21 {
		t.Fatalf("merged counter = %v, want 21", v)
	}
	if v, _ := agg.Value("ft_peers"); v != 14 {
		t.Fatalf("merged gauge = %v, want 14", v)
	}
	h, _ := agg.Hist("ft_dur_seconds")
	if h == nil || h.Count != 14 {
		t.Fatalf("merged histogram: %+v", h)
	}
	if h.Buckets[1] != 7 || h.Buckets[3] != 7 {
		t.Fatalf("merged buckets: %+v", h.Buckets)
	}
	if math.Abs(h.Sum-35.035) > 1e-9 { // 7 × (0.005 + 5)
		t.Fatalf("merged sum = %v, want 35.035", h.Sum)
	}
	// Quantile well-defined on the merged result: monotone in q, and
	// ranks in the +Inf bucket clamp to the top finite bound.
	if q := h.Quantile(0.25); q <= 0 || q > 0.01 {
		t.Fatalf("merged p25 = %v", q)
	}
	prev := -1.0
	for q := 0.0; q <= 1.0; q += 0.05 {
		v := h.Quantile(q)
		if v < prev {
			t.Fatalf("merged quantiles not monotone: q=%v gives %v < %v", q, v, prev)
		}
		prev = v
	}
	if q := h.Quantile(0.99); q != 0.1 {
		t.Fatalf("merged p99 = %v, want clamp to 0.1", q)
	}
	if err := MergePrometheus(agg, nil); err != nil {
		t.Fatalf("nil merge: %v", err)
	}

	// Rendered aggregate has monotone cumulative buckets.
	var sb strings.Builder
	if err := agg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	if _, err := ParsePrometheus(strings.NewReader(sb.String())); err != nil {
		t.Fatalf("aggregate does not reparse: %v", err)
	}
}

func TestMergePrometheusRejectsLayoutMismatch(t *testing.T) {
	mk := func(bounds []float64) *PromSnapshot {
		r := NewRegistry()
		r.Histogram("ft_dur_seconds", "dur", bounds).Observe(0.5)
		var sb strings.Builder
		if err := r.Snapshot().WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		snap, err := ParsePrometheus(strings.NewReader(sb.String()))
		if err != nil {
			t.Fatal(err)
		}
		return snap
	}
	agg := NewPromSnapshot()
	if err := MergePrometheus(agg, mk([]float64{1, 2})); err != nil {
		t.Fatal(err)
	}
	if err := MergePrometheus(agg, mk([]float64{1, 4})); err == nil {
		t.Fatal("merge accepted mismatched bucket layout")
	}
	// All-or-nothing: the failed merge left the aggregate untouched.
	h, _ := agg.Hist("ft_dur_seconds")
	if h == nil || h.Count != 1 {
		t.Fatalf("failed merge mutated aggregate: %+v", h)
	}
}

func TestParsePrometheusRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"no value":       "ft_x_total\n",
		"bad value":      "ft_x_total abc\n",
		"bad labels":     "ft_x_total{endpoint=\"/v1\" 3\n",
		"decreasing cum": "# TYPE ft_d_seconds histogram\nft_d_seconds_bucket{le=\"1\"} 5\nft_d_seconds_bucket{le=\"+Inf\"} 3\nft_d_seconds_sum 1\nft_d_seconds_count 3\n",
		"missing inf":    "# TYPE ft_d_seconds histogram\nft_d_seconds_bucket{le=\"1\"} 5\nft_d_seconds_sum 1\nft_d_seconds_count 5\n",
		"count mismatch": "# TYPE ft_d_seconds histogram\nft_d_seconds_bucket{le=\"1\"} 5\nft_d_seconds_bucket{le=\"+Inf\"} 5\nft_d_seconds_sum 1\nft_d_seconds_count 9\n",
		"bad type":       "# TYPE ft_x summary\n",
	}
	for label, text := range cases {
		if _, err := ParsePrometheus(strings.NewReader(text)); err == nil {
			t.Errorf("%s: parse accepted malformed exposition", label)
		}
	}
}

func TestParsePrometheusSumSeries(t *testing.T) {
	text := "# TYPE ft_http_total counter\n" +
		"ft_http_total{endpoint=\"/a\"} 3\n" +
		"ft_http_total{endpoint=\"/b\"} 4\n"
	snap, err := ParsePrometheus(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	if got := snap.SumSeries("ft_http_total"); got != 7 {
		t.Fatalf("SumSeries = %v, want 7", got)
	}
	// Label order canonicalization: both orders hit the same series.
	text2 := "ft_y{b=\"2\",a=\"1\"} 5\nft_y{a=\"1\",b=\"2\"} 5\n"
	snap2, err := ParsePrometheus(strings.NewReader(text2))
	if err != nil {
		t.Fatal(err)
	}
	f, _ := snap2.Family("ft_y")
	if len(f.series) != 1 {
		t.Fatalf("label orders not canonicalized: %d series", len(f.series))
	}
}
