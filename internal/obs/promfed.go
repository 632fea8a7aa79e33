package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
)

// The one metrics model. A PromSnapshot is what Registry.Snapshot reads
// from this node, what ParsePrometheus reads from a peer's /metrics,
// and what MergePrometheus folds peers into for the fleet view (counters
// and gauges sum; histograms sum bucket-wise when the layouts match);
// WritePrometheus renders all three. The parser reads the 0.0.4 text
// format as *this repo emits it* — HELP/TYPE headers, optional `k="v"`
// labels with Go quoting, integer counters, formatFloat floats,
// cumulative histogram buckets — not a general OpenMetrics parser.
// Unknown or malformed constructs are errors, and the fleet endpoint
// treats a peer that fails to parse as a scrape error, not a 500.

// Parse safety bounds: a hostile or corrupt peer body is rejected
// instead of ballooning the aggregating node's memory.
const (
	maxPromSeries  = 8192
	maxPromLineLen = 16 << 10
)

// PromSnapshot is one metrics exposition: a registry snapshot, a parsed
// scrape, or a merge of several.
type PromSnapshot struct {
	families []*PromFamily
	byName   map[string]*PromFamily
}

// PromFamily groups every series sharing a metric name.
type PromFamily struct {
	Name   string
	Help   string
	Kind   string // "counter", "gauge", "histogram", or "untyped"
	series []*PromSeries
	byKey  map[string]*PromSeries
}

// PromSeries is one labeled sample. Histogram series hold their bucket
// layout in Hist (with the le label stripped from Labels); scalar
// series hold Value.
type PromSeries struct {
	Labels string // canonical sorted `k="v",…` form, "" when unlabeled
	Value  float64
	Hist   *PromHistogram
}

// PromHistogram is a histogram read once: finite ascending upper bounds
// plus per-bucket (non-cumulative) counts, with the +Inf bucket last in
// Buckets, mirroring the layout of obs.Histogram. Count is the sum of
// Buckets.
type PromHistogram struct {
	Bounds  []float64 // finite upper edges, ascending
	Buckets []int64   // len(Bounds)+1, last = +Inf
	Count   int64
	Sum     float64
}

// Quantile estimates the q-quantile (0 ≤ q ≤ 1) by linear interpolation
// inside the bucket holding the target rank q·Count; it is the one
// bucket interpolation, for a node's own snapshot and a fleet merge
// alike. Estimates are monotone in q. With no observations it returns
// 0; ranks landing in the +Inf bucket report the largest finite bound.
func (h *PromHistogram) Quantile(q float64) float64 {
	if h == nil || h.Count == 0 || len(h.Bounds) == 0 {
		return 0
	}
	rank := q * float64(h.Count)
	cum := int64(0)
	for i, n := range h.Buckets {
		if n == 0 {
			continue
		}
		if float64(cum+n) >= rank {
			if i == len(h.Bounds) { // +Inf bucket: clamp
				return h.Bounds[len(h.Bounds)-1]
			}
			lo := 0.0
			if i > 0 {
				lo = h.Bounds[i-1]
			}
			hi := h.Bounds[i]
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
	return h.Bounds[len(h.Bounds)-1]
}

// Family returns the named family, if present.
func (s *PromSnapshot) Family(name string) (*PromFamily, bool) {
	if s == nil {
		return nil, false
	}
	f, ok := s.byName[name]
	return f, ok
}

// Value returns the scalar sample of the series with the given name and
// pairwise label arguments, if present.
func (s *PromSnapshot) Value(name string, labels ...string) (float64, bool) {
	f, ok := s.Family(name)
	if !ok {
		return 0, false
	}
	sr, ok := f.byKey[canonicalLabels(renderLabels(labels))]
	if !ok || sr.Hist != nil {
		return 0, false
	}
	return sr.Value, true
}

// SumSeries returns the sum of every scalar series in the named family
// — e.g. http requests across all endpoint labels.
func (s *PromSnapshot) SumSeries(name string) float64 {
	f, ok := s.Family(name)
	if !ok {
		return 0
	}
	total := 0.0
	for _, sr := range f.series {
		if sr.Hist == nil {
			total += sr.Value
		}
	}
	return total
}

// Hist returns the histogram of the series with the given name and
// pairwise label arguments, if present.
func (s *PromSnapshot) Hist(name string, labels ...string) (*PromHistogram, bool) {
	f, ok := s.Family(name)
	if !ok {
		return nil, false
	}
	sr, ok := f.byKey[canonicalLabels(renderLabels(labels))]
	if !ok || sr.Hist == nil {
		return nil, false
	}
	return sr.Hist, true
}

func (s *PromSnapshot) family(name string) *PromFamily {
	if f, ok := s.byName[name]; ok {
		return f
	}
	f := &PromFamily{Name: name, Kind: "untyped", byKey: make(map[string]*PromSeries)}
	s.byName[name] = f
	s.families = append(s.families, f)
	return f
}

func (f *PromFamily) seriesFor(labels string) *PromSeries {
	if sr, ok := f.byKey[labels]; ok {
		return sr
	}
	sr := &PromSeries{Labels: labels}
	f.byKey[labels] = sr
	f.series = append(f.series, sr)
	return sr
}

// histAssembly accumulates one histogram's _bucket/_sum/_count lines
// until the whole exposition is parsed.
type histAssembly struct {
	bounds []float64 // per-line le values, +Inf included, in arrival order
	cum    []int64   // cumulative counts, parallel to bounds
	sum    float64
	count  int64
}

// ParsePrometheus parses one exposition body.
func ParsePrometheus(r io.Reader) (*PromSnapshot, error) {
	snap := NewPromSnapshot()
	hists := make(map[string]map[string]*histAssembly) // base name → labels → assembly
	histOrder := make(map[string][]string)             // base name → label arrival order
	nSeries := 0

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 4096), maxPromLineLen)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if err := snap.parseComment(line); err != nil {
				return nil, fmt.Errorf("obs: prom line %d: %w", lineNo, err)
			}
			continue
		}
		nSeries++
		if nSeries > maxPromSeries {
			return nil, fmt.Errorf("obs: prom exposition exceeds %d series", maxPromSeries)
		}
		name, labels, value, err := parsePromSample(line)
		if err != nil {
			return nil, fmt.Errorf("obs: prom line %d: %w", lineNo, err)
		}
		if base, part, ok := histSeriesBase(snap, name); ok {
			byLabels, ok := hists[base]
			if !ok {
				byLabels = make(map[string]*histAssembly)
				hists[base] = byLabels
			}
			key, le, err := splitLeLabel(labels, part == "bucket")
			if err != nil {
				return nil, fmt.Errorf("obs: prom line %d: %w", lineNo, err)
			}
			asm, ok := byLabels[key]
			if !ok {
				asm = &histAssembly{}
				byLabels[key] = asm
				histOrder[base] = append(histOrder[base], key)
			}
			switch part {
			case "bucket":
				asm.bounds = append(asm.bounds, le)
				asm.cum = append(asm.cum, int64(value))
			case "sum":
				asm.sum = value
			case "count":
				asm.count = int64(value)
			}
			continue
		}
		sr := snap.family(name).seriesFor(labels)
		sr.Value = value
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("obs: reading prom exposition: %w", err)
	}

	// Assemble histograms: validate bucket order, de-cumulate counts.
	baseNames := make([]string, 0, len(hists))
	for base := range hists {
		baseNames = append(baseNames, base)
	}
	sort.Strings(baseNames)
	for _, base := range baseNames {
		fam := snap.family(base)
		for _, key := range histOrder[base] {
			h, err := hists[base][key].build()
			if err != nil {
				return nil, fmt.Errorf("obs: prom histogram %s{%s}: %w", base, key, err)
			}
			fam.seriesFor(key).Hist = h
		}
	}
	return snap, nil
}

// parseComment handles # HELP / # TYPE lines (other comments ignored).
func (s *PromSnapshot) parseComment(line string) error {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 {
		return nil
	}
	switch fields[1] {
	case "HELP":
		f := s.family(fields[2])
		if len(fields) == 4 {
			f.Help = fields[3]
		}
	case "TYPE":
		if len(fields) < 4 {
			return fmt.Errorf("malformed TYPE comment %q", line)
		}
		kind := strings.TrimSpace(fields[3])
		switch kind {
		case "counter", "gauge", "histogram", "untyped":
			s.family(fields[2]).Kind = kind
		default:
			return fmt.Errorf("unsupported metric type %q", kind)
		}
	}
	return nil
}

// parsePromSample splits `name{labels} value` (labels optional) into
// its parts, canonicalizing label order.
func parsePromSample(line string) (name, labels string, value float64, err error) {
	rest := line
	if i := strings.IndexByte(rest, '{'); i >= 0 {
		name = rest[:i]
		j := strings.LastIndexByte(rest, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unterminated labels in %q", line)
		}
		labels = canonicalLabels(rest[i+1 : j])
		rest = strings.TrimSpace(rest[j+1:])
	} else {
		i = strings.IndexByte(rest, ' ')
		if i < 0 {
			return "", "", 0, fmt.Errorf("sample %q has no value", line)
		}
		name = rest[:i]
		rest = strings.TrimSpace(rest[i+1:])
	}
	if name == "" {
		return "", "", 0, fmt.Errorf("sample %q has no metric name", line)
	}
	// Ignore a trailing timestamp if one ever appears.
	if i := strings.IndexByte(rest, ' '); i >= 0 {
		rest = rest[:i]
	}
	value, err = strconv.ParseFloat(rest, 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("sample %q has malformed value: %w", line, err)
	}
	return name, labels, value, nil
}

// canonicalLabels re-renders a `k="v",…` label string with keys sorted,
// so series match across peers regardless of emission order. Malformed
// label strings are returned verbatim (they then simply never match a
// well-formed key).
func canonicalLabels(ls string) string {
	if ls == "" {
		return ""
	}
	pairs, err := parseLabelPairs(ls)
	if err != nil {
		return ls
	}
	sort.Slice(pairs, func(i, j int) bool { return pairs[i][0] < pairs[j][0] })
	var sb strings.Builder
	for i, p := range pairs {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p[0], p[1])
	}
	return sb.String()
}

// parseLabelPairs splits `k="v",…` into decoded [key, value] pairs.
func parseLabelPairs(ls string) ([][2]string, error) {
	var out [][2]string
	rest := ls
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq <= 0 {
			return nil, fmt.Errorf("malformed label pair in %q", ls)
		}
		key := rest[:eq]
		rest = rest[eq+1:]
		quoted, err := strconv.QuotedPrefix(rest)
		if err != nil {
			return nil, fmt.Errorf("malformed label value in %q: %w", ls, err)
		}
		val, err := strconv.Unquote(quoted)
		if err != nil {
			return nil, err
		}
		out = append(out, [2]string{key, val})
		rest = rest[len(quoted):]
		if rest != "" {
			if rest[0] != ',' {
				return nil, fmt.Errorf("malformed label separator in %q", ls)
			}
			rest = rest[1:]
		}
	}
	return out, nil
}

// histSeriesBase reports whether name is a _bucket/_sum/_count series
// of a family declared `# TYPE … histogram`.
func histSeriesBase(s *PromSnapshot, name string) (base, part string, ok bool) {
	for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
		b, found := strings.CutSuffix(name, suffix)
		if !found {
			continue
		}
		if f, exists := s.byName[b]; exists && f.Kind == "histogram" {
			return b, suffix[1:], true
		}
	}
	return "", "", false
}

// splitLeLabel removes the le pair from a canonical label string (for
// bucket lines) and returns the remaining key plus the parsed bound.
func splitLeLabel(labels string, wantLe bool) (key string, le float64, err error) {
	if !wantLe {
		return labels, 0, nil
	}
	pairs, err := parseLabelPairs(labels)
	if err != nil {
		return "", 0, err
	}
	rest := pairs[:0]
	found := false
	for _, p := range pairs {
		if p[0] == "le" {
			found = true
			le, err = parsePromFloat(p[1])
			if err != nil {
				return "", 0, fmt.Errorf("malformed le bound %q: %w", p[1], err)
			}
			continue
		}
		rest = append(rest, p)
	}
	if !found {
		return "", 0, fmt.Errorf("bucket series missing le label in %q", labels)
	}
	var sb strings.Builder
	for i, p := range rest {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", p[0], p[1])
	}
	return sb.String(), le, nil
}

func parsePromFloat(s string) (float64, error) {
	return strconv.ParseFloat(s, 64)
}

// build turns accumulated cumulative bucket lines into a
// PromHistogram, validating ordering and monotonicity.
func (a *histAssembly) build() (*PromHistogram, error) {
	if len(a.bounds) == 0 {
		return nil, fmt.Errorf("no bucket lines")
	}
	h := &PromHistogram{Count: a.count, Sum: a.sum}
	prevBound := math.Inf(-1)
	prevCum := int64(0)
	sawInf := false
	for i, b := range a.bounds {
		cum := a.cum[i]
		if cum < prevCum {
			return nil, fmt.Errorf("cumulative bucket counts decrease at le=%v", b)
		}
		if math.IsInf(b, 1) {
			if i != len(a.bounds)-1 {
				return nil, fmt.Errorf("+Inf bucket is not last")
			}
			sawInf = true
		} else {
			if b <= prevBound {
				return nil, fmt.Errorf("bucket bounds not ascending at le=%v", b)
			}
			h.Bounds = append(h.Bounds, b)
			prevBound = b
		}
		h.Buckets = append(h.Buckets, cum-prevCum)
		prevCum = cum
	}
	if !sawInf {
		return nil, fmt.Errorf("missing +Inf bucket")
	}
	if a.count != prevCum {
		return nil, fmt.Errorf("_count %d disagrees with +Inf cumulative %d", a.count, prevCum)
	}
	return h, nil
}

// MergePrometheus folds src into dst all-or-nothing: on any layout
// mismatch (same family at different kinds, same histogram series with
// different bucket bounds) dst is left untouched and the error names
// the offending family — the fleet endpoint counts that peer as a
// scrape error and moves on. Counters and gauges sum (a summed gauge is
// a fleet total, e.g. ftclust_cluster_peers aggregates to peers×nodes);
// histograms sum bucket by bucket, Count and Sum with them, so the
// merged Count stays the sum of its Buckets.
func MergePrometheus(dst, src *PromSnapshot) error {
	if src == nil {
		return nil
	}
	// Validation pass: every overlapping family/series must be mergeable.
	for _, sf := range src.families {
		df, ok := dst.byName[sf.Name]
		if !ok {
			continue
		}
		if df.Kind != sf.Kind {
			return fmt.Errorf("obs: merge %s: kind %s vs %s", sf.Name, df.Kind, sf.Kind)
		}
		for _, ss := range sf.series {
			ds, ok := df.byKey[ss.Labels]
			if !ok {
				continue
			}
			if (ds.Hist == nil) != (ss.Hist == nil) {
				return fmt.Errorf("obs: merge %s: histogram vs scalar series", sf.Name)
			}
			if ss.Hist != nil && !slices.Equal(ds.Hist.Bounds, ss.Hist.Bounds) {
				return fmt.Errorf("obs: merge %s: bucket layouts differ", sf.Name)
			}
		}
	}
	// Apply pass.
	for _, sf := range src.families {
		df := dst.family(sf.Name)
		if df.Kind == "untyped" {
			df.Kind = sf.Kind
		}
		if df.Help == "" {
			df.Help = sf.Help
		}
		for _, ss := range sf.series {
			ds := df.seriesFor(ss.Labels)
			if ss.Hist == nil {
				ds.Value += ss.Value
				continue
			}
			if ds.Hist == nil {
				ds.Hist = &PromHistogram{
					Bounds:  append([]float64(nil), ss.Hist.Bounds...),
					Buckets: append([]int64(nil), ss.Hist.Buckets...),
					Count:   ss.Hist.Count,
					Sum:     ss.Hist.Sum,
				}
				continue
			}
			for i, n := range ss.Hist.Buckets {
				ds.Hist.Buckets[i] += n
			}
			ds.Hist.Count += ss.Hist.Count
			ds.Hist.Sum += ss.Hist.Sum
		}
	}
	return nil
}

// NewPromSnapshot returns an empty snapshot to merge peers into.
func NewPromSnapshot() *PromSnapshot {
	return &PromSnapshot{byName: make(map[string]*PromFamily)}
}

// WritePrometheus renders the snapshot in text exposition format
// (version 0.0.4): each family is one contiguous group under one # HELP
// and one # TYPE line, families and series in first-seen order;
// histograms expand into cumulative _bucket{le=…} series plus _sum and
// _count.
func (s *PromSnapshot) WritePrometheus(w io.Writer) error {
	var sb strings.Builder
	for _, f := range s.families {
		fmt.Fprintf(&sb, "# HELP %s %s\n", f.Name, f.Help)
		fmt.Fprintf(&sb, "# TYPE %s %s\n", f.Name, f.Kind)
		for _, sr := range f.series {
			if sr.Hist == nil {
				if f.Kind == "counter" {
					fmt.Fprintf(&sb, "%s %d\n", seriesName(f.Name, sr.Labels), int64(sr.Value))
				} else {
					fmt.Fprintf(&sb, "%s %s\n", seriesName(f.Name, sr.Labels), formatFloat(sr.Value))
				}
				continue
			}
			cum := int64(0)
			for i, bound := range sr.Hist.Bounds {
				cum += sr.Hist.Buckets[i]
				fmt.Fprintf(&sb, "%s %d\n",
					seriesName(f.Name+"_bucket", withLabel(sr.Labels, "le", formatFloat(bound))), cum)
			}
			cum += sr.Hist.Buckets[len(sr.Hist.Bounds)]
			fmt.Fprintf(&sb, "%s %d\n",
				seriesName(f.Name+"_bucket", withLabel(sr.Labels, "le", "+Inf")), cum)
			fmt.Fprintf(&sb, "%s %s\n", seriesName(f.Name+"_sum", sr.Labels), formatFloat(sr.Hist.Sum))
			fmt.Fprintf(&sb, "%s %d\n", seriesName(f.Name+"_count", sr.Labels), sr.Hist.Count)
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

// formatFloat renders a float in the shortest form that parses back to
// the same value, so sums and gauges keep every digit: fixed notation
// from 1e-4 to below 1e6, a range that holds every bucket bound the
// service registers, an exponent outside it, and +Inf, -Inf and NaN
// spelled out.
func formatFloat(v float64) string {
	return strconv.FormatFloat(v, 'g', -1, 64)
}
