package main

// -bench-json mode: measure the in-memory core engines (SolveFractional,
// RoundSolution, SolveWeighted) across graph families, sizes and worker
// counts, and write a machine-readable JSON report so the performance
// trajectory of the repository is tracked in version control
// (BENCH_core.json at the repo root). See EXPERIMENTS.md ("Benchmark
// harness") for the schema and reproduction instructions.

import (
	"encoding/json"
	"fmt"
	"os"
	"runtime"
	"testing"
	"time"

	"ftclust/internal/core"
	"ftclust/internal/graph"
	"ftclust/internal/rng"
)

// reportHeader is the environment header both BENCH reports open with.
// Embedded, its fields marshal first and inline, in this order.
type reportHeader struct {
	Schema      string `json:"schema"`
	GeneratedAt string `json:"generated_at"`
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"num_cpu"`
	// GnpGenerator records which Gnp implementation produced the bench
	// graphs (graph.GnpGenerator); the geometric-skip rewrite changed the
	// per-seed edge sets, so reports across generator versions are not
	// instance-for-instance comparable.
	GnpGenerator string `json:"gnp_generator"`
	// RngGenerator records the per-node stream generator
	// (rng.StreamGenerator): every coin and permutation of the rounding
	// phase comes from it, so |S| for equal seeds is comparable only
	// across equal generator versions.
	RngGenerator string  `json:"rng_generator"`
	Scale        float64 `json:"scale"`
}

// newReportHeader stamps a report header with this process's
// environment.
func newReportHeader(schema string, scale float64) reportHeader {
	return reportHeader{
		Schema:       schema,
		GeneratedAt:  time.Now().UTC().Format(time.RFC3339),
		GoVersion:    runtime.Version(),
		GOMAXPROCS:   runtime.GOMAXPROCS(0),
		NumCPU:       runtime.NumCPU(),
		GnpGenerator: graph.GnpGenerator,
		RngGenerator: rng.StreamGenerator,
		Scale:        scale,
	}
}

// benchReport is the top-level BENCH_core.json document.
type benchReport struct {
	reportHeader
	Benchmarks []benchRecord `json:"benchmarks"`
}

// benchRecord is one measured configuration.
type benchRecord struct {
	Op       string `json:"op"`
	Family   string `json:"family"`
	N        int    `json:"n"`
	K        int    `json:"k"`
	T        int    `json:"t"`
	Workers  int    `json:"workers"`
	NsPerOp  int64  `json:"ns_op"`
	AllocsOp int64  `json:"allocs_op"`
	BytesOp  int64  `json:"bytes_op"`
	// SpeedupVsSequential is ns_op(workers=1)/ns_op for the same
	// (op, family, n); 0 on the sequential record itself. Always
	// populated on parallel records — read it together with num_cpu: on
	// a single-core machine the ratio documents worker-pool overhead
	// (≈ 1 is the pass bar there), while ≥ 4-core speedup claims are
	// asserted by the CI smoke job, not by a committed report.
	SpeedupVsSequential float64 `json:"speedup_vs_sequential,omitempty"`
}

func benchGraphFor(family string, n int) (*graph.Graph, error) {
	switch family {
	case "gnp":
		return graph.GnpAvgDegree(n, 12, 3), nil
	case "grid":
		side := 1
		for side*side < n {
			side++
		}
		return graph.Grid(side, side), nil
	case "powerlaw":
		return graph.PreferentialAttachment(n, 4, 5), nil
	}
	return nil, fmt.Errorf("unknown benchmark family %q", family)
}

// runBenchJSON measures every configuration and writes the report to path.
// scale shrinks the instance sizes for smoke runs (CI uses 0.05).
func runBenchJSON(path string, scale float64) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("bench-json: scale must be in (0,1], got %v", scale)
	}
	const k, t = 2, 3
	sizes := []int{1000, 5000}
	// Always measure one parallel configuration: GOMAXPROCS workers, or 4
	// on a single-core machine — there the speedup column reads ≈ 1 and
	// documents the worker-pool overhead instead.
	par := runtime.GOMAXPROCS(0)
	if par < 4 {
		par = 4
	}
	workerCounts := []int{1, par}

	rep := benchReport{reportHeader: newReportHeader("ftclust-bench-core/v2", scale)}

	// measure runs one configuration under testing.Benchmark, appends the
	// record and returns its ns/op so callers can compute speedup ratios.
	measure := func(op, family string, n, workers int, fn func() error) (int64, error) {
		var benchErr error
		r := testing.Benchmark(func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := fn(); err != nil {
					benchErr = err
					b.Fatal(err)
				}
			}
		})
		if benchErr != nil {
			return 0, fmt.Errorf("bench %s/%s/n=%d: %w", op, family, n, benchErr)
		}
		rec := benchRecord{
			Op: op, Family: family, N: n, K: k, T: t,
			Workers:  workers,
			NsPerOp:  r.NsPerOp(),
			AllocsOp: r.AllocsPerOp(),
			BytesOp:  r.AllocedBytesPerOp(),
		}
		rep.Benchmarks = append(rep.Benchmarks, rec)
		fmt.Fprintf(os.Stderr, "bench %-24s %-8s n=%-6d workers=%-2d %12d ns/op %8d allocs/op\n",
			op, family, n, workers, rec.NsPerOp, rec.AllocsOp)
		return r.NsPerOp(), nil
	}
	// setSpeedup back-fills speedup_vs_sequential on the record just
	// appended.
	setSpeedup := func(seqNs, parNs int64) {
		if seqNs > 0 && parNs > 0 {
			rep.Benchmarks[len(rep.Benchmarks)-1].SpeedupVsSequential = float64(seqNs) / float64(parNs)
		}
	}

	for _, family := range []string{"gnp", "grid", "powerlaw"} {
		for _, baseN := range sizes {
			n := int(float64(baseN) * scale)
			if n < 10 {
				n = 10
			}
			g, err := benchGraphFor(family, n)
			if err != nil {
				return err
			}
			n = g.NumNodes() // grid rounds up to a full square
			kVec := core.EffectiveDemands(g, k)
			frac, err := core.SolveFractional(g, kVec, core.FractionalOptions{T: t})
			if err != nil {
				return err
			}
			costs := make([]float64, n)
			for v := range costs {
				costs[v] = 1 + float64(v%9)
			}

			sc := core.NewScratch()
			ops := []struct {
				name string
				run  func(workers int) error
			}{
				{"SolveFractional", func(workers int) error {
					_, err := core.SolveFractional(g, kVec, core.FractionalOptions{T: t, Workers: workers})
					return err
				}},
				{"SolveFractional/scratch", func(workers int) error {
					_, err := core.SolveFractional(g, kVec, core.FractionalOptions{
						T: t, Workers: workers, Scratch: sc,
					})
					return err
				}},
				{"RoundSolution", func(workers int) error {
					_, err := core.RoundSolution(g, kVec, frac.X, frac.Delta,
						core.RoundingOptions{Seed: 1, Workers: workers})
					return err
				}},
				{"SolveWeighted", func(workers int) error {
					_, err := core.SolveWeighted(g, core.WeightedOptions{
						K: k, T: t, Seed: 1, Costs: costs, Workers: workers,
					})
					return err
				}},
			}

			for _, op := range ops {
				var seqNs int64
				for _, workers := range workerCounts {
					ns, err := measure(op.name, family, n, workers, func() error { return op.run(workers) })
					if err != nil {
						return err
					}
					if workers == 1 {
						seqNs = ns
					} else {
						setSpeedup(seqNs, ns)
					}
				}
			}
		}
	}

	// Large-scale section: one gnp instance at n=100000 (scaled), fractional
	// solve only — the regime the bitset gating, guided chunking and
	// per-worker lanes are tuned for. Scratch-backed so the records track
	// compute, not first-touch allocation.
	{
		largeN := int(float64(100000) * scale)
		if largeN < 10 {
			largeN = 10
		}
		g := graph.GnpAvgDegree(largeN, 12, 3)
		kVec := core.EffectiveDemands(g, k)
		sc := core.NewScratch()
		var seqNs int64
		for _, workers := range workerCounts {
			ns, err := measure("SolveFractional/scratch", "gnp", largeN, workers, func() error {
				_, err := core.SolveFractional(g, kVec, core.FractionalOptions{
					T: t, Workers: workers, Scratch: sc,
				})
				return err
			})
			if err != nil {
				return err
			}
			if workers == 1 {
				seqNs = ns
			} else {
				setSpeedup(seqNs, ns)
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}
