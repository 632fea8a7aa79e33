package ftclust

// One benchmark per experiment of EXPERIMENTS.md (E1–E11, A1–A3), each
// regenerating its table at a bench-friendly scale, plus performance
// micro-benchmarks of the two solvers and the LP substrate. Run with
//
//	go test -bench=. -benchmem
//
// cmd/ftbench regenerates the full-scale tables.

import (
	"runtime"
	"strconv"
	"testing"

	"ftclust/internal/core"
	"ftclust/internal/exp"
	"ftclust/internal/geom"
	"ftclust/internal/graph"
	"ftclust/internal/lp"
	"ftclust/internal/udg"
)

func benchConfig() exp.Config { return exp.Config{Seed: 7, Trials: 2, Scale: 0.25} }

// runExperiment executes the driver once per iteration and reports the
// mean of the given numeric column as a custom metric.
func runExperiment(b *testing.B, id string, metricCol int, metricName string) {
	b.Helper()
	e, err := exp.Lookup(id)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		tb, err := e.Run(benchConfig())
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && metricCol >= 0 {
			sum, n := 0.0, 0
			for r := 0; r < tb.NumRows(); r++ {
				if v, err := strconv.ParseFloat(tb.Row(r)[metricCol], 64); err == nil {
					sum += v
					n++
				}
			}
			if n > 0 {
				b.ReportMetric(sum/float64(n), metricName)
			}
		}
	}
}

func BenchmarkE1FractionalTradeoff(b *testing.B) { runExperiment(b, "E1", 8, "ratio") }
func BenchmarkE2RoundingBlowup(b *testing.B)     { runExperiment(b, "E2", 6, "blowup") }
func BenchmarkE3EndToEnd(b *testing.B)           { runExperiment(b, "E3", 4, "kmds2-size") }
func BenchmarkE4DualCertificate(b *testing.B)    { runExperiment(b, "E4", 4, "viol/kappa") }
func BenchmarkE5PartICorrectness(b *testing.B)   { runExperiment(b, "E5", 3, "violations") }
func BenchmarkE6LeadersPerDisk(b *testing.B)     { runExperiment(b, "E6", 2, "leaders/disk") }
func BenchmarkE7UDGEndToEnd(b *testing.B)        { runExperiment(b, "E7", 6, "ratio-vs-greedy") }
func BenchmarkE8Figure1Geometry(b *testing.B)    { runExperiment(b, "E8", 2, "alpha") }
func BenchmarkE9MessageSize(b *testing.B)        { runExperiment(b, "E9", 3, "bits/logn") }
func BenchmarkE10FaultTolerance(b *testing.B)    { runExperiment(b, "E10", 3, "uncovered%") }
func BenchmarkE11LowerBoundGap(b *testing.B)     { runExperiment(b, "E11", 4, "ratio") }
func BenchmarkE12WeightedKMDS(b *testing.B)      { runExperiment(b, "E12", 4, "weighted-cost") }
func BenchmarkE13MobilityDecay(b *testing.B)     { runExperiment(b, "E13", 3, "under%") }
func BenchmarkE14CDSOverhead(b *testing.B)       { runExperiment(b, "E14", 5, "cds/s") }
func BenchmarkE15SynchronizerOverhead(b *testing.B) {
	runExperiment(b, "E15", 4, "msg-overhead")
}
func BenchmarkE16RoutingStretch(b *testing.B) { runExperiment(b, "E16", 3, "stretch") }
func BenchmarkE17NeighborDiscovery(b *testing.B) {
	runExperiment(b, "E17", 3, "slots")
}
func BenchmarkE18CrashRobustness(b *testing.B)  { runExperiment(b, "E18", 4, "repairs") }
func BenchmarkAblRoundingNoRepair(b *testing.B) { runExperiment(b, "A1", 3, "infeasible") }
func BenchmarkAblPartTwoFanout(b *testing.B)    { runExperiment(b, "A2", 3, "size") }
func BenchmarkAblLocalDelta(b *testing.B)       { runExperiment(b, "A3", 4, "local-objective") }

// --- Performance micro-benchmarks ---

func BenchmarkAlgorithm1(b *testing.B) {
	for _, n := range []int{256, 1024, 4096} {
		g := graph.GnpAvgDegree(n, 12, 3)
		k := core.EffectiveDemands(g, 2)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := core.SolveFractional(g, k, core.FractionalOptions{T: 3}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkAlgorithm2(b *testing.B) {
	g := graph.GnpAvgDegree(2048, 12, 3)
	k := core.EffectiveDemands(g, 2)
	frac, err := core.SolveFractional(g, k, core.FractionalOptions{T: 3})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.RoundSolution(g, k, frac.X, frac.Delta,
			core.RoundingOptions{Seed: int64(i)}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAlgorithm3(b *testing.B) {
	for _, n := range []int{1024, 8192} {
		pts := geom.UniformPoints(n, float64(n)/256, 5)
		g, idx := geom.UnitUDG(pts)
		b.Run("n="+strconv.Itoa(n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := udg.Solve(pts, g, idx, udg.Options{K: 3, Seed: int64(i)}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkSimplexLP(b *testing.B) {
	g := graph.GnpAvgDegree(150, 10, 2)
	c := lp.FromGraph(g, lp.UniformK(150, 2))
	for i := 0; i < b.N; i++ {
		if _, _, err := c.SolveFractional(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPublicAPISolve(b *testing.B) {
	g, err := GenerateGraph("gnp", 512, 10, 4)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		sol, err := SolveKMDS(g, 3, WithSeed(int64(i)))
		if err != nil {
			b.Fatal(err)
		}
		if sol.Size() == 0 {
			b.Fatal("empty solution")
		}
	}
}

// BenchmarkPipeline covers the request→solution pipeline the service runs
// per cold query through the public API: generate the instance, hash it
// for the cache key, solve. The scratch variant reuses one arena across
// iterations — the allocs/op gap against fresh is the pooled-scratch
// payoff. CI's benchmark smoke (-bench . -benchtime=1x) runs them.
func BenchmarkPipeline(b *testing.B) {
	const n, d, k = 2000, 8, 2
	run := func(b *testing.B, opts ...Option) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g, err := GenerateGraph("gnp", n, d, 3)
			if err != nil {
				b.Fatal(err)
			}
			g.CanonicalHash()
			sol, err := SolveKMDS(g, k, append([]Option{WithSeed(1)}, opts...)...)
			if err != nil {
				b.Fatal(err)
			}
			if sol.Size() == 0 {
				b.Fatal("empty solution")
			}
		}
	}
	b.Run("fresh", func(b *testing.B) { run(b) })
	b.Run("scratch", func(b *testing.B) {
		sc := NewScratch()
		run(b, WithScratch(sc))
	})
}

func BenchmarkPublicAPISolveParallel(b *testing.B) {
	g, err := GenerateGraph("gnp", 4096, 14, 4)
	if err != nil {
		b.Fatal(err)
	}
	for _, w := range []int{1, runtime.GOMAXPROCS(0)} {
		b.Run("workers="+strconv.Itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				sol, err := SolveKMDS(g, 3, WithSeed(int64(i)), WithWorkers(w))
				if err != nil {
					b.Fatal(err)
				}
				if sol.Size() == 0 {
					b.Fatal("empty solution")
				}
			}
		})
	}
}
