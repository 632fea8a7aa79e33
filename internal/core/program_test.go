package core

import (
	"math"
	"testing"

	"ftclust/internal/graph"
	"ftclust/internal/sim"
	"ftclust/internal/verify"
)

func runProgram(t *testing.T, g *graph.Graph, cfg ProgramConfig, seed int64) (ProgramOutputs, sim.Metrics) {
	t.Helper()
	nw := sim.New(g, sim.WithSeed(seed))
	res, err := nw.Run(func(v graph.NodeID) sim.Program {
		return NewProgram(v, cfg)
	}, 10*cfg.T*cfg.T+50)
	if err != nil {
		t.Fatalf("sim run: %v", err)
	}
	return Collect(res.Programs), res.Metrics
}

func TestProgramMatchesEngineFractional(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"gnp":   graph.Gnp(50, 0.15, 2),
		"grid":  graph.Grid(6, 6),
		"star":  graph.Star(12),
		"ring":  graph.Ring(15),
		"tree":  graph.RandomTree(30, 3),
		"empty": graph.NewBuilder(4).Build(),
	}
	for name, g := range graphs {
		for _, tt := range []int{1, 2, 3} {
			k := EffectiveDemands(g, 2)
			eng, err := SolveFractional(g, k, FractionalOptions{T: tt})
			if err != nil {
				t.Fatalf("%s t=%d: engine: %v", name, tt, err)
			}
			out, _ := runProgram(t, g, ProgramConfig{K: 2, T: tt, Delta: g.MaxDegree()}, 1)
			for v := range eng.X {
				if eng.X[v] != out.X[v] {
					t.Errorf("%s t=%d node %d: engine x=%v program x=%v", name, tt, v, eng.X[v], out.X[v])
				}
				if eng.Y[v] != out.Y[v] {
					t.Errorf("%s t=%d node %d: engine y=%v program y=%v", name, tt, v, eng.Y[v], out.Y[v])
				}
				if math.Abs(eng.Z[v]-out.Z[v]) > 1e-12 {
					t.Errorf("%s t=%d node %d: engine z=%v program z=%v", name, tt, v, eng.Z[v], out.Z[v])
				}
			}
		}
	}
}

func TestProgramMatchesEngineRounding(t *testing.T) {
	for seed := int64(1); seed <= 5; seed++ {
		g := graph.Gnp(45, 0.2, seed)
		k := EffectiveDemands(g, 2)
		eng, err := Solve(g, Options{K: 2, T: 2, Seed: seed})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		out, _ := runProgram(t, g, ProgramConfig{K: 2, T: 2, Delta: g.MaxDegree(), Round: true}, seed)
		if err := verify.CheckKFoldVector(g, out.InSet, k, verify.ClosedPP); err != nil {
			t.Errorf("seed %d: program solution infeasible: %v", seed, err)
		}
		for v := range eng.InSet {
			if eng.InSet[v] != out.InSet[v] {
				t.Errorf("seed %d node %d: engine in=%v program in=%v",
					seed, v, eng.InSet[v], out.InSet[v])
			}
		}
	}
}

// The dense instances above saturate the sampling probabilities, so REQ
// rarely has a choice to make. On sparse graphs with k = 1 deficient
// nodes draw a permutation over several candidates — from the second
// and later draws of their stream, after the sampling coin — and the
// engine, which re-seeds one generator per worker to each node's stream,
// must recruit exactly the nodes the simulator's long-lived per-node
// streams recruit.
func TestProgramMatchesEngineRoundingRepairs(t *testing.T) {
	graphs := map[string]*graph.Graph{
		"grid": graph.Grid(9, 9),
		"ring": graph.Ring(60),
		"tree": graph.RandomTree(70, 4),
	}
	repaired := 0
	for name, g := range graphs {
		for seed := int64(1); seed <= 6; seed++ {
			eng, err := Solve(g, Options{K: 1, T: 2, Seed: seed})
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			repaired += eng.Rounding.Repaired
			out, _ := runProgram(t, g, ProgramConfig{K: 1, T: 2, Delta: g.MaxDegree(), Round: true}, seed)
			for v := range eng.InSet {
				if eng.InSet[v] != out.InSet[v] {
					t.Fatalf("%s seed %d node %d: engine in=%v program in=%v",
						name, seed, v, eng.InSet[v], out.InSet[v])
				}
			}
		}
	}
	if repaired == 0 {
		t.Fatal("no REQ recruit on any instance; the test exercised no permutation draw")
	}
}

func TestProgramRoundCount(t *testing.T) {
	// The distributed pipeline costs 2t² loop rounds plus four
	// bookkeeping rounds (dual send, dual recv + sample, REQ send,
	// REQ recv).
	g := graph.Gnp(30, 0.2, 1)
	for _, tt := range []int{1, 2, 3} {
		_, met := runProgram(t, g, ProgramConfig{K: 2, T: tt, Delta: g.MaxDegree(), Round: true}, 1)
		want := 2*tt*tt + 4
		if met.Rounds != want {
			t.Errorf("t=%d: rounds = %d, want %d", tt, met.Rounds, want)
		}
	}
	// Fractional-only variant stops right after the dual exchange.
	_, met := runProgram(t, g, ProgramConfig{K: 2, T: 2, Delta: g.MaxDegree()}, 1)
	if want := 2*2*2 + 2; met.Rounds != want {
		t.Errorf("fractional-only rounds = %d, want %d", met.Rounds, want)
	}
}

func TestProgramMessageSizesLogarithmic(t *testing.T) {
	// The largest message is the xMsg: two fixed-point reals plus a count,
	// i.e. 3·⌈log₂ n⌉ + 32 bits. Assert the exact affine bound and that
	// the per-log-n constant shrinks toward 3 as n grows.
	prev := math.Inf(1)
	for _, n := range []int{32, 128, 512} {
		g := graph.Gnp(n, 16.0/float64(n-1), 3)
		_, met := runProgram(t, g, ProgramConfig{K: 2, T: 2, Delta: g.MaxDegree(), Round: true}, 1)
		if limit := 2*sim.FixedPointBits(n) + sim.BitsForCount(n); met.MaxMessageBits > limit {
			t.Errorf("n=%d: max message bits %d exceed %d", n, met.MaxMessageBits, limit)
		}
		c := met.MaxBitsPerLogN(n)
		if c >= prev {
			t.Errorf("n=%d: bits/log n constant %.2f did not shrink (prev %.2f)", n, c, prev)
		}
		prev = c
	}
}

func TestProgramLocalDelta(t *testing.T) {
	g := graph.PreferentialAttachment(60, 2, 9)
	out, met := runProgram(t, g, ProgramConfig{K: 2, T: 2, LocalDelta: true, Round: true}, 4)
	k := EffectiveDemands(g, 2)
	if err := verify.CheckKFoldVector(g, out.InSet, k, verify.ClosedPP); err != nil {
		t.Errorf("LocalDelta program infeasible: %v", err)
	}
	// Two prelude rounds are added.
	if want := 2*2*2 + 4 + 2; met.Rounds != want {
		t.Errorf("rounds = %d, want %d", met.Rounds, want)
	}

	// Engine equivalence holds for the LocalDelta variant too.
	eng, err := SolveFractional(g, k, FractionalOptions{T: 2, LocalDelta: true})
	if err != nil {
		t.Fatal(err)
	}
	for v := range eng.X {
		if eng.X[v] != out.X[v] {
			t.Errorf("node %d: engine x=%v program x=%v", v, eng.X[v], out.X[v])
		}
	}
}

func TestProgramAsyncExecution(t *testing.T) {
	// The α-synchronizer run must agree with the synchronous one.
	g := graph.Gnp(30, 0.2, 8)
	cfg := ProgramConfig{K: 2, T: 2, Delta: g.MaxDegree(), Round: true}
	mk := func(v graph.NodeID) sim.Program { return NewProgram(v, cfg) }
	syn, err := sim.New(g, sim.WithSeed(7)).Run(mk, 200)
	if err != nil {
		t.Fatalf("sync: %v", err)
	}
	asy, err := sim.New(g, sim.WithSeed(7)).RunAsync(mk, 200)
	if err != nil {
		t.Fatalf("async: %v", err)
	}
	so, ao := Collect(syn.Programs), Collect(asy.Programs)
	for v := range so.X {
		if so.X[v] != ao.X[v] || so.InSet[v] != ao.InSet[v] {
			t.Errorf("node %d: sync (%v,%v) async (%v,%v)",
				v, so.X[v], so.InSet[v], ao.X[v], ao.InSet[v])
		}
	}
}

func TestProgramParallelExecution(t *testing.T) {
	g := graph.Gnp(80, 0.1, 10)
	cfg := ProgramConfig{K: 3, T: 3, Delta: g.MaxDegree(), Round: true}
	mk := func(v graph.NodeID) sim.Program { return NewProgram(v, cfg) }
	seq, err := sim.New(g, sim.WithSeed(2)).Run(mk, 500)
	if err != nil {
		t.Fatalf("seq: %v", err)
	}
	par, err := sim.New(g, sim.WithSeed(2)).RunParallel(mk, 500)
	if err != nil {
		t.Fatalf("par: %v", err)
	}
	so, po := Collect(seq.Programs), Collect(par.Programs)
	for v := range so.X {
		if so.X[v] != po.X[v] || so.InSet[v] != po.InSet[v] {
			t.Errorf("node %d mismatch", v)
		}
	}
}
