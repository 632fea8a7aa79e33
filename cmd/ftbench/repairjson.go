package main

// -repair-json mode: measure the incremental churn engine against the full
// re-solve it replaces and write a machine-readable JSON report
// (BENCH_repair.json at the repo root). Two sweeps:
//
//   - failure sweep: on a gnp instance, fail 1…256 heads in one batch and
//     record the repair-patch latency and touched-node count next to a
//     certified full re-solve of the same damaged instance — the
//     damage-proportionality evidence (touched scales with the batch, not
//     with n) and the patch-vs-resolve speedup.
//   - mobility sweep: drive a unit-disk deployment with the random-waypoint
//     model, feed each step's edge diff to the engine as a delta batch, and
//     record per-step patch latency, touched counts and drift fallbacks.
//
// See EXPERIMENTS.md ("Repair benchmark") for the schema and reproduction
// instructions.

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"time"

	"ftclust"
	"ftclust/internal/graph"
	"ftclust/internal/mobility"
)

// repairReport is the top-level BENCH_repair.json document.
type repairReport struct {
	reportHeader
	Failure  failureSweep  `json:"failure_sweep"`
	Mobility mobilitySweep `json:"mobility_sweep"`
}

// failureSweep batches head failures of growing size on one gnp instance.
type failureSweep struct {
	Family  string          `json:"family"`
	N       int             `json:"n"`
	Edges   int             `json:"edges"`
	Degree  float64         `json:"degree"`
	K       int             `json:"k"`
	Seed    int64           `json:"seed"`
	SetSize int             `json:"set_size"`
	Records []failureRecord `json:"records"`
}

// failureRecord is one damage level: fail `damage` heads in one batch.
type failureRecord struct {
	Damage     int   `json:"damage"`
	PatchNs    int64 `json:"patch_ns"` // min over repetitions
	Touched    int   `json:"touched"`
	Entered    int   `json:"entered"`
	Iterations int   `json:"iterations"`
	// ResolveNs is a certified full re-solve (solve + verify + adopt) of
	// the same damaged instance — what each patch replaces.
	ResolveNs int64   `json:"resolve_ns"`
	Speedup   float64 `json:"speedup_vs_resolve"`
}

// mobilitySweep streams random-waypoint edge churn through one engine.
type mobilitySweep struct {
	N         int              `json:"n"`
	Side      float64          `json:"side"`
	Speed     float64          `json:"speed"`
	K         int              `json:"k"`
	Seed      int64            `json:"seed"`
	Steps     int              `json:"steps"`
	Fallbacks int              `json:"fallbacks"`
	Records   []mobilityRecord `json:"records"`
}

// mobilityRecord is one mobility step absorbed as a delta batch.
type mobilityRecord struct {
	Step       int   `json:"step"`
	EdgeAdds   int   `json:"edge_adds"`
	EdgeDels   int   `json:"edge_dels"`
	PatchNs    int64 `json:"patch_ns"`
	Touched    int   `json:"touched"`
	Iterations int   `json:"iterations"`
	Entered    int   `json:"entered"`
	Left       int   `json:"left"`
	Fallback   bool  `json:"fallback"`
	// ResolveNs is the certified re-solve the drift fallback cost on this
	// step (0 when no fallback fired).
	ResolveNs int64 `json:"resolve_ns,omitempty"`
}

// runRepairJSON measures both sweeps and writes the report to path. scale
// shrinks the instance sizes for smoke runs.
func runRepairJSON(path string, scale float64, seed int64) error {
	if scale <= 0 || scale > 1 {
		return fmt.Errorf("repair-json: scale must be in (0,1], got %v", scale)
	}
	scaled := func(n int) int {
		n = int(float64(n) * scale)
		if n < 32 {
			n = 32
		}
		return n
	}
	rep := repairReport{reportHeader: newReportHeader("ftclust-bench-repair/v1", scale)}

	fs, err := runFailureSweep(scaled(20000), seed)
	if err != nil {
		return fmt.Errorf("repair-json failure sweep: %w", err)
	}
	rep.Failure = fs

	ms, err := runMobilitySweep(scaled(2000), seed)
	if err != nil {
		return fmt.Errorf("repair-json mobility sweep: %w", err)
	}
	rep.Mobility = ms

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	return os.WriteFile(path, buf, 0o644)
}

func runFailureSweep(n int, seed int64) (failureSweep, error) {
	const k, degree = 2, 8.0
	g := graph.GnpAvgDegree(n, degree, seed)
	sol, err := ftclust.SolveKMDS(g, k, ftclust.WithT(3), ftclust.WithSeed(seed))
	if err != nil {
		return failureSweep{}, err
	}
	sweep := failureSweep{
		Family: "gnp", N: g.NumNodes(), Edges: g.NumEdges(),
		Degree: degree, K: k, Seed: seed, SetSize: sol.Size(),
	}

	for damage := 1; damage <= 256 && damage <= len(sol.Members); damage *= 2 {
		// Spread the failed heads across the whole member list so damage d
		// hits d separate neighborhoods, not one hot spot.
		stride := len(sol.Members) / damage
		heads := make([]ftclust.NodeID, damage)
		for i := range heads {
			heads[i] = sol.Members[i*stride]
		}
		batch := ftclust.FailOp(heads...)

		var rec failureRecord
		rec.Damage = damage
		const reps = 3
		for r := 0; r < reps; r++ {
			e, err := ftclust.NewChurnEngine(g, sol, k)
			if err != nil {
				return failureSweep{}, err
			}
			start := time.Now()
			p, err := e.Apply(batch)
			elapsed := time.Since(start).Nanoseconds()
			if err != nil {
				return failureSweep{}, err
			}
			if rec.PatchNs == 0 || elapsed < rec.PatchNs {
				rec.PatchNs = elapsed
			}
			rec.Touched, rec.Entered, rec.Iterations = p.Touched, len(p.Entered), p.Iterations
		}

		// The alternative each patch replaces: a certified full re-solve of
		// the damaged instance, adopted back into the engine.
		e, err := ftclust.NewChurnEngine(g, sol, k)
		if err != nil {
			return failureSweep{}, err
		}
		if _, err := e.Apply(batch); err != nil {
			return failureSweep{}, err
		}
		start := time.Now()
		if _, err := e.Resolve(ftclust.WithT(3), ftclust.WithSeed(seed)); err != nil {
			return failureSweep{}, err
		}
		rec.ResolveNs = time.Since(start).Nanoseconds()
		if rec.PatchNs > 0 {
			rec.Speedup = float64(rec.ResolveNs) / float64(rec.PatchNs)
		}
		sweep.Records = append(sweep.Records, rec)
		fmt.Fprintf(os.Stderr, "repair damage=%-4d patch %10d ns  touched %-6d resolve %12d ns  speedup %8.1fx\n",
			damage, rec.PatchNs, rec.Touched, rec.ResolveNs, rec.Speedup)
	}
	return sweep, nil
}

func runMobilitySweep(n int, seed int64) (mobilitySweep, error) {
	const (
		k     = 2
		steps = 20
		speed = 0.15 // max displacement per step, in units of the radio radius
	)
	// Pick the square's side so the unit-disk graph averages ~8 neighbors.
	side := math.Sqrt(float64(n) * math.Pi / 8)
	model := mobility.NewRandomWaypoint(n, side, speed, seed)

	pts := model.Points()
	sol, g, err := ftclust.SolveUDGKMDS(pts, k, ftclust.WithSeed(seed))
	if err != nil {
		return mobilitySweep{}, err
	}
	e, err := ftclust.NewChurnEngine(g, sol, k)
	if err != nil {
		return mobilitySweep{}, err
	}
	sweep := mobilitySweep{N: n, Side: side, Speed: speed, K: k, Seed: seed, Steps: steps}

	cur := g
	curSet := edgeSet(g)
	for step := 1; step <= steps; step++ {
		model.Step()
		next := ftclust.UnitDiskGraph(model.Points())
		nextSet := edgeSet(next)

		// Diff by iterating the graphs (deterministic CSR order), membership
		// via the sets.
		var ops []ftclust.ChurnOp
		adds, dels := 0, 0
		cur.Edges(func(u, v ftclust.NodeID) {
			if !nextSet[graph.Edge{U: u, V: v}] {
				ops = append(ops, ftclust.DelEdgeOp(u, v))
				dels++
			}
		})
		next.Edges(func(u, v ftclust.NodeID) {
			if !curSet[graph.Edge{U: u, V: v}] {
				ops = append(ops, ftclust.AddEdgeOp(u, v))
				adds++
			}
		})

		rec := mobilityRecord{Step: step, EdgeAdds: adds, EdgeDels: dels}
		if len(ops) > 0 {
			start := time.Now()
			p, err := e.Apply(ops...)
			rec.PatchNs = time.Since(start).Nanoseconds()
			if err != nil {
				return mobilitySweep{}, fmt.Errorf("step %d: %w", step, err)
			}
			rec.Touched, rec.Iterations = p.Touched, p.Iterations
			rec.Entered, rec.Left = len(p.Entered), len(p.Left)
			if p.DriftExceeded {
				rec.Fallback = true
				sweep.Fallbacks++
				start := time.Now()
				if _, err := e.Resolve(ftclust.WithSeed(seed)); err != nil {
					return mobilitySweep{}, fmt.Errorf("step %d resolve: %w", step, err)
				}
				rec.ResolveNs = time.Since(start).Nanoseconds()
			}
		}
		sweep.Records = append(sweep.Records, rec)
		fmt.Fprintf(os.Stderr, "mobility step=%-3d +%-4d -%-4d patch %10d ns  touched %-6d fallback=%v\n",
			step, adds, dels, rec.PatchNs, rec.Touched, rec.Fallback)
		cur, curSet = next, nextSet
	}
	return sweep, nil
}

// edgeSet indexes a graph's edges with U < V, matching Graph.Edges order.
func edgeSet(g *ftclust.Graph) map[graph.Edge]bool {
	set := make(map[graph.Edge]bool, g.NumEdges())
	g.Edges(func(u, v ftclust.NodeID) { set[graph.Edge{U: u, V: v}] = true })
	return set
}
