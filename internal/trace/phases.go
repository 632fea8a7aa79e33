package trace

import (
	"fmt"
	"time"

	"ftclust/internal/obs"
)

// PhaseTable renders one solve's observer output — the per-phase span
// breakdown plus the solve summary — as a table, the backend of
// `kmds -trace`.
func PhaseTable(phases []obs.PhaseInfo, stats obs.SolveStats) *Table {
	t := New("solve phase breakdown", "phase", "rounds", "wall_ms", "share_%", "alloc_objs")
	var total time.Duration
	var allocs uint64
	rounds := 0
	for _, p := range phases {
		total += p.Duration
		allocs += p.AllocObjects
		rounds += p.Rounds
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, p := range phases {
		share := 0.0
		if total > 0 {
			share = 100 * float64(p.Duration) / float64(total)
		}
		t.AddRow(p.Name, p.Rounds, ms(p.Duration), share, p.AllocObjects)
	}
	t.AddRow("total", rounds, ms(total), 100.0, allocs)
	t.Note = fmt.Sprintf(
		"|S|=%d sampled=%d repaired=%d feasible=%v  obj=%.4g κ=%.4g lower=%.4g gap=%.4g",
		stats.SetSize, stats.Sampled, stats.Repaired, stats.Feasible,
		stats.FractionalObjective, stats.Kappa, stats.DualLowerBound, stats.DualGap)
	return t
}
