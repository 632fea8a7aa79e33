// Package mobility implements the random-waypoint mobility model used by
// the ad hoc experiments: every node drifts toward a private waypoint at a
// bounded speed and draws a fresh waypoint on arrival. Mobility is the
// third fault source the paper's introduction lists (besides node failure
// and the unstable medium); experiment E13 uses this model to measure how
// quickly a clustering decays and what re-clustering buys.
package mobility

import (
	"math"
	"math/rand"

	"ftclust/internal/geom"
	"ftclust/internal/rng"
)

// Model is a random-waypoint walker over the side × side square.
type Model struct {
	pts     []geom.Point
	targets []geom.Point
	side    float64
	speed   float64
	rnd     *rand.Rand
}

// NewRandomWaypoint creates a model with n nodes placed uniformly, each
// moving at most speed distance units per step.
func NewRandomWaypoint(n int, side, speed float64, seed int64) *Model {
	return &Model{
		pts:     geom.UniformPoints(n, side, seed),
		targets: geom.UniformPoints(n, side, rng.Derive(seed, 1)),
		side:    side,
		speed:   speed,
		// A trajectory is a generated deployment, not a per-node stream:
		// it keeps rng.New's generator so equal seeds replay equal walks.
		rnd: rng.New(rng.Derive(seed, 2)),
	}
}

// Points returns the current node positions. The returned slice is a copy;
// mutating it does not affect the model.
func (m *Model) Points() []geom.Point {
	out := make([]geom.Point, len(m.pts))
	copy(out, m.pts)
	return out
}

// N returns the number of nodes.
func (m *Model) N() int { return len(m.pts) }

// Step advances every node one movement step toward its waypoint, drawing
// a new waypoint when it arrives.
func (m *Model) Step() {
	for i := range m.pts {
		dx := m.targets[i].X - m.pts[i].X
		dy := m.targets[i].Y - m.pts[i].Y
		d := math.Hypot(dx, dy)
		if d <= m.speed {
			m.pts[i] = m.targets[i]
			m.targets[i] = geom.Point{
				X: m.rnd.Float64() * m.side,
				Y: m.rnd.Float64() * m.side,
			}
			continue
		}
		m.pts[i].X += dx / d * m.speed
		m.pts[i].Y += dy / d * m.speed
	}
}

// StepN advances n steps.
func (m *Model) StepN(n int) {
	for i := 0; i < n; i++ {
		m.Step()
	}
}

// MaxDisplacement returns the largest distance any node can travel in one
// step (the speed), useful for bounding neighborhood churn.
func (m *Model) MaxDisplacement() float64 { return m.speed }
