package mobility

import (
	"math"

	"dtnsim/internal/sim"
)

// RWPSpan is the simulated period for RWP experiments (§IV: "within a
// 600,000 seconds period").
const RWPSpan sim.Time = 600000

// SubscriberPointRWP is the paper's modified Random-WayPoint model (§IV).
// Nodes hop between subscriber points scattered over a square area.
// At each point a node pauses for a random time, then travels to another
// random point; two nodes are in contact while co-located at a point,
// with contact duration capped at MaxContact.
//
// The paper's parameters: fewer than 100 subscriber points per km²,
// pauses under 1000 s, node speed in (0, 10] m/s (derived from distance
// over interval), contacts capped at 500 s.
type SubscriberPointRWP struct {
	Nodes      int
	Points     int      // subscriber points in the area
	AreaSide   float64  // metres; area is AreaSide × AreaSide
	Span       sim.Time // simulated period
	Seed       uint64
	MaxPause   float64 // seconds, pause at a point is Uniform(MinPause, MaxPause)
	MinPause   float64
	MinSpeed   float64 // m/s
	MaxSpeed   float64 // m/s
	MaxContact float64 // seconds, contact duration cap
}

// Defaults fills unset fields with the paper's §IV values.
func (g SubscriberPointRWP) Defaults() SubscriberPointRWP {
	if g.Nodes == 0 {
		g.Nodes = CambridgeNodes
	}
	if g.Points == 0 {
		g.Points = 96
	}
	if g.AreaSide == 0 {
		g.AreaSide = 1000
	}
	if g.Span == 0 {
		g.Span = RWPSpan
	}
	if g.MaxPause == 0 {
		g.MaxPause = 1000
	}
	if g.MinPause == 0 {
		g.MinPause = 50
	}
	if g.MinSpeed == 0 {
		g.MinSpeed = 0.5
	}
	if g.MaxSpeed == 0 {
		g.MaxSpeed = 10
	}
	if g.MaxContact == 0 {
		g.MaxContact = 500
	}
	return g
}

type point struct{ x, y float64 }

func dist(a, b point) float64 {
	return math.Hypot(a.x-b.x, a.y-b.y)
}
