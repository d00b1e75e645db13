package mobility

import "dtnsim/internal/sim"

// ClassicRWP is the textbook Random-WayPoint model [9][19]: nodes pick a
// uniform destination in the area, travel to it at a uniform speed, pause,
// and repeat. Contacts are detected by sampling positions every SampleDT
// seconds and thresholding pairwise distance against Range.
//
// The paper deliberately replaces this model with SubscriberPointRWP
// because of its known pathologies (speed decay when MinSpeed→0, border
// effects); it is included so the pathologies can be demonstrated and the
// protocols exercised under a second independent mobility source.
type ClassicRWP struct {
	Nodes    int
	AreaSide float64  // metres
	Span     sim.Time // seconds
	Seed     uint64
	MinSpeed float64 // m/s; keep > 0 to avoid RWP speed decay
	MaxSpeed float64 // m/s
	MaxPause float64 // seconds
	Range    float64 // metres, radio range
	SampleDT float64 // seconds between position samples
}

// Defaults fills unset fields with values matching the paper's scale
// (Table I: area ≤ 50 km², range ≤ 300 m).
func (g ClassicRWP) Defaults() ClassicRWP {
	if g.Nodes == 0 {
		g.Nodes = CambridgeNodes
	}
	if g.AreaSide == 0 {
		g.AreaSide = 2000
	}
	if g.Span == 0 {
		g.Span = RWPSpan
	}
	if g.MinSpeed == 0 {
		g.MinSpeed = 0.5
	}
	if g.MaxSpeed == 0 {
		g.MaxSpeed = 10
	}
	if g.MaxPause == 0 {
		g.MaxPause = 1000
	}
	if g.Range == 0 {
		g.Range = 100
	}
	if g.SampleDT == 0 {
		g.SampleDT = 10
	}
	return g
}

// leg is one straight-line movement (or pause) segment of a node's path.
type leg struct {
	t0, t1 float64 // time window
	a, b   point   // endpoints (a==b for a pause)
}

func (l leg) at(t float64) point {
	if l.t1 == l.t0 {
		return l.a
	}
	f := (t - l.t0) / (l.t1 - l.t0)
	return point{l.a.x + f*(l.b.x-l.a.x), l.a.y + f*(l.b.y-l.a.y)}
}
