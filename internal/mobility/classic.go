package mobility

import (
	"fmt"
	"math"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

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

// Generate builds per-node waypoint paths and extracts range contacts.
func (g ClassicRWP) Generate() (*contact.Schedule, error) {
	g = g.Defaults()
	if g.Nodes < 2 {
		return nil, fmt.Errorf("mobility: ClassicRWP needs >=2 nodes, got %d", g.Nodes)
	}
	if g.MinSpeed <= 0 {
		return nil, fmt.Errorf("mobility: ClassicRWP MinSpeed must be > 0 (speed-decay pathology), got %v", g.MinSpeed)
	}
	steps, err := g.sampleSteps()
	if err != nil {
		return nil, err
	}
	root := sim.NewRNG(g.Seed)
	paths := make([][]leg, g.Nodes)
	for n := range paths {
		rng := root.Derive(0xC00 + uint64(n))
		pos := point{rng.Uniform(0, g.AreaSide), rng.Uniform(0, g.AreaSide)}
		t := 0.0
		for sim.Time(t) < g.Span {
			dst := point{rng.Uniform(0, g.AreaSide), rng.Uniform(0, g.AreaSide)}
			speed := rng.Uniform(g.MinSpeed, g.MaxSpeed)
			arrive := t + dist(pos, dst)/speed
			paths[n] = append(paths[n], leg{t0: t, t1: arrive, a: pos, b: dst})
			pause := rng.Uniform(0, g.MaxPause)
			paths[n] = append(paths[n], leg{t0: arrive, t1: arrive + pause, a: dst, b: dst})
			pos = dst
			t = arrive + pause
		}
	}

	posAt := func(n int, t float64, hint *int) point {
		p := paths[n]
		i := *hint
		for i < len(p)-1 && p[i].t1 < t {
			i++
		}
		*hint = i
		return p[i].at(t)
	}

	s := &contact.Schedule{Nodes: g.Nodes}
	r2 := g.Range * g.Range
	// Per-pair open contact start (NaN when not in contact).
	type pairState struct {
		open  bool
		start float64
	}
	states := make(map[contact.PairKey]*pairState)
	hints := make([]int, g.Nodes)
	positions := make([]point, g.Nodes)
	for step := 0; step <= steps; step++ {
		t := float64(step) * g.SampleDT
		if sim.Time(t) > g.Span {
			t = float64(g.Span)
		}
		for n := 0; n < g.Nodes; n++ {
			positions[n] = posAt(n, t, &hints[n])
		}
		for i := 0; i < g.Nodes; i++ {
			for j := i + 1; j < g.Nodes; j++ {
				dx := positions[i].x - positions[j].x
				dy := positions[i].y - positions[j].y
				in := dx*dx+dy*dy <= r2
				key := contact.MakePairKey(contact.NodeID(i), contact.NodeID(j))
				st := states[key]
				if st == nil {
					st = &pairState{}
					states[key] = st
				}
				switch {
				case in && !st.open:
					st.open = true
					st.start = t
				case !in && st.open:
					st.open = false
					if t > st.start {
						s.Contacts = append(s.Contacts, contact.Contact{
							A: key.A, B: key.B, Start: sim.Time(st.start), End: sim.Time(t),
						})
					}
				}
			}
		}
		if sim.Time(t) >= g.Span {
			break
		}
	}
	// Close any contacts still open at the horizon.
	for key, st := range states {
		if st.open && float64(g.Span) > st.start {
			s.Contacts = append(s.Contacts, contact.Contact{
				A: key.A, B: key.B, Start: sim.Time(st.start), End: g.Span,
			})
		}
	}
	s.Sort()
	if len(s.Contacts) == 0 {
		return nil, fmt.Errorf("mobility: ClassicRWP produced no contacts (range %.0fm too small for area %.0fm?)", g.Range, g.AreaSide)
	}
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: ClassicRWP schedule invalid: %w", err)
	}
	return s, nil
}

// MeanSpeedDecay estimates the classic-RWP mean node speed over time by
// averaging leg speeds weighted by time, demonstrating the [19] pathology
// when MinSpeed approaches zero. Exposed for the pathology example and
// tests; returns the mean speed in the first and last quarter of the span.
func (g ClassicRWP) MeanSpeedDecay() (early, late float64, err error) {
	g = g.Defaults()
	root := sim.NewRNG(g.Seed)
	span := float64(g.Span)
	var sumE, timeE, sumL, timeL float64
	for n := 0; n < g.Nodes; n++ {
		rng := root.Derive(0xC00 + uint64(n))
		pos := point{rng.Uniform(0, g.AreaSide), rng.Uniform(0, g.AreaSide)}
		t := 0.0
		for t < span {
			dst := point{rng.Uniform(0, g.AreaSide), rng.Uniform(0, g.AreaSide)}
			speed := rng.Uniform(g.MinSpeed, g.MaxSpeed)
			travel := dist(pos, dst) / speed
			accumulate := func(t0, t1 float64) {
				if t1 <= span/4 {
					sumE += speed * (t1 - t0)
					timeE += t1 - t0
				}
				if t0 >= 3*span/4 {
					sumL += speed * (t1 - t0)
					timeL += t1 - t0
				}
			}
			accumulate(t, math.Min(t+travel, span))
			pos = dst
			t += travel + rng.Uniform(0, g.MaxPause)
		}
	}
	if timeE == 0 || timeL == 0 {
		return 0, 0, fmt.Errorf("mobility: span too short to measure speed decay")
	}
	return sumE / timeE, sumL / timeL, nil
}
