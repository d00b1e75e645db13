package mobility

import (
	"fmt"
	"math"
	"sort"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// The reference generators: one materializing implementation per
// mobility model, written the obvious way — draw everything, then sort.
// They share only the parameter structs, Defaults, the parameter checks,
// ControlledInterval.round and the geometry (point, leg, dist) with the
// shipped sources, so they stay independent oracles:
// TestStreamMatchesGenerate, TestGeneratorsMatchDirectConstruction and
// the four stream fuzzers compare every Stream against them, contact for
// contact.

// generateCambridge materializes the synthetic trace. With few nodes or
// a short span, a draw can place every pair's first encounter beyond
// the span; an empty schedule is unusable (contact.Validate rejects
// it), so it deterministically retries with a derived stream until some
// pair meets, exactly as Stream does.
func generateCambridge(g SyntheticCambridge) (*contact.Schedule, error) {
	g = g.Defaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	const maxAttempts = 16
	for attempt := 0; attempt < maxAttempts; attempt++ {
		s := generateCambridgeOnce(g, sim.NewRNG(g.Seed+uint64(attempt)*0x9e3779b97f4a7c15))
		if len(s.Contacts) == 0 {
			continue
		}
		s.Sort()
		if err := s.Validate(); err != nil {
			return nil, fmt.Errorf("mobility: synthetic trace invalid: %w", err)
		}
		return s, nil
	}
	return nil, fmt.Errorf("mobility: no contacts within span %v after %d attempts; increase Span or Nodes",
		g.Span, maxAttempts)
}

// generateCambridgeOnce runs every pair's renewal process from one root
// stream.
func generateCambridgeOnce(g SyntheticCambridge, root *sim.RNG) *contact.Schedule {
	s := &contact.Schedule{Nodes: g.Nodes}
	for i := 0; i < g.Nodes; i++ {
		for j := i + 1; j < g.Nodes; j++ {
			// A dedicated stream per pair keeps the trace stable when
			// the node count changes.
			rng := root.Derive(uint64(i)<<32 | uint64(j))
			activity := rng.Uniform(1-g.PairActivity, 1+g.PairActivity)
			// Start each pair at a random phase so contacts do not
			// synchronize at t=0.
			t := rng.Uniform(0, g.MaxGap/4)
			for {
				gap := rng.Pareto(g.Alpha, g.MinGap, g.MaxGap) * g.diurnalFactor(t) / activity
				t += gap
				if sim.Time(t) >= g.Span {
					break
				}
				dur := rng.LogNormal(math.Log(g.MedianDur), g.DurSigma)
				if dur < g.MinDur {
					dur = g.MinDur
				}
				if dur > g.MaxDur {
					dur = g.MaxDur
				}
				end := t + dur
				if sim.Time(end) > g.Span {
					end = float64(g.Span)
				}
				if rs, re := math.Round(t), math.Round(end); re > rs {
					s.Contacts = append(s.Contacts, contact.Contact{
						A: contact.NodeID(i), B: contact.NodeID(j),
						Start: sim.Time(rs), End: sim.Time(re),
					})
				}
				t = end
			}
		}
	}
	return s
}

// visit is one node's dwell interval at a subscriber point.
type visit struct {
	node   contact.NodeID
	arrive float64
	depart float64
}

// generateSubscriber simulates every itinerary for the whole span into
// per-point visit lists, then sweeps each point's visits pairwise for
// dwell overlaps.
func generateSubscriber(g SubscriberPointRWP) (*contact.Schedule, error) {
	g = g.Defaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(g.Seed)
	placeRNG := root.Derive(0xA11)
	pts := make([]point, g.Points)
	for i := range pts {
		pts[i] = point{placeRNG.Uniform(0, g.AreaSide), placeRNG.Uniform(0, g.AreaSide)}
	}

	// Build itineraries: per-point visit lists.
	visitsAt := make([][]visit, g.Points)
	for n := 0; n < g.Nodes; n++ {
		rng := root.Derive(0xB00 + uint64(n))
		cur := rng.IntN(g.Points)
		t := rng.Uniform(0, g.MaxPause) // staggered starts
		for sim.Time(t) < g.Span {
			pause := rng.Uniform(g.MinPause, g.MaxPause)
			depart := t + pause
			if sim.Time(depart) > g.Span {
				depart = float64(g.Span)
			}
			visitsAt[cur] = append(visitsAt[cur], visit{node: contact.NodeID(n), arrive: t, depart: depart})
			if sim.Time(depart) >= g.Span {
				break
			}
			// Choose a different next point and travel there.
			next := rng.IntN(g.Points - 1)
			if next >= cur {
				next++
			}
			d := dist(pts[cur], pts[next])
			speed := rng.Uniform(g.MinSpeed, g.MaxSpeed)
			t = depart + d/speed
			cur = next
		}
	}

	// Sweep each point's visits for pairwise dwell overlaps.
	s := &contact.Schedule{Nodes: g.Nodes}
	for _, vs := range visitsAt {
		sort.Slice(vs, func(i, j int) bool { return vs[i].arrive < vs[j].arrive })
		for i := 0; i < len(vs); i++ {
			for j := i + 1; j < len(vs); j++ {
				if vs[j].arrive >= vs[i].depart {
					break // sorted by arrival: no later visit overlaps vs[i]
				}
				if vs[i].node == vs[j].node {
					continue
				}
				start := vs[j].arrive
				end := math.Min(vs[i].depart, vs[j].depart)
				if end-start > g.MaxContact {
					end = start + g.MaxContact
				}
				rs, re := math.Round(start), math.Round(end)
				if re <= rs {
					continue
				}
				c := contact.Contact{
					A: vs[i].node, B: vs[j].node,
					Start: sim.Time(rs), End: sim.Time(re),
				}.Normalize()
				s.Contacts = append(s.Contacts, c)
			}
		}
	}
	s.Sort()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: RWP schedule invalid: %w", err)
	}
	return s, nil
}

// generateClassic builds every node's whole waypoint path, then samples
// all positions every SampleDT seconds and tests every pair — the
// O(nodes²) walk over a map of per-pair states.
func generateClassic(g ClassicRWP) (*contact.Schedule, error) {
	g = g.Defaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	steps := g.sampleSteps()
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

// meanSpeedDecay estimates the classic-RWP mean node speed over time by
// averaging leg speeds weighted by time, demonstrating the [19]
// pathology when MinSpeed approaches zero; it returns the mean speed in
// the first and last quarter of the span.
func meanSpeedDecay(g ClassicRWP) (early, late float64, err error) {
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

// generateInterval draws every round, then sorts: the oracle of the
// interval source's Lookahead release.
func generateInterval(g ControlledInterval) (*contact.Schedule, error) {
	g = g.Defaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	rng := sim.NewRNG(g.Seed)
	s := &contact.Schedule{Nodes: g.Nodes}
	st := newIntervalState(g.Nodes)
	for round := 0; round < g.Encounters; round++ {
		g.round(rng, st, func(c contact.Contact) { s.Contacts = append(s.Contacts, c) })
	}
	s.Sort()
	if err := s.Validate(); err != nil {
		return nil, fmt.Errorf("mobility: controlled-interval schedule invalid: %w", err)
	}
	return s, nil
}
