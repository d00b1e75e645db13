package mobility

import (
	"fmt"
	"math"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// ControlledInterval generates the Fig. 14 scenarios: a population where
// every node has a bounded number of encounters and the gap between a
// node's successive encounters never exceeds MaxInterval. The paper runs
// it with 20 nodes, at most 20 encounters per node, and MaxInterval of
// 400 s versus 2000 s to show constant-TTL's sensitivity to encounter
// intervals: with TTL=300 s most 100–400 s gaps can be bridged by a
// relayed copy before it expires, while 100–2000 s gaps mostly cannot.
//
// Encounters happen in rounds: each round the population is randomly
// paired off; a pair's meeting starts Uniform(MinInterval, MaxInterval)
// seconds after the later partner's previous meeting started (the
// paper bounds the interval between successive encounters, a
// start-to-start measure), anchored at the previous meeting's *end*
// whenever that drawn start would fall inside it — a node is never in
// two meetings at once (the stream tests and FuzzIntervalStream check
// this). An earlier revision skipped the end anchor, so a long meeting
// could overlap the next one drawn from a short interval. The meeting
// lasts Uniform(MinDur, MaxDur) seconds; every node gets exactly
// Encounters meetings (one per round when the population is even).
type ControlledInterval struct {
	Nodes       int
	Encounters  int     // encounters per node
	MinInterval float64 // seconds
	MaxInterval float64 // seconds
	MinDur      float64 // seconds
	MaxDur      float64 // seconds
	Seed        uint64
}

// Defaults fills unset fields with the Fig. 14 parameters (the 400 s
// scenario; set MaxInterval explicitly for the 2000 s one). Run this
// scenario with a faster link than the trace (experiment.IntervalScenario
// uses 25 s/bundle) so twenty encounters carry a workload-scale number
// of bundles while contacts stay short relative to the TTL, as the
// paper's delivery ratios imply.
func (g ControlledInterval) Defaults() ControlledInterval {
	if g.Nodes == 0 {
		g.Nodes = 20
	}
	if g.Encounters == 0 {
		g.Encounters = 20
	}
	if g.MinInterval == 0 {
		g.MinInterval = 100
	}
	if g.MaxInterval == 0 {
		g.MaxInterval = 400
	}
	if g.MinDur == 0 {
		g.MinDur = 100
	}
	if g.MaxDur == 0 {
		g.MaxDur = 300
	}
	return g
}

// maxIntervalDraws bounds nodes × encounters: the pair draws Stream's
// horizon pre-pass plays before its first contact, and the run plays
// again. It admits MaxNodes at the default 20 encounters. Measured on a
// 2-core Intel Xeon, that pre-pass takes 5.7 s (135 ns a draw, cache
// bound); 20 nodes × 2²⁰ encounters take 0.8 s (38 ns a draw). Past it,
// encounters=2147483647 at 20 nodes would spend hours before the run
// began.
const maxIntervalDraws = 20 * MaxNodes

// validate checks a defaulted configuration.
func (g ControlledInterval) validate() error {
	if g.Nodes < 2 {
		return fmt.Errorf("%w: interval: needs >=2 nodes, got %d", ErrSpec, g.Nodes)
	}
	if g.Encounters > maxIntervalDraws/g.Nodes {
		return fmt.Errorf("%w: interval: %d nodes × %d encounters exceed the bound of %d draws",
			ErrSpec, g.Nodes, g.Encounters, maxIntervalDraws)
	}
	if g.MaxInterval < g.MinInterval {
		return fmt.Errorf("%w: interval: max %v < min %v", ErrSpec, g.MaxInterval, g.MinInterval)
	}
	return nil
}

// intervalState tracks each node's previous meeting window: the start
// anchors the paper's start-to-start interval draw, the end is the
// floor below which the next meeting may not begin.
type intervalState struct{ start, end []float64 }

func newIntervalState(nodes int) *intervalState {
	return &intervalState{start: make([]float64, nodes), end: make([]float64, nodes)}
}

// round draws one pairing round into emit. Factoring the draw loop
// keeps Stream and its horizon pre-pass on one RNG sequence by
// construction.
func (g ControlledInterval) round(rng *sim.RNG, st *intervalState, emit func(contact.Contact)) {
	perm := rng.Perm(g.Nodes)
	for k := 0; k+1 < len(perm); k += 2 {
		a := contact.NodeID(perm[k])
		b := contact.NodeID(perm[k+1])
		start := math.Max(st.start[a], st.start[b]) + rng.Uniform(g.MinInterval, g.MaxInterval)
		// End anchor: a drawn interval shorter than the previous
		// meeting's duration would start this one inside it.
		start = math.Max(start, math.Max(st.end[a], st.end[b]))
		end := start + rng.Uniform(g.MinDur, g.MaxDur)
		rs, re := math.Round(start), math.Round(end)
		if re > rs {
			emit(contact.Contact{
				A: a, B: b, Start: sim.Time(rs), End: sim.Time(re),
			}.Normalize())
		}
		st.start[a], st.start[b] = start, start
		st.end[a], st.end[b] = end, end
	}
}

// Stream returns the model as a pull-based contact source, its one
// implementation. Rounds are drawn lazily into a contact.Lookahead
// heap: a contact drawn in a later round can start before one drawn
// earlier (nodes' renewal chains progress at different rates), but
// never before min(last) + MinInterval, which bounds the release. The horizon — needed up front, and unknowable without
// playing the renewal chains out — comes from a contact-free pre-pass
// over the same draw sequence: O(nodes·encounters) time, O(nodes)
// memory, no contact storage.
func (g ControlledInterval) Stream() (contact.Source, error) {
	g = g.Defaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	var horizon sim.Time
	pre := sim.NewRNG(g.Seed)
	st := newIntervalState(g.Nodes)
	for round := 0; round < g.Encounters; round++ {
		g.round(pre, st, func(c contact.Contact) {
			if c.End > horizon {
				horizon = c.End
			}
		})
	}
	return &intervalSource{
		g:       g,
		rng:     sim.NewRNG(g.Seed),
		st:      newIntervalState(g.Nodes),
		horizon: horizon,
	}, nil
}

type intervalSource struct {
	g       ControlledInterval
	rng     *sim.RNG
	st      *intervalState
	round   int
	horizon sim.Time
	ahead   contact.Lookahead
}

// bound returns a lower bound on the start of every contact in rounds
// not yet drawn: no node meets again before its previous meeting's
// start plus MinInterval, and the end anchor only pushes starts later
// (rounding is monotone, so rounding the bound keeps it below every
// future rounded start).
func (s *intervalSource) bound() sim.Time {
	if s.round >= s.g.Encounters {
		return sim.Infinity
	}
	minStart := math.Inf(1)
	for _, v := range s.st.start {
		if v < minStart {
			minStart = v
		}
	}
	return sim.Time(math.Round(minStart + s.g.MinInterval))
}

func (s *intervalSource) Next() (contact.Contact, bool) {
	for {
		if c, ok := s.ahead.Pop(s.bound()); ok {
			return c, true
		}
		if s.round >= s.g.Encounters {
			return contact.Contact{}, false
		}
		s.g.round(s.rng, s.st, s.ahead.Add)
		s.round++
	}
}

func (s *intervalSource) Nodes() int        { return s.g.Nodes }
func (s *intervalSource) Horizon() sim.Time { return s.horizon }
func (s *intervalSource) Err() error        { return nil }
