package mobility

import (
	"fmt"
	"math"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// Stream returns the model as a pull-based contact source, its one
// implementation. Instead of building per-point visit lists for the
// whole span (O(#visits) memory) and sweeping them pairwise, as the
// test-side reference does, the itineraries are simulated lazily in
// arrival order with a per-point occupancy index:
//
//   - each node keeps only its RNG and its next arrival; a min-heap
//     over nodes orders arrivals globally;
//   - each subscriber point holds the dwell window of the nodes
//     currently (or last) occupying it — at most one entry per node,
//     because a node replaces its previous entry on every arrival — so
//     an arrival is checked only against the O(co-located) occupants of
//     its own point, never against the other n−1 nodes;
//   - contacts form at the later arrival time, which is nondecreasing,
//     so a contact.Lookahead heap bounded by the next global arrival
//     restores the canonical order across equal rounded starts.
//
// Working memory is O(nodes + points), independent of Span.
func (g SubscriberPointRWP) Stream() (contact.Source, error) {
	g = g.Defaults()
	if err := g.check(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(g.Seed)
	placeRNG := root.Derive(0xA11)
	s := &subscriberSource{
		g:         g,
		pts:       make([]point, g.Points),
		nodes:     make([]subNode, g.Nodes),
		occupants: make([]map[contact.NodeID]dwell, g.Points),
	}
	for i := range s.pts {
		s.pts[i] = point{placeRNG.Uniform(0, g.AreaSide), placeRNG.Uniform(0, g.AreaSide)}
	}
	for n := range s.nodes {
		nd := &s.nodes[n]
		root.DeriveInto(0xB00+uint64(n), &nd.rng)
		nd.prev = -1
		nd.cur = nd.rng.IntN(g.Points)
		nd.arrive = nd.rng.Uniform(0, g.MaxPause) // staggered starts
		if sim.Time(nd.arrive) < g.Span {
			s.arrivals.push(arrival{at: nd.arrive, node: contact.NodeID(n)})
		}
	}
	return s, nil
}

// check validates the generator parameters.
func (g SubscriberPointRWP) check() error {
	if g.Nodes < 2 {
		return fmt.Errorf("mobility: RWP needs >=2 nodes, got %d", g.Nodes)
	}
	if g.Points < 2 {
		return fmt.Errorf("mobility: RWP needs >=2 subscriber points, got %d", g.Points)
	}
	if km2 := (g.AreaSide / 1000) * (g.AreaSide / 1000); float64(g.Points) > 100*km2 {
		return fmt.Errorf("mobility: paper bounds subscriber points at 100/km²: %d points in %.2f km²", g.Points, km2)
	}
	return nil
}

// dwell is one node's stay at a point.
type dwell struct{ arrive, depart float64 }

// subNode is one node's lazy itinerary state.
type subNode struct {
	rng    sim.RNG
	cur    int // point being travelled to (or dwelt at)
	prev   int // point holding the node's occupancy entry, -1 if none
	arrive float64
}

// arrival orders the global node heap by next arrival time, node ID
// breaking ties deterministically (equal-time arrivals produce the same
// contacts in either processing order; the tie-break only pins the heap).
type arrival struct {
	at   float64
	node contact.NodeID
}

func (a arrival) before(b arrival) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.node < b.node
}

// arrivalHeap is a hand-rolled min-heap: the push/pop hot path runs
// once per visit and must not box through container/heap's interface.
type arrivalHeap []arrival

func (h *arrivalHeap) push(a arrival) {
	*h = append(*h, a)
	s := *h
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !s[i].before(s[parent]) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
}

func (h *arrivalHeap) pop() arrival {
	s := *h
	top := s[0]
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	s = *h
	i := 0
	for {
		kid := 2*i + 1
		if kid >= last {
			break
		}
		if kid+1 < last && s[kid+1].before(s[kid]) {
			kid++
		}
		if !s[kid].before(s[i]) {
			break
		}
		s[i], s[kid] = s[kid], s[i]
		i = kid
	}
	return top
}

type subscriberSource struct {
	g         SubscriberPointRWP
	pts       []point
	nodes     []subNode
	occupants []map[contact.NodeID]dwell
	arrivals  arrivalHeap
	ahead     contact.Lookahead
}

// processArrival plays one node's arrival: contacts with every live
// occupant of the point, occupancy update, and the node's next hop.
//
//dtn:hotpath
func (s *subscriberSource) processArrival(a arrival) {
	g := s.g
	nd := &s.nodes[a.node]
	t := nd.arrive
	pause := nd.rng.Uniform(g.MinPause, g.MaxPause)
	depart := t + pause
	if sim.Time(depart) > g.Span {
		depart = float64(g.Span)
	}
	p := nd.cur
	if s.occupants[p] == nil {
		//lint:allow hotpathalloc lazy per-point init, amortized to once per subscriber point
		s.occupants[p] = make(map[contact.NodeID]dwell)
	}
	// Drop this node's previous occupancy entry before scanning, so a
	// revisit never pairs a node with itself and every node holds at
	// most one entry across all points.
	if nd.prev >= 0 {
		delete(s.occupants[nd.prev], a.node)
	}
	// Order-insensitive despite the map range: each occupant yields an
	// independent contact (no cross-iteration state), expired-dwell
	// deletion commutes, and emission order is erased by the
	// Lookahead's canonical total order (stream goldens pin this).
	//lint:allow maporder per-occupant contacts reordered by total-order Lookahead
	for m, w := range s.occupants[p] {
		if w.depart <= t {
			delete(s.occupants[p], m) // dwell over before this arrival
			continue
		}
		start := t
		end := math.Min(w.depart, depart)
		if end-start > g.MaxContact {
			end = start + g.MaxContact
		}
		rs, re := math.Round(start), math.Round(end)
		if re > rs {
			s.ahead.Add(contact.Contact{
				A: a.node, B: m, Start: sim.Time(rs), End: sim.Time(re),
			}.Normalize())
		}
	}
	s.occupants[p][a.node] = dwell{arrive: t, depart: depart}
	nd.prev = p
	if sim.Time(depart) >= g.Span {
		return // itinerary over
	}
	// Choose a different next point and travel there.
	next := nd.rng.IntN(g.Points - 1)
	if next >= p {
		next++
	}
	d := dist(s.pts[p], s.pts[next])
	speed := nd.rng.Uniform(g.MinSpeed, g.MaxSpeed)
	nd.arrive = depart + d/speed
	nd.cur = next
	if sim.Time(nd.arrive) < g.Span {
		s.arrivals.push(arrival{at: nd.arrive, node: a.node})
	}
}

// Next plays arrivals until a contact can be released in canonical
// order: every future contact starts at (the rounding of) an arrival
// time no earlier than the heap head, which bounds the lookahead.
func (s *subscriberSource) Next() (contact.Contact, bool) {
	for {
		bound := sim.Infinity
		if len(s.arrivals) > 0 {
			bound = sim.Time(math.Round(s.arrivals[0].at))
		}
		if c, ok := s.ahead.Pop(bound); ok {
			return c, true
		}
		if len(s.arrivals) == 0 {
			return contact.Contact{}, false
		}
		s.processArrival(s.arrivals.pop())
	}
}

func (s *subscriberSource) Nodes() int        { return s.g.Nodes }
func (s *subscriberSource) Horizon() sim.Time { return roundedSpan(s.g.Span) }
func (s *subscriberSource) Err() error        { return nil }
