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
//     over nodes orders arrivals globally, and the node at its top is
//     re-keyed in place (one sift) rather than popped and pushed;
//   - each subscriber point heads an intrusive doubly linked list of
//     the nodes currently (or last) dwelling there, threaded through
//     the nodes themselves — a node sits in at most one list, because
//     it unlinks its previous entry on every arrival — so an arrival is
//     checked only against the O(co-located) occupants of its own
//     point, never against the other n−1 nodes;
//   - contacts form at the later arrival time, which is nondecreasing,
//     so a contact.Lookahead heap bounded by the next global arrival
//     restores the canonical order across equal rounded starts.
//
// Working memory is O(nodes + points), independent of Span; an arrival
// hashes nothing and allocates nothing.
func (g SubscriberPointRWP) Stream() (contact.Source, error) {
	g = g.Defaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	root := sim.NewRNG(g.Seed)
	placeRNG := root.Derive(0xA11)
	s := &subscriberSource{
		g:     g,
		pts:   make([]point, g.Points),
		nodes: make([]subNode, g.Nodes),
		head:  make([]int32, g.Points),
	}
	for i := range s.pts {
		s.pts[i] = point{placeRNG.Uniform(0, g.AreaSide), placeRNG.Uniform(0, g.AreaSide)}
		s.head[i] = -1
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

// validate checks a defaulted configuration.
func (g SubscriberPointRWP) validate() error {
	if g.Nodes < 2 {
		return fmt.Errorf("%w: subscriber: needs >=2 nodes, got %d", ErrSpec, g.Nodes)
	}
	if g.Points < 2 {
		return fmt.Errorf("%w: subscriber: needs >=2 points, got %d", ErrSpec, g.Points)
	}
	if km2 := (g.AreaSide / 1000) * (g.AreaSide / 1000); float64(g.Points) > 100*km2 {
		return fmt.Errorf("%w: subscriber: the paper bounds points at 100/km², got %d in %g km²", ErrSpec, g.Points, km2)
	}
	return nil
}

// subNode is one node's lazy itinerary state and its entry in the
// occupancy list of point prev.
type subNode struct {
	rng    sim.RNG
	cur    int // point being travelled to (or dwelt at)
	prev   int // point whose occupancy list holds the node, -1 if none
	arrive float64
	depart float64 // end of the dwell at prev
	link   int32   // next node in prev's list, -1 at the tail
	back   int32   // previous node in prev's list, -1 at the head
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

// arrivalHeap is a hand-rolled min-heap: it is touched once per visit
// and must not box through container/heap's interface.
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

// popTop drops the minimum.
func (h *arrivalHeap) popTop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down()
}

// down restores the heap after the root's key grew.
func (h arrivalHeap) down() {
	i, n := 0, len(h)
	for {
		kid := 2*i + 1
		if kid >= n {
			return
		}
		if kid+1 < n && h[kid+1].before(h[kid]) {
			kid++
		}
		if !h[kid].before(h[i]) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}

type subscriberSource struct {
	g        SubscriberPointRWP
	pts      []point
	nodes    []subNode
	head     []int32 // first node of each point's occupancy list, -1 if empty
	arrivals arrivalHeap
	ahead    contact.Lookahead
}

// unlink removes node n from the occupancy list it sits in. It clears
// prev, so a node another arrival already unlinked (its dwell expired)
// is never unlinked twice.
func (s *subscriberSource) unlink(n int32) {
	nd := &s.nodes[n]
	if nd.back >= 0 {
		s.nodes[nd.back].link = nd.link
	} else {
		s.head[nd.prev] = nd.link
	}
	if nd.link >= 0 {
		s.nodes[nd.link].back = nd.back
	}
	nd.prev = -1
}

// processArrival plays one node's arrival: contacts with every live
// occupant of the point, occupancy update, and the node's next hop. It
// reports whether the node arrives again within the span, at its new
// nd.arrive.
//
//dtn:hotpath
func (s *subscriberSource) processArrival(a arrival) bool {
	g := &s.g
	self := int32(a.node)
	nd := &s.nodes[self]
	t := nd.arrive
	pause := nd.rng.Uniform(g.MinPause, g.MaxPause)
	depart := t + pause
	if sim.Time(depart) > g.Span {
		depart = float64(g.Span)
	}
	p := nd.cur
	// Drop this node's previous occupancy entry before scanning, so a
	// revisit never pairs a node with itself and every node sits in at
	// most one list.
	if nd.prev >= 0 {
		s.unlink(self)
	}
	// Each occupant yields an independent contact, so list order is
	// irrelevant: the Lookahead's canonical total order erases it.
	for m := s.head[p]; m >= 0; {
		occ := &s.nodes[m]
		next := occ.link
		if occ.depart <= t {
			s.unlink(m) // dwell over before this arrival
			m = next
			continue
		}
		start := t
		end := math.Min(occ.depart, depart)
		if end-start > g.MaxContact {
			end = start + g.MaxContact
		}
		rs, re := math.Round(start), math.Round(end)
		if re > rs {
			s.ahead.Add(contact.Contact{
				A: a.node, B: contact.NodeID(m), Start: sim.Time(rs), End: sim.Time(re),
			}.Normalize())
		}
		m = next
	}
	nd.depart = depart
	nd.prev = p
	nd.back = -1
	nd.link = s.head[p]
	if nd.link >= 0 {
		s.nodes[nd.link].back = self
	}
	s.head[p] = self
	if sim.Time(depart) >= g.Span {
		return false // itinerary over
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
	return sim.Time(nd.arrive) < g.Span
}

// Next plays arrivals until a contact can be released in canonical
// order: every future contact starts at (the rounding of) an arrival
// time no earlier than the heap head, which bounds the lookahead. The
// arrival played is the heap's top; a node that arrives again keeps
// its slot, re-keyed and sifted down once, which leaves the same heap
// order as pop-then-push because (at, node) is a total order.
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
		top := s.arrivals[0]
		if s.processArrival(top) {
			s.arrivals[0].at = s.nodes[top.node].arrive
			s.arrivals.down()
		} else {
			s.arrivals.popTop()
		}
	}
}

func (s *subscriberSource) Nodes() int        { return s.g.Nodes }
func (s *subscriberSource) Horizon() sim.Time { return roundedSpan(s.g.Span) }
func (s *subscriberSource) Err() error        { return nil }
