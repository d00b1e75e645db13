package mobility

import (
	"fmt"
	"math"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// Stream returns the model as a pull-based contact source, its one
// implementation: every unordered pair is an independent renewal
// process drawn lazily from its own RNG stream, and a k-way merge heap
// releases the per-pair streams in canonical order. Working memory is
// O(pairs) — each pair holds one RNG, by value, and one pending
// contact — independent of the contact count, which grows with Span.
//
// With few nodes or a short span, a draw can place every pair's first
// encounter beyond the span. An empty plan is unusable, so Stream
// deterministically retries with a derived root stream until some pair
// meets; the first attempt is the historical draw, so existing seeds
// reproduce their traces. Emptiness is decidable at construction
// because every pair's first contact is pulled to prime the merge heap.
func (g SyntheticCambridge) Stream() (contact.Source, error) {
	g = g.Defaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	const maxAttempts = 16
	for attempt := 0; attempt < maxAttempts; attempt++ {
		src := g.newStream(sim.NewRNG(g.Seed + uint64(attempt)*0x9e3779b97f4a7c15))
		if len(src.merge) > 0 {
			return src, nil
		}
	}
	return nil, fmt.Errorf("mobility: no contacts within span %v after %d attempts; increase Span or Nodes",
		g.Span, maxAttempts)
}

// validate checks a defaulted configuration. A span too short for any
// pair to meet passes: that is known only once the pairs are drawn.
func (g SyntheticCambridge) validate() error {
	if g.Nodes < 2 {
		return fmt.Errorf("%w: cambridge: needs >=2 nodes, got %d", ErrSpec, g.Nodes)
	}
	if g.Span <= 0 {
		return fmt.Errorf("%w: cambridge: needs a positive span, got %v", ErrSpec, g.Span)
	}
	return nil
}

// pairRenewal is one unordered pair's lazy renewal process (the
// SyntheticCambridge doc gives its draws); contact times are clamped to
// the span and rounded to whole seconds.
type pairRenewal struct {
	a, b     contact.NodeID
	rng      sim.RNG
	activity float64
	t        float64
	done     bool
}

// next advances the renewal process to its next non-degenerate contact.
func (p *pairRenewal) next(g SyntheticCambridge) (contact.Contact, bool) {
	for !p.done {
		gap := p.rng.Pareto(g.Alpha, g.MinGap, g.MaxGap) * g.diurnalFactor(p.t) / p.activity
		p.t += gap
		if sim.Time(p.t) >= g.Span {
			p.done = true
			return contact.Contact{}, false
		}
		dur := p.rng.LogNormal(math.Log(g.MedianDur), g.DurSigma)
		if dur < g.MinDur {
			dur = g.MinDur
		}
		if dur > g.MaxDur {
			dur = g.MaxDur
		}
		end := p.t + dur
		if sim.Time(end) > g.Span {
			end = float64(g.Span)
		}
		rs, re := math.Round(p.t), math.Round(end)
		p.t = end
		if re > rs {
			return contact.Contact{A: p.a, B: p.b, Start: sim.Time(rs), End: sim.Time(re)}, true
		}
	}
	return contact.Contact{}, false
}

// syntheticSource merges the per-pair renewal streams. Each pair's
// contacts strictly increase in start time, so holding one pending
// contact per pair in a heap ordered by contact.Less yields the global
// canonical order.
type syntheticSource struct {
	g     SyntheticCambridge
	pairs []pairRenewal
	merge mergeHeap
}

// mergeEntry is one pair's pending contact in the merge heap.
type mergeEntry struct {
	c    contact.Contact
	pair int
}

// mergeHeap is a hand-rolled min-heap under contact.Less: Next touches
// it once per contact and must not box through container/heap's
// interface. Pairs are distinct, so the order is total and the release
// order does not depend on the heap's shape.
type mergeHeap []mergeEntry

// down sifts entry i toward the leaves until neither child is less.
func (h mergeHeap) down(i int) {
	n := len(h)
	for {
		kid := 2*i + 1
		if kid >= n {
			return
		}
		if kid+1 < n && contact.Less(h[kid+1].c, h[kid].c) {
			kid++
		}
		if !contact.Less(h[kid].c, h[i].c) {
			return
		}
		h[i], h[kid] = h[kid], h[i]
		i = kid
	}
}

// newStream primes one attempt: pair RNGs are derived from the root in
// (i, j) order — a dedicated stream per pair keeps the trace stable when
// the node count changes — and each pair's first contact seeds the
// merge heap.
func (g SyntheticCambridge) newStream(root *sim.RNG) *syntheticSource {
	s := &syntheticSource{g: g, pairs: make([]pairRenewal, g.Nodes*(g.Nodes-1)/2)}
	idx := 0
	for i := 0; i < g.Nodes; i++ {
		for j := i + 1; j < g.Nodes; j++ {
			p := &s.pairs[idx]
			idx++
			p.a, p.b = contact.NodeID(i), contact.NodeID(j)
			root.DeriveInto(uint64(i)<<32|uint64(j), &p.rng)
			p.activity = p.rng.Uniform(1-g.PairActivity, 1+g.PairActivity)
			p.t = p.rng.Uniform(0, g.MaxGap/4)
		}
	}
	for idx := range s.pairs {
		if c, ok := s.pairs[idx].next(g); ok {
			s.merge = append(s.merge, mergeEntry{c: c, pair: idx})
		}
	}
	for i := len(s.merge)/2 - 1; i >= 0; i-- {
		s.merge.down(i)
	}
	return s
}

// Next pops the globally least pending contact and refills its pair.
//
//dtn:hotpath
func (s *syntheticSource) Next() (contact.Contact, bool) {
	if len(s.merge) == 0 {
		return contact.Contact{}, false
	}
	out := s.merge[0]
	if c, ok := s.pairs[out.pair].next(s.g); ok {
		s.merge[0].c = c
	} else {
		last := len(s.merge) - 1
		s.merge[0] = s.merge[last]
		s.merge = s.merge[:last]
	}
	s.merge.down(0)
	return out.c, true
}

func (s *syntheticSource) Nodes() int        { return s.g.Nodes }
func (s *syntheticSource) Horizon() sim.Time { return roundedSpan(s.g.Span) }
func (s *syntheticSource) Err() error        { return nil }

// roundedSpan is the Horizon of a source that clamps contact times to a
// span and then rounds them to whole seconds: rounding can carry an end
// past a fractional span, never past the next whole second.
func roundedSpan(span sim.Time) sim.Time { return sim.Time(math.Ceil(float64(span))) }
