// Package contact defines the contact (encounter) abstraction shared by
// the mobility models and the simulation engine. A DTN's connectivity is
// fully described by when pairs of nodes are within radio range; every
// mobility source in this repository — parsed CRAWDAD-style traces, the
// synthetic Cambridge generator, and both RWP variants — reduces to a
// Schedule of Contacts that the engine replays.
package contact

import (
	"errors"
	"fmt"
	"math"
	"sort"

	"dtnsim/internal/sim"
)

// NodeID identifies a node. IDs are dense small integers [0, N).
type NodeID int

// Contact is one encounter window between two nodes. Invariants
// (enforced by Validate): A < B, 0 <= Start < End < sim.Infinity,
// Bandwidth non-negative and finite.
type Contact struct {
	A, B  NodeID
	Start sim.Time
	End   sim.Time
	// Bandwidth is this contact's link capacity in bytes per second;
	// zero means "unset" — the engine falls back to its global
	// core.Config.Bandwidth, and when that too is zero the contact is
	// capacity-unbounded (the legacy slots-only model). The field rides
	// through streaming sources untouched, so heterogeneous-link contact
	// plans stay O(nodes) in memory like any other.
	Bandwidth float64
}

// Duration returns the length of the encounter window.
func (c Contact) Duration() sim.Duration { return c.End - c.Start }

// Normalize returns the contact with endpoints ordered so that A < B.
func (c Contact) Normalize() Contact {
	if c.A > c.B {
		c.A, c.B = c.B, c.A
	}
	return c
}

func (c Contact) String() string {
	return fmt.Sprintf("contact(%d<->%d, %v..%v)", c.A, c.B, c.Start, c.End)
}

// Validate checks the contact invariants.
func (c Contact) Validate() error {
	switch {
	case c.A == c.B:
		return fmt.Errorf("contact: self-contact on node %d", c.A)
	case c.A > c.B:
		return fmt.Errorf("contact: endpoints not normalized (%d > %d)", c.A, c.B)
	// `!(>= 0)` and `!(>)` also reject NaN, which would otherwise slip
	// past a `<` check: a NaN time passes every sort and bound test, and
	// a NaN bandwidth would silently run the contact unconstrained.
	case !(c.Start >= 0) || c.Start >= sim.Infinity:
		return fmt.Errorf("contact: start %v must be non-negative and below %g", float64(c.Start), float64(sim.Infinity))
	case !(c.End > c.Start):
		return fmt.Errorf("contact: empty or inverted window %v..%v", c.Start, c.End)
	// sim.Infinity is the engine's "never": an end at or past it (an
	// infinite one included) would make a run's horizon a time that
	// never comes, and a run to it would sample forever.
	case c.End >= sim.Infinity:
		return fmt.Errorf("contact: end %v must be below %g", float64(c.End), float64(sim.Infinity))
	case !(c.Bandwidth >= 0) || math.IsInf(c.Bandwidth, 0):
		return fmt.Errorf("contact: bandwidth %v must be finite and non-negative", c.Bandwidth)
	}
	return nil
}

// Schedule is a set of contacts ordered by start time (ties broken by
// (A, B, End) so ordering is total and deterministic).
type Schedule struct {
	Contacts []Contact
	// Nodes is the number of nodes in the scenario; node IDs in
	// Contacts lie in [0, Nodes).
	Nodes int
}

// ErrEmptySchedule is returned when a schedule contains no contacts.
var ErrEmptySchedule = errors.New("contact: empty schedule")

// Sort orders contacts canonically under Less: by start, then
// endpoints, then end.
func (s *Schedule) Sort() {
	sort.Slice(s.Contacts, func(i, j int) bool {
		return Less(s.Contacts[i], s.Contacts[j])
	})
}

// Validate checks every contact, node-ID bounds, and canonical ordering.
func (s *Schedule) Validate() error {
	_, err := s.check()
	return err
}

// Checked validates the schedule as Validate does and returns its
// stream, whose horizon the same pass found: a caller that runs a
// schedule it has not validated reads each contact once before the run.
func (s *Schedule) Checked() (*ScheduleSource, error) {
	h, err := s.check()
	if err != nil {
		return nil, err
	}
	return &ScheduleSource{s: s, horizon: h}, nil
}

// check is Validate, and returns the horizon as well.
func (s *Schedule) check() (sim.Time, error) {
	if len(s.Contacts) == 0 {
		return 0, ErrEmptySchedule
	}
	if s.Nodes < 2 {
		return 0, fmt.Errorf("contact: schedule needs >=2 nodes, has %d", s.Nodes)
	}
	var h sim.Time
	for i, c := range s.Contacts {
		if err := c.Validate(); err != nil {
			return 0, fmt.Errorf("contact %d: %w", i, err)
		}
		if int(c.B) >= s.Nodes {
			return 0, fmt.Errorf("contact %d: node %d out of range [0,%d)", i, c.B, s.Nodes)
		}
		if i > 0 && s.Contacts[i-1].Start > c.Start {
			return 0, fmt.Errorf("contact %d: schedule not sorted by start time", i)
		}
		h = max(h, c.End)
	}
	return h, nil
}

// Horizon returns the latest end time across all contacts, or zero for an
// empty schedule.
func (s *Schedule) Horizon() sim.Time {
	var h sim.Time
	for _, c := range s.Contacts {
		if c.End > h {
			h = c.End
		}
	}
	return h
}

// PairKey identifies an unordered node pair.
type PairKey struct{ A, B NodeID }

// MakePairKey normalizes (a,b) into a PairKey with A < B.
func MakePairKey(a, b NodeID) PairKey {
	if a > b {
		a, b = b, a
	}
	return PairKey{a, b}
}
