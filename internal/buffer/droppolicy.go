package buffer

import (
	"errors"
	"fmt"
	"sort"
	"strings"

	"dtnsim/internal/bundle"
	"dtnsim/internal/sim"
)

// ErrDropPolicy wraps drop-policy spec resolution failures.
var ErrDropPolicy = errors.New("buffer: invalid drop policy")

// DropPolicy decides which stored copy to shed when an incoming sized
// copy does not fit a store's byte capacity. The engine consults it
// only under byte pressure; the paper's slot-count policies stay in the
// protocols (Admit), untouched.
//
// Contract: Victim returns an unpinned stored copy with a positive
// payload size — evicting anything else cannot relieve byte pressure —
// or nil to refuse the incoming copy instead. Like Get's, the pointer
// points into the store and is valid until the store next mutates;
// MakeByteRoom reads the victim's ID before removing it. Selection must be
// deterministic given the policy's own state (seeded RNG included), so
// runs stay reproducible.
type DropPolicy interface {
	// Name returns the registry spec this policy resolves from.
	Name() string
	// Victim picks the next copy to drop from s, or nil to refuse the
	// incoming copy.
	Victim(s *Store) *bundle.Copy
}

// DropPolicyFactory builds a policy instance for one run; seed feeds
// randomized policies (droprandom) so victim choices are reproducible.
type DropPolicyFactory func(seed uint64) DropPolicy

// StreamPolicy is implemented by randomized drop policies that can draw
// from an externally owned stream instead of their seeded fallback. The
// engine injects its per-encounter stream (reseeded from
// sim.EncounterSeed at every contact), making victim choices a function
// of the encounter alone — the property that lets any shard worker
// replay a contact's drops bit-identically (DESIGN.md §12).
type StreamPolicy interface {
	SetStream(*sim.RNG)
}

// dropPolicies is the drop-policy registry: name to factory.
var dropPolicies = map[string]DropPolicyFactory{
	"droptail":   func(uint64) DropPolicy { return dropTail{} },
	"dropfront":  func(uint64) DropPolicy { return dropFront{} },
	"droprandom": func(seed uint64) DropPolicy { return &dropRandom{rng: sim.NewRNG(seed)} },
}

// NewDropPolicy resolves a drop-policy name to a fresh instance. All
// failures wrap ErrDropPolicy; it never panics, making it the safe
// boundary for user-supplied specs.
func NewDropPolicy(name string, seed uint64) (DropPolicy, error) {
	f, ok := dropPolicies[name]
	if !ok {
		return nil, fmt.Errorf("%w: unknown policy %q (have %s)",
			ErrDropPolicy, name, strings.Join(DropPolicyNames(), ", "))
	}
	return f(seed), nil
}

// ValidDropPolicy reports whether name resolves in the registry.
func ValidDropPolicy(name string) bool {
	_, ok := dropPolicies[name]
	return ok
}

// CheckDropPolicy validates a config-level drop-policy name: empty
// (meaning "the default") and registered names pass; anything else
// returns the registry's unknown-policy error for the caller to wrap
// in its own sentinel. Config boundaries share this so the message has
// one source of truth. The error wraps ErrDropPolicy, keeping the
// registry contract uniform: every policy-resolution failure answers
// errors.Is(err, ErrDropPolicy) whichever boundary reported it
// (dtnlint's errsentinel pass enforces this).
func CheckDropPolicy(name string) error {
	if name == "" || ValidDropPolicy(name) {
		return nil
	}
	return fmt.Errorf("%w: unknown drop policy %q (have %s)",
		ErrDropPolicy, name, strings.Join(DropPolicyNames(), ", "))
}

// DropPolicyNames returns the registered policy names, sorted.
func DropPolicyNames() []string {
	out := make([]string, 0, len(dropPolicies))
	for name := range dropPolicies {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// DefaultDropPolicy is the policy byte-capacity configs get when they
// name none: droptail, the paper's implicit policy everywhere a full
// buffer simply refuses new bundles.
const DefaultDropPolicy = "droptail"

// evictable reports whether dropping c can relieve byte pressure.
func evictable(c *bundle.Copy) bool { return !c.Pinned && c.Bundle.Meta.Size > 0 }

// dropTail never evicts: arriving traffic is shed, stored traffic kept.
type dropTail struct{}

func (dropTail) Name() string               { return "droptail" }
func (dropTail) Victim(*Store) *bundle.Copy { return nil }

// dropFront evicts the oldest stored copy (minimum StoredAt, ties
// broken by bundle ID so runs are deterministic).
type dropFront struct{}

func (dropFront) Name() string { return "dropfront" }

func (dropFront) Victim(s *Store) *bundle.Copy {
	var victim *bundle.Copy
	s.Range(func(c *bundle.Copy) bool {
		if !evictable(c) {
			return true
		}
		// Range walks ascending bundle IDs, so a strict StoredAt
		// comparison keeps the smallest-ID copy among ties.
		if victim == nil || c.StoredAt < victim.StoredAt {
			victim = c
		}
		return true
	})
	return victim
}

// dropRandom evicts a uniformly random evictable copy (reservoir
// sampling over the store's deterministic iteration order). Draws come
// from the injected stream when the engine set one (SetStream), else
// from the policy's own seeded RNG, so choices replay exactly either
// way.
type dropRandom struct{ rng *sim.RNG }

func (*dropRandom) Name() string { return "droprandom" }

// SetStream implements StreamPolicy: subsequent Victim draws pull from
// the engine's per-encounter stream.
func (p *dropRandom) SetStream(rng *sim.RNG) { p.rng = rng }

func (p *dropRandom) Victim(s *Store) *bundle.Copy {
	var victim *bundle.Copy
	n := 0
	s.Range(func(c *bundle.Copy) bool {
		if !evictable(c) {
			return true
		}
		n++
		if p.rng.IntN(n) == 0 {
			victim = c
		}
		return true
	})
	return victim
}

// MakeByteRoom evicts copies chosen by policy until an unpinned copy of
// the given payload size fits the byte capacity, calling evicted with
// each evicted copy's ID (already removed from the store) in eviction
// order. It reports whether the incoming copy now fits; on false the
// caller refuses it. A copy larger than the whole byte capacity is
// refused up front, before anything is evicted.
//
// Every victim satisfies the DropPolicy contract (unpinned, positive
// size), so each round strictly shrinks the unpinned byte load and the
// loop terminates.
//
//dtn:hotpath
func (s *Store) MakeByteRoom(size int64, policy DropPolicy, evicted func(bundle.ID)) bool {
	if s.FitsBytes(size) {
		return true
	}
	if size > s.capBytes {
		return false
	}
	for !s.FitsBytes(size) {
		v := policy.Victim(s)
		if v == nil {
			return false
		}
		if !evictable(v) {
			panic(fmt.Sprintf("buffer: drop policy %q picked non-evictable victim %v", policy.Name(), v.Bundle.ID))
		}
		// v points into the store: once Remove shifts the index it
		// names the victim's successor.
		id := v.Bundle.ID
		s.Remove(id)
		evicted(id)
	}
	return true
}
