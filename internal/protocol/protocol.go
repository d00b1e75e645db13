// Package protocol implements every epidemic routing protocol the paper
// studies (§II) and the three enhancements it proposes (§III):
//
//	Pure epidemic          (Vahdat & Becker)        pure.go
//	P-Q epidemic           (Matsuda & Takine)       pq.go
//	Epidemic with TTL      (Harras et al.)          ttl.go
//	Epidemic with EC       (Davis et al.)           ec.go
//	Epidemic with immunity (Mundur et al.)          immunity.go
//	Dynamic TTL            (paper Algorithm 1)      dynttl.go
//	EC+TTL                 (paper Algorithm 2)      ecttl.go
//	Cumulative immunity    (paper §III)             cumimmunity.go
//
// The paper's thesis is that these are one protocol with different
// answers to a few questions, and the files say so: pure.go's base
// answers every hook as pure epidemic does, every variant embeds it,
// and each file above declares only the hooks its variant answers
// differently (DESIGN.md §3.7 is the variant × hook matrix). Spec
// grammars are not listed here: Default.Specs() generates them from the
// parameter tables in registry.go.
//
// Protocols are pure policy: the engine (internal/core) owns time, links
// and budgets, and calls the hooks below at well-defined points of each
// contact. All hooks are single-goroutine.
package protocol

import (
	"slices"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// Protocol is the policy interface every epidemic variant implements.
//
// Hook order within one contact between nodes a (lower ID) and b:
//
//  1. Init was called once per node at simulation start, with the
//     population's Slab.
//  2. Exchange(a, b, …) — the anti-entropy control session: summary
//     vectors are implicit (Wants may inspect the peer), immunity
//     variants merge tables here, bounded by recordBudget per direction.
//  3. Wants(a, b, …) then per-bundle transmission; Wants(b, a, …) with
//     the remaining slot budget.
//  4. Per transmission: OnTransmit on the copies; then either the
//     engine records a delivery and calls OnDelivered, or it calls
//     Admit on the receiver and stores the accepted copy.
type Protocol interface {
	// Name returns the protocol's display name as used in the paper's
	// figure legends.
	Name() string

	// Init attaches per-node protocol state before the run starts. A
	// stateful protocol takes n's entry of s, resets it and points
	// n.Ext at it; s must have been sized for a population holding n.
	Init(n *node.Node, s *Slab)

	// OnGenerate initializes protocol state (TTL, EC) on a copy newly
	// created at its source. The copy is pinned by the engine.
	OnGenerate(src *node.Node, cp *bundle.Copy, now sim.Time)

	// Exchange runs the control plane of an encounter in both
	// directions and returns the control records (immunity tables,
	// anti-packets, cumulative acks) the session carried, both
	// directions summed: the paper's signaling overhead, which the run
	// counts and a bandwidth-limited contact is charged for.
	// recordBudget bounds how many records each direction may carry
	// (the engine derives it from the contact duration).
	// Implementations may purge buffers.
	Exchange(a, b *node.Node, now sim.Time, recordBudget int) int

	// Wants returns the bundle IDs sender should offer receiver, in
	// transmission order. The engine transmits a prefix of this list
	// bounded by the remaining slot budget. rng and sc belong to the
	// calling executor thread (the core.Kernel), not to either node:
	// the returned slice may be backed by sc, so it is valid only until
	// the next Wants call given the same sc, and callers must copy it
	// to retain it.
	Wants(sender, receiver *node.Node, now sim.Time, rng *sim.RNG, sc *Scratch) []bundle.ID

	// OnTransmit updates copy state for one transmission: sent is the
	// sender's copy, rcpt the receiver-bound clone. Called for both
	// relay and destination receivers.
	OnTransmit(sender, receiver *node.Node, sent, rcpt *bundle.Copy, now sim.Time)

	// Admit makes room for an incoming copy at a relay, evicting
	// according to the protocol's buffer policy. It returns true if the
	// receiver should store the copy. The engine guarantees the
	// receiver does not already hold the bundle and is not its
	// destination.
	Admit(receiver *node.Node, incoming *bundle.Copy, now sim.Time) bool

	// OnDelivered notifies the protocol that a bundle just reached its
	// destination dst via sender (link-layer acknowledgment). Immunity
	// variants update tables and purge here.
	OnDelivered(dst, sender *node.Node, id bundle.ID, now sim.Time)
}

// Scratch is the reusable working memory behind Wants: the anti-entropy
// diff's partition and the assembled offer list. Its owner is an
// executor thread, one per core.Kernel, which calls one Wants at a
// time, so the slices are reused without locking; they keep their grown
// capacity, and after warm-up an offer allocates nothing. A node owns
// none: only a node that sends needs the memory, and only while it
// sends. The zero value is ready.
type Scratch struct {
	// direct and relay partition a contact's offerable bundles into
	// receiver-destined and third-party traffic.
	direct, relay []bundle.ID
	// ids is the assembled offer list handed back to the engine.
	ids []bundle.ID
}

// Slab is the memory behind Init: every node's protocol state lives in
// it by value, indexed by node ID. Its owner is a population — core's
// Runner, dist's worker — which sizes it before the first Init and
// keeps it for its later populations, as it keeps its node slab. Init
// resets a node's entry by assigning the zero state but keeps its
// storage (an i-list's backing array, a flow table's), so after
// warm-up Init allocates nothing and a later run grows no table an
// earlier run grew. The zero value is ready for Size.
type Slab struct {
	nodes int
	imm   []immunityState
	cum   []cumState
}

// Size readies s for a population of nodes nodes, IDs 0 to nodes-1. No
// state an earlier population's Init handed out may be in use after
// the call.
func (s *Slab) Size(nodes int) { s.nodes = nodes }

// slot returns node id's entry of one kind of state. The first Init of
// a kind after Size grows the kind's states to the whole population, so
// they never move while a pointer Init handed out is in use.
func slot[T any](states *[]T, nodes int, id contact.NodeID) *T {
	if len(*states) < nodes {
		*states = slices.Grow(*states, nodes-len(*states))[:nodes]
	}
	return &(*states)[id]
}

// missing returns sender's stored bundles the receiver lacks, skipping
// bundles the receiver already consumed as destination. This is the
// anti-entropy diff every variant starts from.
//
// Ordering: bundles addressed to the receiver itself go first in
// sequence order — no implementation relays third-party traffic ahead
// of the peer's own, and lowest-sequence-first delivery fills reception
// gaps, which is what lets cumulative immunity advance its prefix. The
// remaining bundles are offered in random order: a summary vector is an
// unordered set, and randomized offers are what diversify relay buffers
// — with a fixed order every relay would fill with the same
// lowest-sequence bundles and bundles beyond the buffer size could
// never ride relays at all.
// The returned slice is backed by sc: it is valid until sc's next
// use, and callers may filter it in place. Store.RangeMissing walks the
// sender's index in ascending ID order, masking off a page at a time
// what the receiver stores or received, so the direct prefix is
// already in ascending ID order — no re-sort happens here
// (TestMissingDirectPrefixOrder pins this).
//
//dtn:hotpath
func missing(sender, receiver *node.Node, rng *sim.RNG, sc *Scratch) []bundle.ID {
	direct, relay := sc.direct[:0], sc.relay[:0]
	sender.Store.RangeMissing(receiver.Store, receiver.Received, func(cp *bundle.Copy) bool {
		if cp.Bundle.Dst == receiver.ID {
			direct = append(direct, cp.Bundle.ID)
		} else {
			relay = append(relay, cp.Bundle.ID)
		}
		return true
	})
	if rng != nil {
		rng.Shuffle(len(relay), func(i, j int) { relay[i], relay[j] = relay[j], relay[i] })
	}
	ids := append(append(sc.ids[:0], direct...), relay...)
	sc.direct, sc.relay, sc.ids = direct, relay, ids
	return ids
}
