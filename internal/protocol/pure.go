package protocol

import (
	"dtnsim/internal/bundle"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// base is pure epidemic's answer to every Protocol hook except Name.
// Each variant embeds it and declares only the hooks it answers
// differently, so a protocol's file is its delta from pure epidemic
// (DESIGN.md §3.7 tabulates the deltas). Name is deliberately missing:
// a variant that forgets its legend label does not compile.
type base struct{}

// Init: no per-node state beyond the store itself.
func (base) Init(*node.Node, *Slab) {}

// OnGenerate: no TTL; the counter starts at the Copy's zero EC.
func (base) OnGenerate(_ *node.Node, cp *bundle.Copy, _ sim.Time) {
	cp.Expiry = sim.Infinity
}

// Exchange: the summary-vector session carries no extra control records.
//
//dtn:hotpath
func (base) Exchange(_, _ *node.Node, _ sim.Time, _ int) int { return 0 }

// Wants: everything the receiver is missing.
//
//dtn:hotpath
func (base) Wants(sender, receiver *node.Node, _ sim.Time, rng *sim.RNG, sc *Scratch) []bundle.ID {
	return missing(sender, receiver, rng, sc)
}

// OnTransmit: copies carry no mutable state.
func (base) OnTransmit(_, _ *node.Node, _, _ *bundle.Copy, _ sim.Time) {}

// Admit: drop-tail — refuse when full.
func (base) Admit(receiver *node.Node, incoming *bundle.Copy, now sim.Time) bool {
	if receiver.Store.Free() <= 0 {
		receiver.NoteDrop(incoming.Bundle.ID, node.DropRefused, now)
		return false
	}
	return true
}

// OnDelivered: no feedback channel.
func (base) OnDelivered(_, _ *node.Node, _ bundle.ID, _ sim.Time) {}

// Pure is Vahdat & Becker's epidemic routing: on every encounter, nodes
// exchange summary vectors and transmit every bundle the peer is missing.
// There is no discard policy — a full relay simply refuses new bundles —
// so buffer occupancy only ever grows (§II-A).
type Pure struct{ base }

// NewPure returns the pure epidemic protocol.
func NewPure() *Pure { return &Pure{} }

// Name implements Protocol.
func (*Pure) Name() string { return "Pure epidemic" }
