package protocol

import (
	"dtnsim/internal/bundle"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// ECTTL is the paper's second enhancement (§III, Algorithm 2): Encounter
// Count combined with TTL.
//
//   - Eviction discipline: a copy may be evicted to make room only once
//     its EC reaches MinEC ("we define a minimum EC value before nodes
//     are allowed to delete a bundle"), so rarely-duplicated bundles
//     survive buffer pressure.
//   - Ageing discipline: once a copy's EC exceeds ECThreshold, it is
//     given the Algorithm 2 deadline TTL = TTLBase − (EC−ECThreshold) ×
//     TTLStep (clamped at zero, i.e. immediate expiry), so heavily
//     duplicated bundles drain out of buffers instead of lingering until
//     pressure forces eviction.
type ECTTL struct {
	base
	// MinEC is the minimum encounter count before a copy becomes
	// evictable under buffer pressure.
	MinEC int
	// ECThreshold is the transmission count beyond which copies age out
	// via TTL; the paper uses 8.
	ECThreshold int
	// TTLBase and TTLStep parameterize Algorithm 2's deadline; the paper
	// uses 300 and 100 seconds.
	TTLBase, TTLStep float64
}

// NewECTTL returns the enhancement with the paper's §III parameters.
func NewECTTL() *ECTTL {
	return &ECTTL{MinEC: 2, ECThreshold: 8, TTLBase: 300, TTLStep: 100}
}

// Name implements Protocol.
func (*ECTTL) Name() string { return "Epidemic with EC+TTL" }

// deadline applies Algorithm 2 to a copy: below the threshold copies
// live indefinitely; above it the remaining TTL shrinks by TTLStep per
// extra transmission.
func (e *ECTTL) deadline(cp *bundle.Copy, now sim.Time) sim.Time {
	if cp.EC <= e.ECThreshold {
		return sim.Infinity
	}
	ttl := e.TTLBase - float64(cp.EC-e.ECThreshold)*e.TTLStep
	if ttl <= 0 {
		return now // expires immediately at the next purge point
	}
	return now + sim.Time(ttl)
}

// OnTransmit implements Protocol: EC's bookkeeping, then the
// Algorithm 2 ageing rule on both copies. Ageing only ever shortens a
// deadline, so the sender's store must be told about the in-place
// change (the receiver's copy is observed by Put).
func (e *ECTTL) OnTransmit(sender, _ *node.Node, sent, rcpt *bundle.Copy, now sim.Time) {
	countEncounter(sent, rcpt)
	rcpt.Expiry = e.deadline(rcpt, now)
	if !sent.Pinned {
		sent.Expiry = e.deadline(sent, now)
		sender.Store.NoteExpiry(sent)
	}
}

// Admit implements Protocol: EC's eviction, but only among copies that
// have been transmitted at least MinEC times.
func (e *ECTTL) Admit(receiver *node.Node, incoming *bundle.Copy, now sim.Time) bool {
	return admitByEC(receiver, incoming, e.MinEC, now)
}
