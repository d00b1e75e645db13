package protocol

import (
	"dtnsim/internal/bundle"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// DynamicTTL is the paper's first enhancement (§III, Algorithm 1): the
// TTL of a stored copy is set to Multiplier × the storing node's interval
// between its last two encounters. Sparse neighbourhoods (long
// inter-contact gaps) thus buffer bundles longer, dense ones recycle
// buffer space faster. A node with no interval history yet stores the
// copy without a deadline.
type DynamicTTL struct {
	base
	// Multiplier scales the last inter-encounter interval; the paper
	// uses 2.0 ("a bundle's TTL value is set to double the interval
	// time between the last two encounters").
	Multiplier float64
}

// NewDynamicTTL returns the enhancement with the paper's 2× multiplier.
func NewDynamicTTL() *DynamicTTL { return &DynamicTTL{Multiplier: 2.0} }

// Name implements Protocol.
func (*DynamicTTL) Name() string { return "Epidemic with dynamic TTL" }

// expiry computes Algorithm 1's deadline for a copy stored at n at time
// now.
func (d *DynamicTTL) expiry(n *node.Node, now sim.Time) sim.Time {
	if n.LastInterval <= 0 {
		return sim.Infinity // no history yet: hold until the network teaches us
	}
	return now + sim.Time(d.Multiplier*n.LastInterval)
}

// OnTransmit implements Protocol: the receiver's deadline reflects the
// receiver's encounter rhythm; the sender's copy is renewed with the
// sender's, mirroring constant TTL's renewal rule. A shrinking
// encounter interval can lower the sender's deadline in place, so the
// store's min-expiry bound is notified.
func (d *DynamicTTL) OnTransmit(sender, receiver *node.Node, sent, rcpt *bundle.Copy, now sim.Time) {
	rcpt.Expiry = d.expiry(receiver, now)
	if !sent.Pinned {
		sent.Expiry = d.expiry(sender, now)
		sender.Store.NoteExpiry(sent)
	}
}
