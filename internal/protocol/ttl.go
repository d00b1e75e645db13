package protocol

import (
	"fmt"

	"dtnsim/internal/bundle"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// TTL is epidemic routing with a constant Time-To-Live (Harras et al.):
// a copy's TTL starts counting down once the bundle is "transmitted and
// stored in a buffer" — i.e. at relays, not at the source — and is
// renewed whenever the bundle is forwarded again before expiring (§II-B,
// Fig. 6 in the paper). Source copies keep pure epidemic's "no
// deadline"; expired copies are purged; a full relay refuses new
// bundles.
type TTL struct {
	base
	// TTL is the constant time-to-live in seconds. The paper sweeps
	// {50,100,150,200} and uses 300 in the comparative experiments.
	TTL float64
}

// NewTTL returns epidemic-with-TTL using the given constant value.
func NewTTL(ttl float64) *TTL {
	if ttl <= 0 {
		panic(fmt.Sprintf("protocol: TTL must be positive, got %v", ttl))
	}
	return &TTL{TTL: ttl}
}

// Name implements Protocol.
func (t *TTL) Name() string { return fmt.Sprintf("Epidemic with TTL=%g", t.TTL) }

// OnTransmit implements Protocol: the receiver's copy starts a fresh
// countdown and the sender's copy is renewed ("if a bundle is
// transmitted to other nodes before its TTL expires, the bundle's TTL
// value is renewed"). The sender's store is told about the in-place
// deadline change so its min-expiry bound stays conservative; the
// receiver's copy is not stored yet, so Put will observe it.
func (t *TTL) OnTransmit(sender, _ *node.Node, sent, rcpt *bundle.Copy, now sim.Time) {
	rcpt.Expiry = now + sim.Time(t.TTL)
	if !sent.Pinned {
		sent.Expiry = now + sim.Time(t.TTL)
		sender.Store.NoteExpiry(sent)
	}
}
