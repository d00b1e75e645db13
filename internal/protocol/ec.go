package protocol

import (
	"dtnsim/internal/bundle"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// EC is epidemic routing with Encounter Count (Davis et al.): each copy
// carries a counter incremented on every transmission (the receiver
// inherits the incremented value — paper Fig. 5: bundles with EC 3,2,6
// arrive as 4,3,7). A full buffer makes room for a never-seen incoming
// bundle by evicting the stored copy with the highest EC: a high count
// means many duplicates exist elsewhere, so the copy "can be safely
// overwritten" (§II-B).
type EC struct{ base }

// NewEC returns epidemic-with-encounter-count.
func NewEC() *EC { return &EC{} }

// Name implements Protocol.
func (*EC) Name() string { return "Epidemic with EC" }

// OnTransmit implements Protocol.
func (*EC) OnTransmit(_, _ *node.Node, sent, rcpt *bundle.Copy, _ sim.Time) {
	countEncounter(sent, rcpt)
}

// countEncounter increments the sender's counter; the receiver inherits
// the incremented value. Fresh copies start at the zero EC.
func countEncounter(sent, rcpt *bundle.Copy) {
	sent.EC++
	rcpt.EC = sent.EC
}

// evictHighestEC removes the unpinned copy with the highest EC whose
// count is at least minEC. Ties break toward the oldest copy, then the
// smallest ID, keeping runs deterministic. It reports whether a victim
// was evicted.
func evictHighestEC(n *node.Node, minEC int, now sim.Time) bool {
	var victim *bundle.Copy
	n.Store.Range(func(cp *bundle.Copy) bool {
		if cp.Pinned || cp.EC < minEC {
			return true
		}
		if victim == nil || better(cp, victim) {
			victim = cp
		}
		return true
	})
	if victim == nil {
		return false
	}
	// victim points into the store: once Remove shifts the index it
	// names the victim's successor.
	id := victim.Bundle.ID
	n.Store.Remove(id)
	n.NoteDrop(id, node.DropEvicted, now)
	return true
}

// better reports whether a should be evicted in preference to b.
func better(a, b *bundle.Copy) bool {
	if a.EC != b.EC {
		return a.EC > b.EC
	}
	if a.StoredAt != b.StoredAt {
		return a.StoredAt < b.StoredAt
	}
	return a.Bundle.ID.Less(b.Bundle.ID)
}

// Admit implements Protocol: always make room for a never-seen bundle by
// evicting the highest-EC copy ("undelivered bundles have higher
// priority even though they have a higher EC value").
func (*EC) Admit(receiver *node.Node, incoming *bundle.Copy, now sim.Time) bool {
	return admitByEC(receiver, incoming, 0, now)
}

// admitByEC admits into free space, else into the slot of the
// highest-EC copy counted at least minEC times, else refuses.
func admitByEC(receiver *node.Node, incoming *bundle.Copy, minEC int, now sim.Time) bool {
	if receiver.Store.Free() > 0 || evictHighestEC(receiver, minEC, now) {
		return true
	}
	receiver.NoteDrop(incoming.Bundle.ID, node.DropRefused, now)
	return false
}
