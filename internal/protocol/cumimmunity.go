package protocol

import (
	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// CumulativeImmunity is the paper's third enhancement (§III): the
// destination acknowledges the highest *contiguous* bundle-sequence
// prefix it has received — "an immunity table with a bundle ID of 30
// means the destination node has received bundles 1 to 30". One record
// covers any number of bundles, so signaling overhead is one record per
// flow per encounter instead of one per delivered bundle, and a node
// keeps at most one table per flow ("a node removes any immunity tables
// that are redundant").
type CumulativeImmunity struct {
	base
	// RecordSlotFraction prices one stored cumulative table in bundle
	// slots, matching Immunity's record sizing.
	RecordSlotFraction float64
}

// NewCumulativeImmunity returns the enhancement with default sizing.
func NewCumulativeImmunity() *CumulativeImmunity {
	return &CumulativeImmunity{RecordSlotFraction: 0.2}
}

// Flow identifies a (source, destination) bundle stream.
type Flow struct {
	Src, Dst contact.NodeID
}

func flowOf(b *bundle.Bundle) Flow { return Flow{Src: b.ID.Src, Dst: b.Dst} }

// cumState is the per-node cumulative-immunity state.
type cumState struct {
	// acks[f] is the highest contiguous sequence known delivered for
	// flow f; sequences are 1-based, so 0 means nothing acknowledged.
	acks map[Flow]int
	// rcvd tracks out-of-order deliveries at a destination so the
	// contiguous prefix can advance when gaps fill. Each inner map is a
	// set: it only ever stores true.
	rcvd map[Flow]map[int]bool
	// base[f] is the flow's first sequence number once learned from a
	// delivered copy (bundle.FirstSeq); 0 means still unknown. Flows
	// sharing a source take contiguous sequence blocks, so a flow's
	// prefix must anchor at its own base rather than at 1.
	base map[Flow]int
	// order is transferTables' scratch for acks' sorted keys, reused
	// across contacts; it is not state and is never snapshotted.
	order []Flow
}

func cumOf(n *node.Node) *cumState { return n.Ext.(*cumState) }

// Name implements Protocol.
func (*CumulativeImmunity) Name() string { return "Epidemic with cumulative immunity" }

// Init implements Protocol.
func (*CumulativeImmunity) Init(n *node.Node) {
	n.Ext = &cumState{acks: make(map[Flow]int), rcvd: make(map[Flow]map[int]bool), base: make(map[Flow]int)}
}

func (ci *CumulativeImmunity) refreshControlLoad(n *node.Node) {
	n.Store.SetControlLoad(float64(len(cumOf(n).acks)) * ci.RecordSlotFraction)
}

// purgeAcked drops copies covered by the node's tables.
func purgeAcked(n *node.Node, now sim.Time) {
	st := cumOf(n)
	n.Store.PurgeMatching(func(cp *bundle.Copy) bool {
		return cp.Bundle.ID.Seq <= st.acks[flowOf(cp.Bundle)]
	}, func(id bundle.ID) { n.NotePurged(id, now) })
}

// Exchange implements Protocol: each side transmits its table(s) blind —
// "the destination transmits an immunity table for each node that it
// meets" — one record per flow regardless of load, within the record
// budget. The receiver keeps the dominant table per flow.
//
// Additionally, a node in contact with a bundle's *destination* learns
// from the anti-entropy summary-vector exchange exactly which bundles
// that destination has already consumed (the m-list is on the air
// anyway), and purges those copies even when the cumulative prefix has
// not reached them yet. Without this, copies delivered out of order
// would keep circulating until the prefix catches up.
//
//dtn:hotpath
func (ci *CumulativeImmunity) Exchange(a, b *node.Node, now sim.Time, recordBudget int) {
	ci.transferTables(a, b, recordBudget)
	ci.transferTables(b, a, recordBudget)
	purgeReceivedByPeer(a, b, now)
	purgeReceivedByPeer(b, a, now)
	purgeAcked(a, now)
	purgeAcked(b, now)
	ci.refreshControlLoad(a)
	ci.refreshControlLoad(b)
}

// purgeReceivedByPeer drops n's copies of bundles the peer has already
// consumed as their destination.
func purgeReceivedByPeer(n, peer *node.Node, now sim.Time) {
	if peer.Received.Len() == 0 {
		return
	}
	n.Store.PurgeMatching(func(cp *bundle.Copy) bool {
		return cp.Bundle.Dst == peer.ID && peer.Received.Has(cp.Bundle.ID)
	}, func(id bundle.ID) { n.NotePurged(id, now) })
}

func (ci *CumulativeImmunity) transferTables(from, to *node.Node, budget int) {
	fs, ts := cumOf(from), cumOf(to)
	fs.order = appendSortedFlows(fs.order[:0], fs.acks)
	for _, f := range fs.order {
		if budget <= 0 {
			return
		}
		from.ControlSent++
		budget--
		if fs.acks[f] > ts.acks[f] {
			ts.acks[f] = fs.acks[f]
		}
	}
}

// Wants implements Protocol: skip bundles covered by the receiver's
// tables (the sender's own copies are already purged).
//
//dtn:hotpath
func (*CumulativeImmunity) Wants(sender, receiver *node.Node, _ sim.Time, rng *sim.RNG, sc *Scratch) []bundle.ID {
	rs := cumOf(receiver)
	candidates := missing(sender, receiver, rng, sc)
	out := candidates[:0]
	for _, id := range candidates {
		cp := sender.Store.Get(id)
		if cp != nil && id.Seq <= rs.acks[flowOf(cp.Bundle)] {
			continue
		}
		out = append(out, id)
	}
	return out
}

// OnDelivered implements Protocol: the destination records the arrival,
// advances its contiguous prefix, and the sender — having observed the
// delivery on-link — adopts the new table, drops covered copies, and
// drops its copy of the just-delivered bundle.
func (ci *CumulativeImmunity) OnDelivered(dst, sender *node.Node, id bundle.ID, now sim.Time) {
	cp := sender.Store.Get(id)
	var f Flow
	ds := cumOf(dst)
	if cp != nil {
		f = flowOf(cp.Bundle)
		if ds.base[f] == 0 {
			if b := cp.Bundle.FirstSeq; b > 1 {
				ds.base[f] = b
			} else {
				ds.base[f] = 1
			}
		}
	} else {
		// Copy already gone (e.g. purged mid-contact); the destination
		// is the flow's endpoint, so reconstruct the key from the
		// delivery itself. The flow base stays unknown until a delivery
		// arrives with its copy intact.
		f = Flow{Src: id.Src, Dst: dst.ID}
	}
	if ds.rcvd[f] == nil {
		ds.rcvd[f] = make(map[int]bool)
	}
	ds.rcvd[f][id.Seq] = true
	// Once the flow's base is known, skip the nonexistent sequences
	// below it; without this a flow whose block starts above 1 could
	// never advance past its (vacuously missing) low seqs. Walking the
	// received set itself is always sound: it only acks sequences that
	// actually arrived.
	if base := ds.base[f]; base != 0 && ds.acks[f] < base-1 {
		ds.acks[f] = base - 1
	}
	for ds.rcvd[f][ds.acks[f]+1] {
		ds.acks[f]++
	}
	// Link-layer feedback: the sender learns the destination's table and
	// sheds its delivered copy even when the prefix has not reached it.
	ss := cumOf(sender)
	if ds.acks[f] > ss.acks[f] {
		ss.acks[f] = ds.acks[f]
	}
	if sender.Store.Remove(id) {
		sender.NotePurged(id, now)
	}
	purgeAcked(sender, now)
	ci.refreshControlLoad(dst)
	ci.refreshControlLoad(sender)
}
