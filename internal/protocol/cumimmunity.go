package protocol

import (
	"slices"

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

// cumState is the per-node cumulative-immunity state: one table per
// flow the node knows anything about, sorted by flow (Src, then Dst).
// That is the order transferTables sends in, so a truncated budget
// always sends the same flows, and a lookup is a binary search.
type cumState struct {
	flows []flowTable
}

// flowTable is what a node knows about one flow. A zero ack or base, or
// an empty seqs, means the node knows nothing of that kind: the tables
// a node stores, sends and is charged for are those with a non-zero ack.
type flowTable struct {
	flow Flow
	// ack is the highest contiguous sequence known delivered; sequences
	// are 1-based, so 0 means nothing acknowledged.
	ack int
	// base is the flow's first sequence number once learned from a
	// delivered copy (bundle.FirstSeq); 0 means still unknown. Flows
	// sharing a source take contiguous sequence blocks, so a flow's
	// prefix must anchor at its own base rather than at 1.
	base int
	// seqs is, at the destination, every sequence delivered so far,
	// ascending: out-of-order deliveries wait here until the contiguous
	// prefix reaches them.
	seqs []int
}

func cumOf(n *node.Node) *cumState { return n.Ext.(*cumState) }

// search returns where f's table is, or would be inserted, in st.flows
// and whether it is there.
func (st *cumState) search(f Flow) (int, bool) {
	return slices.BinarySearchFunc(st.flows, f, func(t flowTable, f Flow) int { return compareFlows(t.flow, f) })
}

// ackOf returns the node's acknowledged prefix of f, 0 when it has none.
func (st *cumState) ackOf(f Flow) int {
	if i, ok := st.search(f); ok {
		return st.flows[i].ack
	}
	return 0
}

// table returns f's table, inserting an empty one in flow order when
// the node has none. The pointer is valid until the next insertion.
func (st *cumState) table(f Flow) *flowTable {
	i, ok := st.search(f)
	if ok {
		return &st.flows[i]
	}
	// Lengthen by one without clearing the slot past the end: a table
	// an earlier run left there hands its seqs storage to the new one,
	// so each backing array keeps exactly one owner.
	if len(st.flows) < cap(st.flows) {
		st.flows = st.flows[:len(st.flows)+1]
	} else {
		st.flows = append(st.flows, flowTable{})
	}
	spare := st.flows[len(st.flows)-1].seqs
	copy(st.flows[i+1:], st.flows[i:])
	st.flows[i] = flowTable{flow: f, seqs: spare[:0]}
	return &st.flows[i]
}

// acked counts the flows with an acknowledged prefix: the tables the
// node stores and sends.
func (st *cumState) acked() int {
	n := 0
	for i := range st.flows {
		if st.flows[i].ack != 0 {
			n++
		}
	}
	return n
}

// receive adds seq to the flow's delivered set.
func (t *flowTable) receive(seq int) {
	if i, ok := slices.BinarySearch(t.seqs, seq); !ok {
		t.seqs = slices.Insert(t.seqs, i, seq)
	}
}

// advance moves the prefix over every delivered sequence contiguous
// with it.
func (t *flowTable) advance() {
	i, _ := slices.BinarySearch(t.seqs, t.ack+1)
	for ; i < len(t.seqs) && t.seqs[i] == t.ack+1; i++ {
		t.ack++
	}
}

// Name implements Protocol.
func (*CumulativeImmunity) Name() string { return "Epidemic with cumulative immunity" }

// Init implements Protocol: n's tables are its entry of s.
func (*CumulativeImmunity) Init(n *node.Node, s *Slab) {
	st := slot(&s.cum, s.nodes, n.ID)
	*st = cumState{flows: st.flows[:0]}
	n.Ext = st
}

func (ci *CumulativeImmunity) refreshControlLoad(n *node.Node) {
	n.Store.SetControlLoad(float64(cumOf(n).acked()) * ci.RecordSlotFraction)
}

// purgeAcked drops copies covered by the node's tables.
//
//dtn:hotpath
func purgeAcked(n *node.Node, now sim.Time) {
	st := cumOf(n)
	n.Store.PurgeMatching(func(cp *bundle.Copy) bool {
		return cp.Bundle.ID.Seq <= st.ackOf(flowOf(cp.Bundle))
	}, func(id bundle.ID) { n.NoteDrop(id, node.DropPurged, now) })
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
func (ci *CumulativeImmunity) Exchange(a, b *node.Node, now sim.Time, recordBudget int) int {
	sent := ci.transferTables(a, b, recordBudget) + ci.transferTables(b, a, recordBudget)
	purgeReceivedByPeer(a, b, now)
	purgeReceivedByPeer(b, a, now)
	purgeAcked(a, now)
	purgeAcked(b, now)
	ci.refreshControlLoad(a)
	ci.refreshControlLoad(b)
	return sent
}

// purgeReceivedByPeer drops n's copies of bundles the peer has already
// consumed as their destination.
func purgeReceivedByPeer(n, peer *node.Node, now sim.Time) {
	if peer.Received.Len() == 0 {
		return
	}
	n.Store.PurgeMatching(func(cp *bundle.Copy) bool {
		return cp.Bundle.Dst == peer.ID && peer.Received.Has(cp.Bundle.ID)
	}, func(id bundle.ID) { n.NoteDrop(id, node.DropPurged, now) })
}

// transferTables sends from's tables to the peer in flow order, one
// record per acknowledged flow, up to budget records, and returns how
// many it sent; the peer keeps the dominant prefix of each.
//
//dtn:hotpath
func (ci *CumulativeImmunity) transferTables(from, to *node.Node, budget int) int {
	fs, ts := cumOf(from), cumOf(to)
	sent := 0
	for i := range fs.flows {
		t := &fs.flows[i]
		if t.ack == 0 {
			continue
		}
		if sent >= budget {
			break
		}
		sent++
		if t.ack > ts.ackOf(t.flow) {
			ts.table(t.flow).ack = t.ack
		}
	}
	return sent
}

// Wants implements Protocol: skip bundles covered by the receiver's
// tables (the sender's own copies are already purged).
//
//dtn:hotpath
func (*CumulativeImmunity) Wants(sender, receiver *node.Node, _ sim.Time, rng *sim.RNG, sc *Scratch) []bundle.ID {
	rs := cumOf(receiver)
	direct, relay := missingBundles(sender, receiver, rng, sc)
	sc.ids = rs.appendUncovered(rs.appendUncovered(sc.ids[:0], direct), relay)
	return sc.ids
}

// appendUncovered appends the IDs of the bundles st's tables do not
// cover.
//
//dtn:hotpath
func (st *cumState) appendUncovered(out []bundle.ID, bundles []*bundle.Bundle) []bundle.ID {
	for _, b := range bundles {
		if b.ID.Seq > st.ackOf(flowOf(b)) {
			out = append(out, b.ID)
		}
	}
	return out
}

// OnDelivered implements Protocol: the destination records the arrival,
// advances its contiguous prefix, and the sender — having observed the
// delivery on-link — adopts the new table, drops covered copies, and
// drops its copy of the just-delivered bundle.
//
//dtn:hotpath
func (ci *CumulativeImmunity) OnDelivered(dst, sender *node.Node, id bundle.ID, now sim.Time) {
	cp := sender.Store.Get(id)
	var t *flowTable
	if cp != nil {
		t = cumOf(dst).table(flowOf(cp.Bundle))
		if t.base == 0 {
			t.base = max(cp.Bundle.FirstSeq, 1)
		}
	} else {
		// Copy already gone (e.g. purged mid-contact); the destination
		// is the flow's endpoint, so reconstruct the key from the
		// delivery itself. The flow base stays unknown until a delivery
		// arrives with its copy intact.
		t = cumOf(dst).table(Flow{Src: id.Src, Dst: dst.ID})
	}
	t.receive(id.Seq)
	// Once the flow's base is known, skip the nonexistent sequences
	// below it; without this a flow whose block starts above 1 could
	// never advance past its (vacuously missing) low seqs. Walking the
	// received set itself is always sound: it only acks sequences that
	// actually arrived.
	if t.base != 0 && t.ack < t.base-1 {
		t.ack = t.base - 1
	}
	t.advance()
	// Link-layer feedback: the sender learns the destination's table and
	// sheds its delivered copy even when the prefix has not reached it.
	ss := cumOf(sender)
	if t.ack > ss.ackOf(t.flow) {
		ss.table(t.flow).ack = t.ack
	}
	if sender.Store.Remove(id) {
		sender.NoteDrop(id, node.DropPurged, now)
	}
	purgeAcked(sender, now)
	ci.refreshControlLoad(dst)
	ci.refreshControlLoad(sender)
}
