package protocol

import (
	"dtnsim/internal/bundle"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// Immunity is epidemic routing with per-bundle immunity tables (Mundur
// et al.): the destination emits one immunity record ("anti-packet") per
// bundle it receives; records spread epidemically on encounters; a node
// holding a record purges the corresponding bundle and never re-accepts
// it — the "infection and vaccination" analogy of §II-B.
//
// Two costs, both from the paper, are modelled explicitly:
//
//   - Dissemination is metered: an encounter can carry only as many
//     records as its duration allows (the engine's record budget), so
//     with one record per delivered bundle the tables "are propagated
//     slowly" and overhead grows with load.
//   - Stored records consume buffer space (RecordSlotFraction of a slot
//     each): "nodes' buffer occupancy is dependent on immunity tables
//     stored in each node".
//
// Buffers are relieved by purging, not eviction: a full relay refuses,
// as in pure epidemic.
type Immunity struct {
	base
	// RecordSlotFraction is the buffer cost of one stored immunity
	// record, in bundle slots. The default of five records per bundle
	// slot is calibrated to the paper's observed table cost: its
	// immunity occupancy sits at 58-72% (Table II), only possible if
	// stored tables consume a substantial share of the buffer ("nodes'
	// buffer occupancy is dependent on immunity tables stored in each
	// node").
	RecordSlotFraction float64
}

// NewImmunity returns epidemic-with-immunity with default record sizing.
func NewImmunity() *Immunity { return &Immunity{RecordSlotFraction: 0.2} }

// immunityState is the per-node i-list, plus the memo that lets
// purgeDead skip a scan that cannot match.
//
// A purge's outcome is a function of (store contents, i-list) alone. A
// finished purge leaves no stored copy the list marks delivered;
// removing copies cannot create one; only storing a copy or growing the
// list can. The list never shrinks and Store.Puts never decreases, so
// "both read what they read at the last purge" proves the next scan
// would find nothing (DESIGN.md §7.4). The memo is not wire state:
// RestoreExt and Init start it unknown and the first purge scans.
type immunityState struct {
	// ilist lives by value, in the Slab with its state.
	ilist iList
	// purgedLen and purgedPuts are ilist.Len() and Store.Puts() as the
	// last purge left them; purgedLen < 0 means no purge has run.
	purgedLen  int
	purgedPuts uint64
}

func newImmunityState() *immunityState {
	return &immunityState{purgedLen: -1}
}

// reset empties st, keeping the i-list's storage.
func (st *immunityState) reset() {
	st.ilist.Clear()
	*st = immunityState{ilist: st.ilist, purgedLen: -1}
}

// Name implements Protocol.
func (*Immunity) Name() string { return "Epidemic with immunity" }

// Init implements Protocol: n's i-list is its entry of s.
func (*Immunity) Init(n *node.Node, s *Slab) {
	st := slot(&s.imm, s.nodes, n.ID)
	st.reset()
	n.Ext = st
}

// iList is an immunity table: the set of bundle IDs known delivered,
// and its size. Every Exchange reads the size several times (the purge
// memo, the control load), and a bundle.SummaryVector counts its
// members page by page, so the list keeps the count beside the set and
// moves it in the two ways a list grows, Add and Merge. It never
// shrinks. The zero value is an empty list.
type iList struct {
	ids bundle.SummaryVector
	n   int
}

// Add inserts id, reporting whether it was newly added.
func (l *iList) Add(id bundle.ID) bool {
	if !l.ids.Add(id) {
		return false
	}
	l.n++
	return true
}

// Merge adds src's first budget records, as bundle.SummaryVector.Merge.
//
//dtn:hotpath
func (l *iList) Merge(src *iList, budget int) (sent, added int) {
	sent, added = l.ids.Merge(&src.ids, budget)
	l.n += added
	return sent, added
}

// Clear empties l and keeps its storage.
func (l *iList) Clear() { l.ids.Clear(); l.n = 0 }

// Has reports membership.
//
//dtn:hotpath
func (l *iList) Has(id bundle.ID) bool { return l.ids.Has(id) }

// Len returns the number of records in l.
func (l *iList) Len() int { return l.n }

// Range calls fn for every record in ascending ID order, stopping early
// if fn returns false.
func (l *iList) Range(fn func(bundle.ID) bool) { l.ids.Range(fn) }

// Items returns a fresh slice of the records in ascending ID order.
func (l *iList) Items() []bundle.ID { return l.ids.Items() }

func ilistOf(n *node.Node) *iList {
	return &n.Ext.(*immunityState).ilist
}

// refreshControlLoad re-prices the node's stored records.
func (im *Immunity) refreshControlLoad(n *node.Node) {
	n.Store.SetControlLoad(float64(ilistOf(n).Len()) * im.RecordSlotFraction)
}

// purgeDead drops every buffered copy the node's i-list marks delivered
// ("check each other's buffer and delete redundant bundles according to
// this i-list"). It must not be narrowed to "the list grew": P-Q with
// anti-packets offers without consulting the receiver's list, so a copy
// can arrive already vaccinated and only the put counter shows it.
//
//dtn:hotpath
func purgeDead(n *node.Node, now sim.Time) {
	st := n.Ext.(*immunityState)
	il := &st.ilist
	if st.purgedLen == il.Len() && st.purgedPuts == n.Store.Puts() {
		return
	}
	n.Store.PurgeIn(&il.ids, func(id bundle.ID) { n.NoteDrop(id, node.DropPurged, now) })
	st.purgedLen, st.purgedPuts = il.Len(), n.Store.Puts()
}

// Exchange implements Protocol: per Mundur et al., the peers "combine
// their immunity tables into one i-list" — each side transmits its whole
// list blind (there is no delta protocol; a node cannot know what the
// peer lacks without sending the list), truncated at the contact's
// record budget. Then both purge dead bundles.
//
//dtn:hotpath
func (im *Immunity) Exchange(a, b *node.Node, now sim.Time, recordBudget int) int {
	sent := transferRecords(a, b, recordBudget) + transferRecords(b, a, recordBudget)
	purgeDead(a, now)
	purgeDead(b, now)
	im.refreshControlLoad(a)
	im.refreshControlLoad(b)
	return sent
}

// transferRecords transmits from's i-list to the peer in deterministic
// ID order, up to budget records, and returns how many it transmitted:
// every one is signaling overhead. Because the list is resent on every
// encounter, overhead grows with the number of delivered bundles — the
// §II-C complaint that "the number of immunity tables transmitted is
// proportional to the load" — and short contacts truncate the
// transfer, so tables "are propagated slowly".
//
//dtn:hotpath
func transferRecords(from, to *node.Node, budget int) int {
	sent, _ := ilistOf(to).Merge(ilistOf(from), budget)
	return sent
}

// Wants implements Protocol: skip bundles either side knows are dead.
//
//dtn:hotpath
func (*Immunity) Wants(sender, receiver *node.Node, _ sim.Time, rng *sim.RNG, sc *Scratch) []bundle.ID {
	rl := ilistOf(receiver)
	candidates := missing(sender, receiver, rng, sc)
	out := candidates[:0]
	for _, id := range candidates {
		if rl.Has(id) {
			continue
		}
		out = append(out, id)
	}
	return out
}

// OnDelivered implements Protocol: the destination generates the record;
// the sender observes the delivery on-link, adopts the record, and drops
// its now-redundant copy.
//
//dtn:hotpath
func (im *Immunity) OnDelivered(dst, sender *node.Node, id bundle.ID, now sim.Time) {
	ilistOf(dst).Add(id)
	if ilistOf(sender).Add(id) {
		if sender.Store.Remove(id) {
			sender.NoteDrop(id, node.DropPurged, now)
		}
	}
	im.refreshControlLoad(dst)
	im.refreshControlLoad(sender)
}
