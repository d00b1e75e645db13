// Package bundle defines DTN bundles (the message unit of the Bundle
// Protocol and of the paper), per-node copy state, and the ID set
// (SummaryVector, 64-bit pages of sequence numbers) behind received
// sets, immunity tables and the buffer store's index.
//
// A Bundle is the immutable identity of a message; a Copy is one node's
// buffered instance of it, carrying the mutable metadata the protocols
// manipulate: encounter count (EC) and TTL deadline.
package bundle

import (
	"fmt"
	"math/bits"
	"slices"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// ID identifies a bundle globally: the originating node plus a sequence
// number within that origin's flow. The paper numbers the single flow's
// bundles 1..k; Seq preserves that numbering so cumulative immunity can
// acknowledge contiguous prefixes.
type ID struct {
	Src contact.NodeID
	Seq int
}

func (id ID) String() string { return fmt.Sprintf("b(%d:%d)", id.Src, id.Seq) }

// Less orders IDs by (Src, Seq); used to produce deterministic iteration
// order everywhere sets are materialized.
func (id ID) Less(o ID) bool {
	if id.Src != o.Src {
		return id.Src < o.Src
	}
	return id.Seq < o.Seq
}

// Meta carries a bundle's resource attributes: the knobs the
// finite-bandwidth contact model budgets against. The zero value is the
// legacy resource-less model, under which transfers consume only link
// slots and buffers only count copies.
type Meta struct {
	// Size is the bundle's payload size in bytes. Zero means size-less:
	// the bundle costs nothing against contact byte budgets or buffer
	// byte capacities.
	Size int64
}

// Bundle is the immutable description of a message.
type Bundle struct {
	ID        ID
	Dst       contact.NodeID
	CreatedAt sim.Time
	// Meta holds the bundle's resource attributes (payload size). Like
	// the rest of Bundle it is immutable after creation.
	Meta Meta
	// FirstSeq is the lowest sequence number any flow with this bundle's
	// (Src, Dst) pair uses — 1 for the paper's single-flow workloads,
	// higher when flows to other destinations occupy the source's earlier
	// sequence blocks. Cumulative immunity keys its tables by that pair
	// and uses FirstSeq to anchor contiguous-prefix acknowledgements; an
	// anchor above the pair's lowest block would falsely cover undelivered
	// bundles. A zero value (hand-built bundles) is treated as 1.
	FirstSeq int
}

// Copy is one node's buffered instance of a bundle.
type Copy struct {
	Bundle *Bundle
	// EC is the encounter count attached to this copy: the number of
	// times this copy's lineage has been transmitted (paper §II, Davis
	// et al.). The receiver inherits the sender's incremented value.
	EC int
	// Expiry is the sim time at which this copy's TTL lapses;
	// sim.Infinity means no TTL is set.
	Expiry sim.Time
	// StoredAt records when this node buffered the copy.
	StoredAt sim.Time
	// Pinned marks self-originated bundles at their source: never
	// evicted and exempt from the capacity check (DESIGN.md §3.3).
	Pinned bool
}

// Expired reports whether the copy's TTL has lapsed at time now.
func (c *Copy) Expired(now sim.Time) bool { return c.Expiry <= now }

// SummaryVector is a set of bundle IDs. Pure epidemic calls it the
// summary vector; the immunity protocol calls the same structure the
// i-list, and a buffer.Store indexes its copies with one. The zero
// value is an empty set.
//
// The one representation is a strictly ascending slice of 64-bit pages
// keyed by (Src, Seq>>6), each holding a bit per sequence number of its
// block and none empty. Membership finds the page and tests a bit;
// ordered traversal (Range, Items) walks pages, then bits, which is
// (Src, Seq) order; the immunity-table transfer every contact runs
// (Merge) ORs words, and the anti-entropy diff (RangeAbsent) masks
// them. A flow's bundles are consecutive sequence numbers of one
// source, so a set of a few hundred of them spans a handful of pages
// (DESIGN.md §7.1).
type SummaryVector struct {
	// pages holds the members in strictly ascending key order, each
	// page with at least one bit set.
	pages []Page
}

// Page is one 64-bit page of a SummaryVector: the members with source
// src and Seq>>6 == block, bit Seq&63 set for each. It is exported
// only so an owner can allocate a vector's first pages beside its own
// storage (UseStorage); its fields are the vector's.
type Page struct {
	src   contact.NodeID
	block int
	bits  uint64
}

// split returns id's page key and its bit within the page. The shift
// is arithmetic, so negative sequence numbers order below zero as IDs
// do.
func split(id ID) (src contact.NodeID, block int, bit uint64) {
	return id.Src, id.Seq >> 6, 1 << (uint(id.Seq) & 63)
}

// before reports whether p's key orders before (src, block).
func (p *Page) before(src contact.NodeID, block int) bool {
	return p.src < src || p.src == src && p.block < block
}

// is reports whether p's key is (src, block).
func (p *Page) is(src contact.NodeID, block int) bool {
	return p.src == src && p.block == block
}

// id returns the member of p at bit position b.
func (p *Page) id(b int) ID { return ID{Src: p.src, Seq: p.block<<6 | b} }

// NewSummaryVector returns an empty vector. With no map to make, the
// zero value is just as usable; the constructor stays for the callers
// that want a pointer in one expression.
func NewSummaryVector() *SummaryVector { return &SummaryVector{} }

// Clear empties v and keeps its storage, so a set reused from run to
// run (node.NewPopulation) grows it once.
func (v *SummaryVector) Clear() { v.pages = v.pages[:0] }

// UseStorage makes buf's backing array the storage of v, which must be
// empty: an owner that allocates a vector's first pages beside its own
// data (buffer.Store) spends one allocation on both.
func (v *SummaryVector) UseStorage(buf []Page) { v.pages = buf[:0] }

// search returns the position of the first page whose key does not
// order before (src, block): that page's index when present, its
// insertion point otherwise.
//
//dtn:hotpath
func (v *SummaryVector) search(src contact.NodeID, block int) int {
	lo, hi := 0, len(v.pages)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v.pages[mid].before(src, block) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts id, reporting whether it was newly added.
func (v *SummaryVector) Add(id ID) bool {
	src, block, bit := split(id)
	i := v.search(src, block)
	if i < len(v.pages) && v.pages[i].is(src, block) {
		if v.pages[i].bits&bit != 0 {
			return false
		}
		v.pages[i].bits |= bit
		return true
	}
	v.grow(1)
	copy(v.pages[i+1:], v.pages[i:])
	v.pages[i] = Page{src: src, block: block, bits: bit}
	return true
}

// Remove deletes id, reporting whether it was a member. A page left
// empty goes, so no page is ever empty.
func (v *SummaryVector) Remove(id ID) bool {
	src, block, bit := split(id)
	i := v.search(src, block)
	if i == len(v.pages) || !v.pages[i].is(src, block) || v.pages[i].bits&bit == 0 {
		return false
	}
	if v.pages[i].bits &^= bit; v.pages[i].bits == 0 {
		v.pages = append(v.pages[:i], v.pages[i+1:]...)
	}
	return true
}

// firstPages is how many pages a vector's first allocation holds. An
// empty vector allocates nothing, so a node that never learns an ID
// costs no slice. Eight pages fill one size class (192 bytes), the
// size the sorted-ID representation's first twelve IDs took; growing
// from fewer cost the loaded 1000-node replay cell, whose i-lists and
// stores span several sources, an allocation per doubling.
const firstPages = 8

// grow lengthens v by n pages whose contents the caller overwrites. A
// vector with no storage gets room for at least firstPages.
func (v *SummaryVector) grow(n int) {
	if v.pages == nil {
		v.pages = make([]Page, 0, max(n, firstPages))
	}
	v.pages = slices.Grow(v.pages, n)[:len(v.pages)+n]
}

// Has reports membership.
//
//dtn:hotpath
func (v *SummaryVector) Has(id ID) bool {
	src, block, bit := split(id)
	i := v.search(src, block)
	return i < len(v.pages) && v.pages[i].is(src, block) && v.pages[i].bits&bit != 0
}

// Rank returns how many members order before id, and whether id is a
// member: a member's position in Items, and a non-member's insertion
// point. A store keeps its copies in ID order, so a copy's rank is its
// slot.
//
//dtn:hotpath
func (v *SummaryVector) Rank(id ID) (rank int, ok bool) {
	src, block, bit := split(id)
	for i := range v.pages {
		p := &v.pages[i]
		if !p.before(src, block) {
			if p.is(src, block) {
				rank += bits.OnesCount64(p.bits & (bit - 1))
				ok = p.bits&bit != 0
			}
			return rank, ok
		}
		rank += bits.OnesCount64(p.bits)
	}
	return rank, false
}

// Len returns the number of IDs in the vector, a popcount per page:
// keeping a count beside the pages would add a word to every store and
// received set of a population for a figure read a few times a contact.
//
//dtn:hotpath
func (v *SummaryVector) Len() int {
	n := 0
	for i := range v.pages {
		n += bits.OnesCount64(v.pages[i].bits)
	}
	return n
}

// Range calls fn for every member in ascending (Src, Seq) order,
// stopping early if fn returns false. It allocates nothing. The vector
// must not be mutated during the iteration.
func (v *SummaryVector) Range(fn func(ID) bool) {
	for i := range v.pages {
		p := &v.pages[i]
		for w := p.bits; w != 0; w &= w - 1 {
			if !fn(p.id(bits.TrailingZeros64(w))) {
				return
			}
		}
	}
}

// Items returns a fresh slice of the IDs in deterministic (Src, Seq)
// order. Hot paths should prefer Range, which does not allocate.
func (v *SummaryVector) Items() []ID {
	ids := make([]ID, 0, v.Len())
	v.Range(func(id ID) bool {
		ids = append(ids, id)
		return true
	})
	return ids
}

// wordAt advances *j past the pages of ps that order before (src,
// block) and returns the bits of the page with that key, or 0 when ps
// has none. Callers walking two page lists in step pass keys in
// ascending order, so each list is walked once.
//
//dtn:hotpath
func wordAt(ps []Page, j *int, src contact.NodeID, block int) uint64 {
	// Lists that mostly agree stay in step: look before walking.
	if *j < len(ps) && ps[*j].is(src, block) {
		return ps[*j].bits
	}
	for *j < len(ps) && ps[*j].before(src, block) {
		*j++
	}
	if *j < len(ps) && ps[*j].is(src, block) {
		return ps[*j].bits
	}
	return 0
}

// RangeAbsent calls fn, in ascending (Src, Seq) order, for every member
// of v that neither x nor y holds, with the member's rank in v,
// stopping early if fn returns false: the anti-entropy diff, one mask
// per page of v and no per-member search. It allocates nothing. None
// of the three vectors may be mutated during the iteration.
//
//dtn:hotpath
func (v *SummaryVector) RangeAbsent(x, y *SummaryVector, fn func(rank int, id ID) bool) {
	j, k, rank := 0, 0, 0
	for i := range v.pages {
		p := &v.pages[i]
		w := p.bits &^ wordAt(x.pages, &j, p.src, p.block) &^ wordAt(y.pages, &k, p.src, p.block)
		for ; w != 0; w &= w - 1 {
			b := bits.TrailingZeros64(w)
			if !fn(rank+bits.OnesCount64(p.bits&(1<<b-1)), p.id(b)) {
				return
			}
		}
		rank += bits.OnesCount64(p.bits)
	}
}

// lowest returns the lowest k set bits of w.
func lowest(w uint64, k int) uint64 {
	rest := w
	for ; k > 0; k-- {
		rest &= rest - 1
	}
	return w &^ rest
}

// crossing returns the bits of in[k] that cross in a Merge whose last
// crossing page keeps only last.
func crossing(in []Page, k int, last uint64) uint64 {
	if k == len(in)-1 {
		return last
	}
	return in[k].bits
}

// Merge adds src's first budget members (in ascending order) to v —
// one immunity-table transfer truncated at a contact's record budget.
// sent is how many records crossed, min(budget, src.Len()) and never
// negative; added is how many of them v did not hold. When added is
// zero — the steady state between neighbours that have already met —
// v is not written at all. Merging a vector into itself adds nothing.
//
// Cost is one pass over src's crossing pages that ORs them in page by
// page (the page where the budget ends keeps its lowest members),
// walking v's pages in step and counting new members by popcount, and,
// only when src brings pages v lacks, one backward in-place merge of
// v's tail; neither hashes, calls back, nor allocates beyond growing v.
//
//dtn:hotpath
func (v *SummaryVector) Merge(src *SummaryVector, budget int) (sent, added int) {
	// in is the crossing pages; the last one's crossing bits are last.
	// fresh counts the crossing pages v has no page for.
	var last uint64
	n, fresh, j := 0, 0, 0
	for ; n < len(src.pages) && sent < budget; n++ {
		p := &src.pages[n]
		last = p.bits
		if c := bits.OnesCount64(last); sent+c <= budget {
			sent += c
		} else {
			last = lowest(last, budget-sent)
			sent = budget
		}
		have := wordAt(v.pages, &j, p.src, p.block)
		added += bits.OnesCount64(last &^ have)
		if have == 0 {
			fresh++
		}
	}
	in := src.pages[:n]
	if added == 0 {
		return sent, 0
	}
	j = 0
	for k := range in {
		if wordAt(v.pages, &j, in[k].src, in[k].block) != 0 {
			v.pages[j].bits |= crossing(in, k, last)
		}
	}
	if fresh == 0 {
		return sent, added
	}
	// Grow by fresh pages (their contents are overwritten), then merge
	// the pages v lacked in backwards: w is the next slot to fill, i the
	// last unmoved page of v, k the last unmerged page of in. w-i counts
	// the fresh pages still to place; when it reaches zero everything
	// below is in place.
	i := len(v.pages) - 1
	v.grow(fresh)
	w := len(v.pages) - 1
	for k := n - 1; w > i; k-- {
		p := in[k]
		for i >= 0 && !v.pages[i].before(p.src, p.block) && !v.pages[i].is(p.src, p.block) {
			v.pages[w] = v.pages[i]
			i--
			w--
		}
		if i >= 0 && v.pages[i].is(p.src, p.block) {
			continue // ORed in above
		}
		p.bits = crossing(in, k, last)
		v.pages[w] = p
		w--
	}
	return sent, added
}
