// Package bundle defines DTN bundles (the message unit of the Bundle
// Protocol and of the paper), per-node copy state, and the sorted ID
// set (SummaryVector) behind received sets and immunity tables.
//
// A Bundle is the immutable identity of a message; a Copy is one node's
// buffered instance of it, carrying the mutable metadata the protocols
// manipulate: encounter count (EC) and TTL deadline.
package bundle

import (
	"fmt"

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
// i-list. The zero value is an empty set.
//
// The one representation is a strictly ascending slice: membership is
// a binary search, ordered traversal (Range, Items) is a walk, and the
// immunity-table transfer every contact runs (Merge) is a comparison-
// only merge of two sorted runs. Sets here hold a handful to a few
// hundred IDs; hashing a 16-byte ID cost more than the eight
// comparisons that replace it (DESIGN.md §7.1).
type SummaryVector struct {
	// ids holds the members in strictly ascending (Src, Seq) order.
	ids []ID
}

// NewSummaryVector returns an empty vector. With no map to make, the
// zero value is just as usable; the constructor stays for the callers
// that want a pointer in one expression.
func NewSummaryVector() *SummaryVector { return &SummaryVector{} }

// Clear empties v and keeps its storage, so a set reused from run to
// run (node.NewPopulation) grows it once.
func (v *SummaryVector) Clear() { *v = SummaryVector{ids: v.ids[:0]} }

// searchIDs returns the position of the first element of ids that is
// not less than id: id's index when present, its insertion point
// otherwise.
//
//dtn:hotpath
func searchIDs(ids []ID, id ID) int {
	lo, hi := 0, len(ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if ids[mid].Less(id) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Add inserts id, reporting whether it was newly added.
func (v *SummaryVector) Add(id ID) bool {
	i := searchIDs(v.ids, id)
	if i < len(v.ids) && v.ids[i] == id {
		return false
	}
	v.reserve(1)
	v.ids = append(v.ids, ID{})
	copy(v.ids[i+1:], v.ids[i:])
	v.ids[i] = id
	return true
}

// firstIDs is how many members a vector's first allocation holds. An
// empty vector allocates nothing, so a node that never learns an ID
// costs no slice. From there, one Add or a short Merge at a time grew
// the slice through 1, 2, 4 and 8 IDs, an allocation each. Twelve IDs
// fill one size class (192 bytes) and cover an i-list on the loaded
// 1000-node replay cell, which holds 11.3 IDs on average when a Merge
// reaches it. Measured with go run ./bench at K = 1 against 8, 16 and
// 32: 8 left replay_seq 15 % more objects per op; 16 saved 1 % of them
// for 3 % more bytes; 32 saved 17 %, but would make every set that
// stays small cost 512 bytes.
const firstIDs = 12

// reserve gives a vector with no storage room for at least firstIDs and
// at least n members; a vector that has storage grows by append.
func (v *SummaryVector) reserve(n int) {
	if v.ids == nil {
		v.ids = make([]ID, 0, max(n, firstIDs))
	}
}

// Has reports membership.
//
//dtn:hotpath
func (v *SummaryVector) Has(id ID) bool {
	i := searchIDs(v.ids, id)
	return i < len(v.ids) && v.ids[i] == id
}

// Len returns the number of IDs in the vector.
func (v *SummaryVector) Len() int { return len(v.ids) }

// Range calls fn for every member in ascending (Src, Seq) order,
// stopping early if fn returns false. It allocates nothing. The vector
// must not be mutated during the iteration.
func (v *SummaryVector) Range(fn func(ID) bool) {
	for _, id := range v.ids {
		if !fn(id) {
			return
		}
	}
}

// Items returns a fresh slice of the IDs in deterministic (Src, Seq)
// order. Hot paths should prefer Range, which does not allocate.
func (v *SummaryVector) Items() []ID {
	return append([]ID(nil), v.ids...)
}

// Merge adds src's first budget members (in ascending order) to v —
// one immunity-table transfer truncated at a contact's record budget.
// sent is how many records crossed, min(budget, src.Len()) and never
// negative; added is how many of them v did not hold. When added is
// zero — the steady state between neighbours that have already met —
// v is not written at all. Merging a vector into itself adds nothing.
//
// Cost is one forward pass that gallops through v (so a short prefix
// into a long list is O(sent·log) rather than a walk from v's start)
// and, only when something is new, one backward in-place merge of v's
// tail; neither hashes, calls back, nor allocates beyond growing v.
//
//dtn:hotpath
func (v *SummaryVector) Merge(src *SummaryVector, budget int) (sent, added int) {
	sent = min(budget, len(src.ids))
	if sent <= 0 {
		return 0, 0
	}
	in := src.ids[:sent]
	j := 0
	for _, id := range in {
		// Lists that mostly agree stay in step: look before leaping.
		if j == len(v.ids) || v.ids[j] != id {
			j = gallop(v.ids, j, id)
			if j == len(v.ids) || v.ids[j] != id {
				added++
				continue
			}
		}
		j++
	}
	if added == 0 {
		return sent, 0
	}
	// Grow by added slots (their contents are overwritten), then merge
	// backwards: w is the next slot to fill, i the last unmoved member
	// of v, k the last unmerged record. w-i counts the records still to
	// place; when it reaches zero everything below is already in place.
	i := len(v.ids) - 1
	v.reserve(added)
	v.ids = append(v.ids, in[:added]...)
	w := len(v.ids) - 1
	for k := sent - 1; w > i; {
		switch id := in[k]; {
		case i >= 0 && id.Less(v.ids[i]):
			v.ids[w] = v.ids[i]
			i--
			w--
		case i >= 0 && id == v.ids[i]:
			k--
		default:
			v.ids[w] = id
			w--
			k--
		}
	}
	return sent, added
}

// gallop returns the position of the first element of ids[from:] that
// is not less than id, as an index into ids: it doubles its stride from
// from until it overshoots, then binary-searches the bracket. Callers
// walking two sorted runs in step pay O(log gap) per element instead of
// a linear walk or a full-length search.
//
//dtn:hotpath
func gallop(ids []ID, from int, id ID) int {
	if from >= len(ids) || !ids[from].Less(id) {
		return from
	}
	// ids[lo] < id throughout.
	lo, step := from, 1
	for lo+step < len(ids) && ids[lo+step].Less(id) {
		lo += step
		step <<= 1
	}
	hi := min(lo+step, len(ids))
	return lo + 1 + searchIDs(ids[lo+1:hi], id)
}
