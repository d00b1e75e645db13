// Package buffer implements the capacity-bounded bundle store each DTN
// node carries. The paper fixes capacity at 10 bundles; the policies that
// decide *which* bundle to drop live in the protocols — the store only
// enforces mechanics: capacity accounting, pinning of self-originated
// bundles, TTL purging, and deterministic iteration.
//
// The store is engineered for the contact hot path (DESIGN.md §7.1):
// its copies sit in a bundle-ID-sorted slice, indexed by the set of
// their IDs as 64-bit pages (bundle.SummaryVector), both maintained
// incrementally on Put/Remove, beside a pinned-copy count and a
// conservative minimum-expiry bound. Membership (Has) tests a bit, a
// copy's slot (Get) is its ID's rank, and the anti-entropy diff
// (RangeMissing) masks the peer's words instead of searching per copy.
// Lookup, in-order iteration (Range, AppendIDs), the capacity check
// (Free, Unpinned) and the idle PurgeExpired fast path are therefore
// allocation-free and hash nothing — nothing is re-sorted or
// re-counted per contact.
//
// The store owns its copies by value: Put and Restore copy the caller's
// Copy in and never keep its pointer, so a stored copy costs no heap
// object of its own. The one rule for pointers the store hands out
// (Get, Range, DropPolicy.Victim) is that they point into the index and
// stay valid only until that store's next Put, Restore, Remove, purge
// or MakeByteRoom; read what you need from a copy before you remove it.
package buffer

import (
	"errors"
	"fmt"

	"dtnsim/internal/bundle"
	"dtnsim/internal/sim"
)

// ErrFull is returned by Put when the store is at capacity and the copy
// is not pinned.
var ErrFull = errors.New("buffer: store full")

// ErrFullBytes is returned by Put when storing the copy would exceed the
// store's byte capacity. Callers relieve byte pressure first via
// MakeByteRoom with a DropPolicy.
var ErrFullBytes = errors.New("buffer: store byte capacity exceeded")

// ErrDuplicate is returned by Put when a copy of the bundle is already
// stored.
var ErrDuplicate = errors.New("buffer: duplicate bundle")

// Store holds one node's buffered bundle copies.
//
// Pinned copies (a source's own undelivered bundles) are exempt from the
// capacity check and cannot be evicted — see DESIGN.md §3.3 for why the
// paper's results imply this behaviour — but they do count in Occupancy,
// which is how the paper's occupancy plots exceed 1.0.
//
// Two invariants let the index stay incremental; both hold for every
// protocol in this repository:
//
//   - A copy's Pinned flag never changes while the copy is stored.
//   - Code that lowers a stored copy's Expiry in place (TTL renewal /
//     EC ageing run inside Protocol.OnTransmit) must call NoteExpiry
//     afterwards so the min-expiry bound stays conservative. Raising an
//     expiry needs no notice — a stale-low bound only costs a scan that
//     finds nothing.
type Store struct {
	cap int
	// order holds the stored copies, by value, in ascending bundle-ID
	// order, maintained incrementally by an O(n) memmove on Put/Remove
	// (n ≤ a few dozen in practice); every iteration is allocation-free
	// and never re-sorts.
	order []bundle.Copy
	// index holds the stored copies' IDs, so a copy's slot in order is
	// its ID's rank there. Lookups hash nothing and load no Bundle
	// pointer.
	index bundle.SummaryVector
	// puts counts the copies ever stored (Put and Restore successes).
	puts uint64
	// pinned counts stored pinned copies, so Unpinned/Free are O(1).
	pinned int
	// minExpiry is a conservative lower bound on the minimum Expiry over
	// the unpinned stored copies (Infinity when there are none): if
	// now < minExpiry, nothing can have lapsed and PurgeExpired is O(1).
	// Removals may leave it stale-low, which only costs a no-op scan;
	// full purge scans recompute it exactly.
	minExpiry sim.Time
	// controlLoad is the buffer space consumed by stored control
	// metadata (immunity tables / anti-packets), in bundle-slot units.
	// The paper observes that "nodes' buffer occupancy is dependent on
	// immunity tables stored in each node" — tables occupy buffer space
	// and compete with bundles (DESIGN.md §3).
	controlLoad float64
	// capBytes is the optional byte capacity (DESIGN.md §9); zero means
	// unbounded, the legacy slots-only model. Like the slot capacity it
	// binds only unpinned copies.
	capBytes int64
	// unpinnedBytes and totalBytes track the stored payload bytes
	// (Bundle.Meta.Size) incrementally on Put/Remove/purge, so the byte
	// capacity check is O(1). Size-less (legacy) bundles contribute
	// nothing to either.
	unpinnedBytes, totalBytes int64
}

// New returns an empty store with the given capacity in bundles.
// Capacity must be positive.
func New(capacity int) *Store {
	s := new(Store)
	s.Init(capacity)
	return s
}

// Init empties s and gives it the given capacity in bundles, leaving it
// as New builds a store but for the slab its copies lived in, which it
// keeps: a population reused from run to run (node.NewPopulation)
// grows no store twice. The old copies are cleared first, so the
// bundles they point to can be collected. One assignment resets the
// whole store, so a field added later starts every use at its zero
// value. Capacity must be positive.
func (s *Store) Init(capacity int) {
	if capacity <= 0 {
		panic(fmt.Sprintf("buffer: capacity must be positive, got %d", capacity))
	}
	clear(s.order)
	s.index.Clear()
	*s = Store{cap: capacity, minExpiry: sim.Infinity, order: s.order[:0], index: s.index}
}

// Cap returns the configured capacity.
func (s *Store) Cap() int { return s.cap }

// SetByteCap sets the store's byte capacity; zero disables byte
// accounting checks (bytes are still tracked). It must be called before
// copies are stored — shrinking under live contents is not supported —
// and panics on a negative capacity.
func (s *Store) SetByteCap(capBytes int64) {
	if capBytes < 0 {
		panic(fmt.Sprintf("buffer: byte capacity must be non-negative, got %d", capBytes))
	}
	if len(s.order) > 0 {
		panic("buffer: SetByteCap on a non-empty store")
	}
	s.capBytes = capBytes
}

// UsedBytes returns the payload bytes of every stored copy, pinned
// included.
func (s *Store) UsedBytes() int64 { return s.totalBytes }

// UnpinnedBytes returns the payload bytes counted against the byte
// capacity.
func (s *Store) UnpinnedBytes() int64 { return s.unpinnedBytes }

// FitsBytes reports whether an unpinned copy of the given payload size
// would pass the byte capacity check right now.
//
//dtn:hotpath
func (s *Store) FitsBytes(size int64) bool {
	return s.capBytes == 0 || size <= 0 || s.unpinnedBytes+size <= s.capBytes
}

// Len returns the total number of stored copies, pinned included.
func (s *Store) Len() int { return len(s.order) }

// Unpinned returns the number of copies that count against capacity.
func (s *Store) Unpinned() int { return len(s.order) - s.pinned }

// SetControlLoad records the buffer space consumed by control metadata,
// in bundle-slot units. Negative values are clamped to zero.
func (s *Store) SetControlLoad(load float64) {
	if load < 0 {
		load = 0
	}
	s.controlLoad = load
}

// ControlLoad returns the buffer space consumed by control metadata.
func (s *Store) ControlLoad() float64 { return s.controlLoad }

// Free returns the number of unpinned slots still available after
// accounting for whole slots consumed by control metadata.
//
//dtn:hotpath
func (s *Store) Free() int {
	free := s.cap - s.Unpinned() - int(s.controlLoad)
	if free < 0 {
		free = 0
	}
	return free
}

// Occupancy returns (copies + control load)/Cap(): the paper's "buffer
// occupancy level". It may exceed 1.0 at a source holding pinned bundles
// beyond capacity.
//
//dtn:hotpath
func (s *Store) Occupancy() float64 {
	return (float64(len(s.order)) + s.controlLoad) / float64(s.cap)
}

// Has reports whether a copy of id is stored.
//
//dtn:hotpath
func (s *Store) Has(id bundle.ID) bool { return s.index.Has(id) }

// Get returns the stored copy of id, or nil. The pointer is valid
// until the store's next mutation.
//
//dtn:hotpath
func (s *Store) Get(id bundle.ID) *bundle.Copy {
	if i, ok := s.index.Rank(id); ok {
		return &s.order[i]
	}
	return nil
}

// Puts returns how many copies have ever been stored (Put and Restore
// successes); it never decreases. A caller that remembers the count
// can tell later that nothing has entered the store since — removals
// do not move it — which is what lets the immunity purge skip its scan
// (DESIGN.md §7.4).
func (s *Store) Puts() uint64 { return s.puts }

// insert stores a copy of *c at slot i, its ID's rank, and does the
// indexing and accounting Put and Restore share.
//
//dtn:hotpath
func (s *Store) insert(i int, c *bundle.Copy) {
	if s.order == nil {
		s.Grow(firstSlots)
	}
	s.order = append(s.order, bundle.Copy{})
	copy(s.order[i+1:], s.order[i:])
	s.order[i] = *c
	s.index.Add(c.Bundle.ID)
	s.puts++
	s.totalBytes += c.Bundle.Meta.Size
	if c.Pinned {
		s.pinned++
	} else {
		s.unpinnedBytes += c.Bundle.Meta.Size
		if c.Expiry < s.minExpiry {
			s.minExpiry = c.Expiry
		}
	}
}

// Put stores a copy of *c; the store keeps the value, not the pointer,
// so the caller may reuse c at once. Unpinned copies are refused with
// ErrFull when no unpinned slot is free; a second copy of the same
// bundle is refused with ErrDuplicate.
//
//dtn:hotpath
func (s *Store) Put(c *bundle.Copy) error {
	// Refusals return the bare sentinels: under buffer pressure they
	// are steady-state control flow on the contact hot path, and
	// callers only ever branch with errors.Is — formatting a wrapped
	// message here allocated on every refused transfer.
	i, dup := s.index.Rank(c.Bundle.ID)
	if dup {
		return ErrDuplicate
	}
	if !c.Pinned && s.Free() <= 0 {
		return ErrFull
	}
	if !c.Pinned && !s.FitsBytes(c.Bundle.Meta.Size) {
		return ErrFullBytes
	}
	s.insert(i, c)
	return nil
}

// Remove deletes the copy of id, reporting whether it was present.
// Pinned copies can be removed — delivery and immunity purge both apply
// to sources once a bundle is known delivered.
//
//dtn:hotpath
func (s *Store) Remove(id bundle.ID) bool {
	i, ok := s.index.Remove(id)
	if !ok {
		return false
	}
	// Read the copy before the memmove overwrites its slot.
	size, pinned := s.order[i].Bundle.Meta.Size, s.order[i].Pinned
	copy(s.order[i:], s.order[i+1:])
	s.order[len(s.order)-1] = bundle.Copy{}
	s.order = s.order[:len(s.order)-1]
	s.totalBytes -= size
	if pinned {
		s.pinned--
	} else {
		s.unpinnedBytes -= size
	}
	if s.Unpinned() == 0 {
		// Cheap exact reset; otherwise the stale-low bound stands until
		// the next full purge scan recomputes it.
		s.minExpiry = sim.Infinity
	}
	return true
}

// Restore stores a copy of *c while rebuilding a store from a snapshot
// (internal/dist workers reconstruct node state between epochs): it
// performs Put's indexing and accounting but skips the capacity checks,
// which legal live contents can fail — control load can push Free()
// to zero with copies still stored, and pinned source bundles exceed
// capacity by design. The duplicate check stays: a snapshot with two
// copies of one bundle is corrupt. Restoring into an empty store leaves
// minExpiry at the exact minimum over the unpinned copies, which is
// observationally equivalent to the live store's conservative bound
// (a stale-low bound only ever costs a no-op purge scan).
func (s *Store) Restore(c *bundle.Copy) error {
	i, dup := s.index.Rank(c.Bundle.ID)
	if dup {
		return ErrDuplicate
	}
	s.insert(i, c)
	return nil
}

// firstSlots is how many copies a store's first allocation holds. A
// store allocates nothing until its first copy arrives, so a node that
// never stores costs no slice. From there, appending one copy at a time
// grew the slice through 1, 2, 4 and 8 slots, an allocation each. Ten is
// the paper's buffer (core.DefaultBufferCap) and fills one size class
// (400 of 416 bytes): a relay in the loaded paper cells fills its ten
// slots with one allocation. Measured with go run ./bench at K = 1
// against 6 and 8: paper_sweep allocated 3 % fewer bytes per op than
// with 6 and 8 % fewer than with 8, and replay_seq, whose byte capacity
// keeps six relayed copies, 3 % more than with 6.
//
// The index's first pages share that allocation: four 24-byte pages
// beside the ten 40-byte slots make 496 bytes of the 512-byte size
// class, and cover a store whose copies come from up to four flows.
// Allocated on their own, the pages cost an object per store that ever
// holds a copy: the loaded 1000-node replay cell went from 3,211 to
// 5,193 objects per run with four pages apart.
const (
	firstSlots      = 10
	firstIndexPages = 4
)

// Grow makes room for n more copies without another allocation, for a
// caller that rebuilds a store of known size through Restore: slots are
// 40-byte values, so growing one append at a time would allocate about
// twice the final slice. A store's first allocation of up to firstSlots
// slots carries its index's first pages too.
func (s *Store) Grow(n int) {
	if n <= cap(s.order)-len(s.order) {
		return
	}
	if s.order == nil && n <= firstSlots {
		first := new(struct {
			slots [firstSlots]bundle.Copy
			pages [firstIndexPages]bundle.Page
		})
		s.order = first.slots[:0]
		s.index.UseStorage(first.pages[:]) // an orderless store is empty
		return
	}
	s.order = append(make([]bundle.Copy, 0, len(s.order)+n), s.order...)
}

// NoteExpiry tells the store that the stored copy c's Expiry was lowered
// in place (TTL renewal, EC ageing). The store folds it into the
// min-expiry bound; without the call PurgeExpired's fast path could skip
// a lapsed copy.
//
//dtn:hotpath
func (s *Store) NoteExpiry(c *bundle.Copy) {
	if !c.Pinned && c.Expiry < s.minExpiry {
		s.minExpiry = c.Expiry
	}
}

// RangeMissing calls fn, in ascending bundle-ID order, for every stored
// copy whose bundle neither peer stores nor received holds, stopping
// early if fn returns false: the anti-entropy diff (DESIGN.md §7.1).
// It masks peer's and received's pages off the index's a page at a
// time and searches nothing per copy. It allocates nothing. Neither
// store nor received may be mutated during the iteration, and the
// pointers fn sees are valid until this store's next mutation.
//
//dtn:hotpath
func (s *Store) RangeMissing(peer *Store, received *bundle.SummaryVector, fn func(*bundle.Copy) bool) {
	s.index.RangeAbsent(&peer.index, received, func(i int, _ bundle.ID) bool { return fn(&s.order[i]) })
}

// Range calls fn for every stored copy in ascending bundle-ID order,
// stopping early if fn returns false. It allocates nothing. The store
// must not be mutated during the iteration, and the pointers fn sees
// are valid until the store's next mutation.
//
//dtn:hotpath
func (s *Store) Range(fn func(*bundle.Copy) bool) {
	for i := range s.order {
		if !fn(&s.order[i]) {
			return
		}
	}
}

// AppendIDs appends the stored bundle IDs in ascending order to dst and
// returns the extended slice, allocating only when dst lacks capacity.
//
//dtn:hotpath
func (s *Store) AppendIDs(dst []bundle.ID) []bundle.ID {
	for i := range s.order {
		dst = append(dst, s.order[i].Bundle.ID)
	}
	return dst
}

// Items returns a fresh slice holding the stored copies' values in
// deterministic bundle-ID order. Hot paths should prefer
// Range/AppendIDs, which do not allocate.
func (s *Store) Items() []bundle.Copy {
	return append([]bundle.Copy(nil), s.order...)
}

// PurgeExpired removes every unpinned copy whose TTL lapsed at or before
// now, calling expired with each removed copy's ID in ascending order.
// Pinned copies never expire: a source holds its own bundles until
// delivery. When no expiry can have lapsed (tracked via the min-expiry
// bound) it returns without scanning.
//
//dtn:hotpath
func (s *Store) PurgeExpired(now sim.Time, expired func(bundle.ID)) {
	if now < s.minExpiry {
		return
	}
	s.purge(func(c *bundle.Copy) bool { return !c.Pinned && c.Expired(now) }, expired)
}

// PurgeMatching removes every copy (pinned included) for which match
// returns true, calling removed with each removed copy's ID in
// ascending order. Immunity protocols use this to discard delivered
// bundles everywhere, including the source.
//
//dtn:hotpath
func (s *Store) PurgeMatching(match func(*bundle.Copy) bool, removed func(bundle.ID)) {
	s.purge(match, removed)
}

// PurgeIn removes every copy (pinned included) whose ID set holds,
// calling removed with each removed copy's ID in ascending order: an
// immunity i-list's purge. It ANDs the index's pages with set's
// (SummaryVector.RemoveIn), so it searches nothing per copy, and moves
// each kept copy at most once. The min-expiry bound is left as it was
// unless no unpinned copy is left (a stale-low bound costs PurgeExpired
// one scan, which makes it exact again). removed runs mid-pass, so it
// may not touch the store. It allocates nothing.
//
//dtn:hotpath
func (s *Store) PurgeIn(set *bundle.SummaryVector, removed func(bundle.ID)) {
	// order[:w] holds the copies kept so far, order[r:] the ones not
	// yet passed; a removed copy's rank is its slot before the purge.
	w, r := 0, 0
	s.index.RemoveIn(set, func(i int, id bundle.ID) {
		w += copy(s.order[w:], s.order[r:i])
		r = i + 1
		c := &s.order[i]
		s.totalBytes -= c.Bundle.Meta.Size
		if c.Pinned {
			s.pinned--
		} else {
			s.unpinnedBytes -= c.Bundle.Meta.Size
		}
		removed(id)
	})
	if r == 0 {
		return // nothing matched
	}
	w += copy(s.order[w:], s.order[r:])
	clear(s.order[w:])
	s.order = s.order[:w]
	if s.Unpinned() == 0 {
		s.minExpiry = sim.Infinity
	}
}

// purge removes matching copies in one in-order pass that compacts the
// slots in place and clears the removed IDs from the index, recomputing
// the pinned count and the exact min-expiry bound on the way. match and removed run mid-pass, so neither may
// touch the store. It allocates nothing.
//
//dtn:hotpath
func (s *Store) purge(match func(*bundle.Copy) bool, removed func(bundle.ID)) {
	kept := 0
	minExpiry := sim.Infinity
	pinned := 0
	var unpinnedBytes, totalBytes int64
	for i := range s.order {
		c := &s.order[i]
		if match(c) {
			s.index.Remove(c.Bundle.ID)
			removed(c.Bundle.ID)
			continue
		}
		totalBytes += c.Bundle.Meta.Size
		if c.Pinned {
			pinned++
		} else {
			unpinnedBytes += c.Bundle.Meta.Size
			if c.Expiry < minExpiry {
				minExpiry = c.Expiry
			}
		}
		if kept < i {
			s.order[kept] = *c
		}
		kept++
	}
	clear(s.order[kept:])
	s.order = s.order[:kept]
	s.pinned = pinned
	s.minExpiry = minExpiry
	s.unpinnedBytes, s.totalBytes = unpinnedBytes, totalBytes
}
