package buffer

import (
	"errors"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

func mk(seq int) *bundle.Copy {
	return &bundle.Copy{
		Bundle: &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: seq}, Dst: 1},
		Expiry: sim.Infinity,
	}
}

func mkPinned(seq int) *bundle.Copy {
	c := mk(seq)
	c.Pinned = true
	return c
}

// collect returns a removal callback that appends each reported ID to
// *dst.
func collect(dst *[]bundle.ID) func(bundle.ID) {
	return func(id bundle.ID) { *dst = append(*dst, id) }
}

// purgeExpired runs s.PurgeExpired and returns the reported IDs.
func purgeExpired(s *Store, now sim.Time) (ids []bundle.ID) {
	s.PurgeExpired(now, collect(&ids))
	return ids
}

// purgeMatching runs s.PurgeMatching and returns the reported IDs.
func purgeMatching(s *Store, match func(*bundle.Copy) bool) (ids []bundle.ID) {
	s.PurgeMatching(match, collect(&ids))
	return ids
}

func TestNewPanicsOnBadCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

func TestPutGetRemove(t *testing.T) {
	s := New(3)
	c := mk(1)
	if err := s.Put(c); err != nil {
		t.Fatal(err)
	}
	if !s.Has(c.Bundle.ID) || *s.Get(c.Bundle.ID) != *c || s.Len() != 1 {
		t.Fatal("store state wrong after Put")
	}
	// The store holds a copy of the value, not the caller's pointer.
	c.EC = 7
	if got := s.Get(c.Bundle.ID); got == c || got.EC != 0 {
		t.Fatalf("Put kept the caller's pointer: stored EC = %d", got.EC)
	}
	if err := s.Put(mk(1)); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate Put: err=%v", err)
	}
	if !s.Remove(c.Bundle.ID) {
		t.Fatal("Remove returned false for present bundle")
	}
	if s.Remove(c.Bundle.ID) {
		t.Fatal("Remove returned true for absent bundle")
	}
}

func TestCapacityEnforced(t *testing.T) {
	s := New(2)
	if err := s.Put(mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mk(2)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mk(3)); !errors.Is(err, ErrFull) {
		t.Fatalf("over-capacity Put: err=%v", err)
	}
	if s.Free() != 0 {
		t.Errorf("Free = %d, want 0", s.Free())
	}
}

func TestPinnedBypassesCapacity(t *testing.T) {
	s := New(2)
	for i := 0; i < 5; i++ {
		if err := s.Put(mkPinned(i)); err != nil {
			t.Fatalf("pinned Put %d: %v", i, err)
		}
	}
	if s.Len() != 5 || s.Unpinned() != 0 || s.Free() != 2 {
		t.Fatalf("len=%d unpinned=%d free=%d", s.Len(), s.Unpinned(), s.Free())
	}
	// Unpinned slots still available despite 5 pinned copies.
	if err := s.Put(mk(10)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mk(11)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mk(12)); !errors.Is(err, ErrFull) {
		t.Fatalf("unpinned over capacity: err=%v", err)
	}
}

func TestOccupancyCanExceedOne(t *testing.T) {
	s := New(2)
	for i := 0; i < 6; i++ {
		if err := s.Put(mkPinned(i)); err != nil {
			t.Fatal(err)
		}
	}
	if got := s.Occupancy(); got != 3.0 {
		t.Errorf("Occupancy = %v, want 3.0", got)
	}
}

func TestItemsAndIDsDeterministic(t *testing.T) {
	s := New(10)
	for _, seq := range []int{5, 1, 9, 3} {
		if err := s.Put(mk(seq)); err != nil {
			t.Fatal(err)
		}
	}
	ids := s.AppendIDs(nil)
	want := []int{1, 3, 5, 9}
	if len(ids) != len(want) {
		t.Fatalf("AppendIDs() = %v", ids)
	}
	for i, id := range ids {
		if id.Seq != want[i] {
			t.Fatalf("AppendIDs() = %v", ids)
		}
	}
	items := s.Items()
	for i, c := range items {
		if c.Bundle.ID.Seq != want[i] {
			t.Fatalf("Items() order wrong: %v", c.Bundle.ID)
		}
	}
}

func TestPurgeExpired(t *testing.T) {
	s := New(10)
	a := mk(1)
	a.Expiry = 100
	b := mk(2)
	b.Expiry = 200
	p := mkPinned(3)
	p.Expiry = 50 // pinned: must survive regardless
	for _, c := range []*bundle.Copy{a, b, p} {
		if err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	purged := purgeExpired(s, 150)
	if len(purged) != 1 || purged[0] != a.Bundle.ID {
		t.Fatalf("purged %v, want [a]", purged)
	}
	if !s.Has(b.Bundle.ID) || !s.Has(p.Bundle.ID) {
		t.Error("purge removed live or pinned copies")
	}
}

func TestPurgeMatching(t *testing.T) {
	s := New(10)
	for i := 1; i <= 5; i++ {
		c := mk(i)
		if i == 5 {
			c.Pinned = true
		}
		if err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	purged := purgeMatching(s, func(c *bundle.Copy) bool { return c.Bundle.ID.Seq >= 4 })
	if len(purged) != 2 || purged[0].Seq != 4 || purged[1].Seq != 5 {
		t.Fatalf("purged %v, want seqs 4 and 5 in order (pinned included)", purged)
	}
	if s.Len() != 3 {
		t.Errorf("Len = %d, want 3", s.Len())
	}
}

// Property: under any sequence of Put/Remove, Unpinned() never exceeds
// capacity, and Len() == Unpinned() + pinned count.
func TestStoreInvariantsProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 11))
		s := New(4)
		pinned := 0
		live := map[bundle.ID]bool{}
		for op := 0; op < 200; op++ {
			seq := r.IntN(20)
			id := bundle.ID{Src: contact.NodeID(0), Seq: seq}
			if r.IntN(3) == 0 && live[id] {
				wasPinned := s.Get(id).Pinned
				s.Remove(id)
				delete(live, id)
				if wasPinned {
					pinned--
				}
			} else if !live[id] {
				c := mk(seq)
				c.Pinned = r.IntN(4) == 0
				if err := s.Put(c); err == nil {
					live[id] = true
					if c.Pinned {
						pinned++
					}
				} else if c.Pinned {
					return false // pinned Put must never fail
				}
			}
			if s.Unpinned() > s.Cap() {
				return false
			}
			if s.Len() != len(live) || s.Len() != s.Unpinned()+pinned {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestPurgeExpiredEarlyExit pins the satellite fix: PurgeExpired must
// not allocate or scan when the store is empty, holds only pinned
// copies, or when nothing can have lapsed yet.
func TestPurgeExpiredEarlyExit(t *testing.T) {
	empty := New(4)
	pinnedOnly := New(4)
	p := mkPinned(1)
	p.Expiry = 50 // pinned never expires; must not arm the fast path
	if err := pinnedOnly.Put(p); err != nil {
		t.Fatal(err)
	}
	future := New(4)
	c := mk(1)
	c.Expiry = 1000
	if err := future.Put(c); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Store{"empty": empty, "pinned-only": pinnedOnly, "unexpired": future} {
		if got := purgeExpired(s, 500); got != nil {
			t.Errorf("%s: PurgeExpired = %v, want nil", name, got)
		}
		if allocs := testing.AllocsPerRun(100, func() { s.PurgeExpired(500, func(bundle.ID) {}) }); allocs != 0 {
			t.Errorf("%s: PurgeExpired fast path allocates %v/op", name, allocs)
		}
	}
	// The fast path must still fire once a deadline actually lapses.
	if got := purgeExpired(future, 1000); len(got) != 1 || got[0] != c.Bundle.ID {
		t.Fatalf("PurgeExpired(1000) = %v, want [c]", got)
	}
}

// TestHotPathZeroAlloc asserts the per-contact operations allocate
// nothing: the capacity check, in-order iteration, ID collection into a
// reused buffer, and the idle purge.
func TestHotPathZeroAlloc(t *testing.T) {
	s := New(11)
	for i := 1; i <= 10; i++ {
		c := mk(i)
		c.Expiry = sim.Time(1 << 40)
		if err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	ids := make([]bundle.ID, 0, 16)
	cases := map[string]func(){
		"Free":         func() { _ = s.Free() },
		"Unpinned":     func() { _ = s.Unpinned() },
		"Range":        func() { s.Range(func(*bundle.Copy) bool { return true }) },
		"AppendIDs":    func() { ids = s.AppendIDs(ids[:0]) },
		"PurgeExpired": func() { s.PurgeExpired(100, func(bundle.ID) {}) },
		"NoteExpiry":   func() { s.NoteExpiry(s.Get(bundle.ID{Src: 0, Seq: 1})) },
	}
	for name, fn := range cases {
		if allocs := testing.AllocsPerRun(100, fn); allocs != 0 {
			t.Errorf("%s allocates %v/op, want 0", name, allocs)
		}
	}
}

// TestRangeOrderAndEarlyStop checks Range iterates in ascending ID
// order and honours an early stop.
func TestRangeOrderAndEarlyStop(t *testing.T) {
	s := New(10)
	for _, seq := range []int{5, 1, 9, 3} {
		if err := s.Put(mk(seq)); err != nil {
			t.Fatal(err)
		}
	}
	var seen []int
	s.Range(func(c *bundle.Copy) bool {
		seen = append(seen, c.Bundle.ID.Seq)
		return true
	})
	want := []int{1, 3, 5, 9}
	for i, seq := range seen {
		if seq != want[i] {
			t.Fatalf("Range order = %v, want %v", seen, want)
		}
	}
	n := 0
	s.Range(func(*bundle.Copy) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d copies, want 2", n)
	}
	got := s.AppendIDs(nil)
	if len(got) != 4 || got[0].Seq != 1 || got[3].Seq != 9 {
		t.Errorf("AppendIDs = %v", got)
	}
}

// TestMinExpiryTracking exercises the conservative min-expiry bound:
// in-place lowering via NoteExpiry must defeat the fast path, and purge
// scans must recompute the bound exactly so later purges work.
func TestMinExpiryTracking(t *testing.T) {
	s := New(10)
	a := mk(1)
	a.Expiry = 1000
	b := mk(2)
	b.Expiry = 2000
	for _, c := range []*bundle.Copy{a, b} {
		if err := s.Put(c); err != nil {
			t.Fatal(err)
		}
	}
	// Lower a's stored deadline in place (as TTL ageing does) and
	// notify. The store holds its own copy, so the edit goes through Get.
	sa := s.Get(a.Bundle.ID)
	sa.Expiry = 100
	s.NoteExpiry(sa)
	if purged := purgeExpired(s, 100); len(purged) != 1 || purged[0] != a.Bundle.ID {
		t.Fatalf("purged %v, want [a]", purged)
	}
	// The purge scan recomputed the bound from survivors: b at 2000.
	if purged := purgeExpired(s, 1500); purged != nil {
		t.Fatalf("purged %v, want nil", purged)
	}
	if purged := purgeExpired(s, 2000); len(purged) != 1 || purged[0] != b.Bundle.ID {
		t.Fatalf("purged %v, want [b]", purged)
	}
	// Empty again: the bound must have reset.
	if purged := purgeExpired(s, 1<<50); purged != nil {
		t.Fatalf("purged %v from empty store", purged)
	}
}

// TestIndexConsistencyProperty hammers Put/Remove/PurgeExpired/
// PurgeMatching with random churn and cross-checks the sorted index
// (lookups, order, pinned count, put counter, min-expiry fast path)
// against a map model and scratch recomputation.
func TestIndexConsistencyProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 99))
		s := New(6)
		model := map[bundle.ID]bundle.Copy{}
		var puts uint64
		now := sim.Time(0)
		// expiredOK reports whether every purged ID named an unpinned
		// lapsed copy, then drops them from the model.
		expiredOK := func(purged []bundle.ID) bool {
			for _, id := range purged {
				if c := model[id]; c.Pinned || !c.Expired(now) {
					return false
				}
				delete(model, id)
			}
			return true
		}
		for op := 0; op < 300; op++ {
			now += sim.Time(r.IntN(50))
			switch r.IntN(10) {
			case 0, 1, 2, 3, 4:
				c := mk(r.IntN(30))
				c.Pinned = r.IntN(5) == 0
				c.Expiry = now + sim.Time(r.IntN(200))
				if r.IntN(4) == 0 {
					c.Expiry = sim.Infinity
				}
				_, dup := model[c.Bundle.ID]
				err := s.Put(c)
				if dup != errors.Is(err, ErrDuplicate) {
					return false
				}
				if err == nil {
					model[c.Bundle.ID] = *c
					puts++
				}
			case 5, 6:
				id := bundle.ID{Src: 0, Seq: r.IntN(30)}
				_, had := model[id]
				if s.Remove(id) != had {
					return false
				}
				delete(model, id)
			case 7:
				if !expiredOK(purgeExpired(s, now)) {
					return false
				}
			case 8:
				for _, id := range purgeMatching(s, func(c *bundle.Copy) bool { return c.Bundle.ID.Seq%5 == int(seed%5) }) {
					delete(model, id)
				}
			case 9:
				if c := s.Get(bundle.ID{Src: 0, Seq: r.IntN(30)}); c != nil && !c.Pinned {
					if e := now + sim.Time(r.IntN(100)); e < c.Expiry {
						c.Expiry = e
						s.NoteExpiry(c)
						model[c.Bundle.ID] = *c
					}
				}
			}
			// Lookups must agree with the model, present and absent
			// IDs alike, and only successful Puts move the counter.
			for seq := -1; seq <= 30; seq++ {
				id := bundle.ID{Src: 0, Seq: seq}
				m, ok := model[id]
				if c := s.Get(id); (c != nil) != ok || (ok && *c != m) || s.Has(id) != ok {
					return false
				}
			}
			if s.Puts() != puts {
				return false
			}
			ids := s.AppendIDs(nil)
			if len(ids) != s.Len() || len(ids) != len(model) {
				return false
			}
			pinned := 0
			for i, id := range ids {
				if i > 0 && !ids[i-1].Less(id) {
					return false // out of order or duplicate
				}
				c := s.Get(id)
				if c == nil {
					return false
				}
				if c.Pinned {
					pinned++
				}
			}
			if s.Unpinned() != s.Len()-pinned {
				return false
			}
			// The fast path must never hide a lapsed unpinned copy: a
			// purge at now must leave none behind.
			if !expiredOK(purgeExpired(s, now)) {
				return false
			}
			lapsed := false
			s.Range(func(c *bundle.Copy) bool {
				if !c.Pinned && c.Expired(now) {
					lapsed = true
				}
				return !lapsed
			})
			if lapsed {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestControlLoadAffectsFreeAndOccupancy(t *testing.T) {
	s := New(10)
	for i := 0; i < 4; i++ {
		if err := s.Put(mk(i)); err != nil {
			t.Fatal(err)
		}
	}
	if s.Free() != 6 {
		t.Fatalf("Free = %d, want 6", s.Free())
	}
	s.SetControlLoad(2.5) // 25 stored immunity records at 0.1 slots each
	if s.Free() != 4 {
		t.Errorf("Free with control load 2.5 = %d, want 4 (whole slots)", s.Free())
	}
	if got, want := s.Occupancy(), (4+2.5)/10.0; got != want {
		t.Errorf("Occupancy = %v, want %v", got, want)
	}
	if s.ControlLoad() != 2.5 {
		t.Errorf("ControlLoad = %v", s.ControlLoad())
	}
	s.SetControlLoad(-1)
	if s.ControlLoad() != 0 {
		t.Error("negative control load not clamped")
	}
}

func TestControlLoadBlocksPut(t *testing.T) {
	s := New(3)
	s.SetControlLoad(2.2) // consumes 2 whole slots
	if err := s.Put(mk(1)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(mk(2)); !errors.Is(err, ErrFull) {
		t.Fatalf("Put with control-consumed buffer: err=%v, want ErrFull", err)
	}
	// Pinned copies still bypass.
	if err := s.Put(mkPinned(3)); err != nil {
		t.Fatal(err)
	}
	if s.Free() != 0 {
		t.Errorf("Free = %d, want 0", s.Free())
	}
}

// TestGrowThenRestoreAllocatesOnce: rebuilding a store of known size
// through Grow and Restore allocates its slice once, at the final size.
func TestGrowThenRestoreAllocatesOnce(t *testing.T) {
	copies := make([]bundle.Copy, 10)
	for i := range copies {
		copies[i] = *mk(i + 1)
	}
	s := New(10)
	allocs := testing.AllocsPerRun(10, func() {
		*s = Store{cap: 10, minExpiry: sim.Infinity} // empty, slice dropped
		s.Grow(len(copies))
		for i := range copies {
			if err := s.Restore(&copies[i]); err != nil {
				t.Fatal(err)
			}
		}
	})
	if allocs != 1 || s.Len() != len(copies) {
		t.Fatalf("rebuilt %d copies with %v allocations, want %d with 1", s.Len(), allocs, len(copies))
	}
}
