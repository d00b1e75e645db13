package buffer

import (
	"errors"
	"math"
	"slices"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// fuzzSeqs are the sequence numbers FuzzStoreIndex draws from: both
// sides of page edges, negatives and the top of the int range.
var fuzzSeqs = [...]int{-65, -64, -1, 0, 1, 62, 63, 64, 65, 127, 128, 500, math.MaxInt - 1, math.MaxInt}

// storeModel is the reference FuzzStoreIndex checks a Store against:
// a map of stored copies, sorted on demand.
type storeModel map[bundle.ID]bundle.Copy

func (m storeModel) sorted() []bundle.ID {
	ids := make([]bundle.ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.SortFunc(ids, func(a, b bundle.ID) int {
		if a.Less(b) {
			return -1
		}
		if b.Less(a) {
			return 1
		}
		return 0
	})
	return ids
}

func (m storeModel) unpinned() int {
	n := 0
	for _, c := range m {
		if !c.Pinned {
			n++
		}
	}
	return n
}

// FuzzStoreIndex drives two stores and a received set through a
// byte-coded op stream — Put (pinned or not, refused when full or a
// duplicate), Remove, PurgeMatching, PurgeIn of the received set, a
// received-set Add, and the masked anti-entropy diff RangeMissing with
// early stops — over IDs of three sources at page edges, and checks
// both stores against a map + sort model after every op: Get and Has
// for every ID, Range order and contents, Len, Unpinned and the byte
// counts.
func FuzzStoreIndex(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 1, 0, 1, 4, 0, 0, 7, 4, 1, 2, 5, 0, 0, 1, 0, 1, 2, 1, 4, 3, 0, 9, 5, 1, 3})
	seed := make([]byte, 0, 150)
	for i := byte(0); i < 42; i++ {
		seed = append(seed, 0, i%2, i)
	}
	seed = append(seed, 5, 0, 0, 2, 1, 3, 5, 1, 2, 4, 0, 5, 3, 0, 9, 5, 0, 1)
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		stores := [2]*Store{New(8), New(8)}
		models := [2]storeModel{{}, {}}
		var received bundle.SummaryVector
		recvModel := map[bundle.ID]bool{}
		var all []bundle.ID
		for _, seq := range fuzzSeqs {
			for src := range 3 {
				all = append(all, bundle.ID{Src: contact.NodeID(src), Seq: seq})
			}
		}
		for step := 0; len(ops) >= 3; step++ {
			op, x, y := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			k := x % 2
			s, m := stores[k], models[k]
			id := all[y%len(all)]
			switch op % 6 {
			case 0, 1:
				c := &bundle.Copy{
					Bundle:   &bundle.Bundle{ID: id, Dst: 9, Meta: bundle.Meta{Size: int64(1 + y%7)}},
					Expiry:   sim.Infinity,
					StoredAt: sim.Time(step),
					Pinned:   op%2 == 1,
				}
				_, dup := m[id]
				full := !c.Pinned && m.unpinned() >= s.Cap()
				err := s.Put(c)
				switch {
				case dup && !errors.Is(err, ErrDuplicate), !dup && full && !errors.Is(err, ErrFull),
					!dup && !full && err != nil:
					t.Fatalf("Put(%v) = %v with dup %v full %v", id, err, dup, full)
				}
				if err == nil {
					m[id] = *c
				}
			case 2:
				_, had := m[id]
				delete(m, id)
				if s.Remove(id) != had {
					t.Fatalf("Remove(%v) = %v, want %v", id, !had, had)
				}
			case 3:
				// Remove every copy of one source, every pinned copy, or
				// (PurgeIn against the per-copy test it replaces) every
				// copy the received set holds.
				match := func(c *bundle.Copy) bool { return c.Bundle.ID.Src == id.Src }
				switch y % 3 {
				case 1:
					match = func(c *bundle.Copy) bool { return c.Pinned }
				case 2:
					match = func(c *bundle.Copy) bool { return received.Has(c.Bundle.ID) }
				}
				var want []bundle.ID
				for _, mid := range m.sorted() {
					if c := m[mid]; match(&c) {
						want = append(want, mid)
						delete(m, mid)
					}
				}
				var got []bundle.ID
				if y%3 == 2 {
					s.PurgeIn(&received, collect(&got))
				} else {
					s.PurgeMatching(match, collect(&got))
				}
				if !slices.Equal(got, want) {
					t.Fatalf("purge %d removed %v, want %v", y%3, got, want)
				}
			case 4:
				recvModel[id] = true
				received.Add(id)
			case 5:
				peer, pm := stores[1-k], models[1-k]
				stop := y % 5 // stop after this many, 0 = never
				var want []bundle.ID
				for _, mid := range m.sorted() {
					if _, stored := pm[mid]; !stored && !recvModel[mid] {
						want = append(want, mid)
					}
				}
				if stop > 0 && len(want) > stop {
					want = want[:stop]
				}
				var got []bundle.ID
				s.RangeMissing(peer, &received, func(c *bundle.Copy) bool {
					if mc := m[c.Bundle.ID]; *c != mc {
						t.Fatalf("RangeMissing yielded %+v, stored %+v", *c, mc)
					}
					got = append(got, c.Bundle.ID)
					return len(got) != stop
				})
				if !slices.Equal(got, want) {
					t.Fatalf("RangeMissing = %v, want %v", got, want)
				}
			}
			for i, s := range stores {
				checkStore(t, s, models[i], all)
			}
		}
	})
}

// checkStore fails unless s holds exactly m's copies: Get and Has for
// every ID of all, Range in ascending order, Len and Unpinned.
func checkStore(t *testing.T, s *Store, m storeModel, all []bundle.ID) {
	t.Helper()
	for _, id := range all {
		mc, ok := m[id]
		if c := s.Get(id); (c != nil) != ok || ok && *c != mc || s.Has(id) != ok {
			t.Fatalf("Get(%v) = %v, Has = %v; model holds %v: %v", id, c, s.Has(id), ok, mc)
		}
	}
	var got []bundle.ID
	s.Range(func(c *bundle.Copy) bool { got = append(got, c.Bundle.ID); return true })
	if want := m.sorted(); !slices.Equal(got, want) {
		t.Fatalf("Range = %v, want %v", got, want)
	}
	if s.Len() != len(m) || s.Unpinned() != m.unpinned() {
		t.Fatalf("Len %d Unpinned %d, model %d and %d", s.Len(), s.Unpinned(), len(m), m.unpinned())
	}
	var used, unpinned int64
	for _, c := range m {
		used += c.Bundle.Meta.Size
		if !c.Pinned {
			unpinned += c.Bundle.Meta.Size
		}
	}
	if s.UsedBytes() != used || s.UnpinnedBytes() != unpinned {
		t.Fatalf("UsedBytes %d UnpinnedBytes %d, model %d and %d", s.UsedBytes(), s.UnpinnedBytes(), used, unpinned)
	}
}
