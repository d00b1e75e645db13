package bundle

import (
	"math"
	"slices"
	"sort"
	"testing"

	"dtnsim/internal/contact"
)

// modelSet is the reference FuzzSummaryVector checks against: a map
// for membership, sorted on demand for order.
type modelSet map[ID]struct{}

func (m modelSet) sorted() []ID {
	ids := make([]ID, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i].Less(ids[j]) })
	return ids
}

// rank is how many members order before id.
func (m modelSet) rank(id ID) int {
	n := 0
	for x := range m {
		if x.Less(id) {
			n++
		}
	}
	return n
}

// merge is Merge's specification: the first budget members in
// ascending order cross; the ones the target lacked are added.
func (m modelSet) merge(src modelSet, budget int) (sent, added int) {
	for _, id := range src.sorted() {
		if sent >= budget {
			break
		}
		sent++
		if _, ok := m[id]; !ok {
			m[id] = struct{}{}
			added++
		}
	}
	return sent, added
}

// checkAgainst fails unless v holds exactly m's members in strictly
// ascending order.
func checkAgainst(t *testing.T, v *SummaryVector, m modelSet) {
	t.Helper()
	want := m.sorted()
	got := v.Items()
	if v.Len() != len(want) || len(got) != len(want) {
		t.Fatalf("Len = %d, Items = %v, want %v", v.Len(), got, want)
	}
	for i, id := range got {
		if id != want[i] {
			t.Fatalf("Items = %v, want %v", got, want)
		}
		if i > 0 && !got[i-1].Less(id) {
			t.Fatalf("Items not strictly ascending at %d: %v", i, got)
		}
	}
}

// fuzzSeqs are the sequence numbers FuzzSummaryVector draws from:
// both sides of three page edges, negatives down to math.MinInt, and
// the top of the int range, where a page's block and bit must still
// rebuild the exact Seq.
var fuzzSeqs = [...]int{
	-130, -65, -64, -63, -1, 0, 1, 2, 3, 62, 63, 64, 65, 66, 127, 128, 129, 200,
	math.MaxInt - 64, math.MaxInt - 63, math.MaxInt - 1, math.MaxInt,
	math.MinInt, math.MinInt + 63, math.MinInt + 64,
}

// fuzzID decodes one byte into an ID over three sources.
func fuzzID(y int) ID {
	return ID{Src: contact.NodeID(y % 3), Seq: fuzzSeqs[(y/3)%len(fuzzSeqs)]}
}

// FuzzSummaryVector drives three vectors through a byte-coded op
// stream — Add, Has, Remove and its rank, the masked removal RemoveIn
// (self included), Rank, the masked walk RangeAbsent, and
// bounded Merge at budgets 0, 1, below, at and above the source's
// length and negative, self-merge included — over IDs at page edges,
// negative and near math.MaxInt, and checks each against a map + sort
// model after every op: members, strictly ascending order, ranks, and
// Merge's sent/added counts. At the end every pair is merged to a
// fixed point, which must then allocate nothing.
func FuzzSummaryVector(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 0, 7, 3, 1, 1, 9, 2, 0, 1, 3, 4, 1, 200, 5, 2, 9})
	// A short prefix into a long list, then the list back.
	long := make([]byte, 0, 240)
	for i := byte(0); i < 60; i++ {
		long = append(long, 0, 1, i)
	}
	long = append(long, 0, 0, 50, 2, 1, 5, 2, 4, 3, 2, 1, 2, 2, 9, 0, 3, 1, 7, 5, 0, 0, 5, 1, 1)
	f.Add(long)
	f.Fuzz(func(t *testing.T, ops []byte) {
		var vecs [3]*SummaryVector
		var models [3]modelSet
		for i := range vecs {
			vecs[i] = NewSummaryVector()
			models[i] = modelSet{}
		}
		for len(ops) >= 3 {
			op, x, y := ops[0], int(ops[1]), int(ops[2])
			ops = ops[3:]
			dst := x % 3
			id := fuzzID(y)
			switch op % 6 {
			case 0:
				_, had := models[dst][id]
				models[dst][id] = struct{}{}
				if vecs[dst].Add(id) == had {
					t.Fatalf("Add(%v) = %v with had = %v", id, !had, had)
				}
			case 1:
				_, want := models[dst][id]
				if vecs[dst].Has(id) != want {
					t.Fatalf("Has(%v) = %v, want %v", id, !want, want)
				}
			case 2:
				src := (x / 3) % 3 // may equal dst: self-merge
				n := len(models[src])
				budget := [...]int{0, 1, n / 2, n - 1, n, n + 3, -1, -n}[y%8]
				wantSent, wantAdded := models[dst].merge(models[src], budget)
				sent, added := vecs[dst].Merge(vecs[src], budget)
				if sent != wantSent || added != wantAdded {
					t.Fatalf("Merge(budget %d of %d) = (%d, %d), want (%d, %d)",
						budget, n, sent, added, wantSent, wantAdded)
				}
				checkAgainst(t, vecs[src], models[src])
			case 3:
				if (x/3)%2 == 1 {
					src := (x / 6) % 3 // may equal dst: removes everything
					var want, got []int
					var wantIDs, gotIDs []ID
					for rank, m := range models[dst].sorted() {
						if _, in := models[src][m]; in {
							want, wantIDs = append(want, rank), append(wantIDs, m)
						}
					}
					vecs[dst].RemoveIn(vecs[src], func(rank int, m ID) {
						got, gotIDs = append(got, rank), append(gotIDs, m)
					})
					if !slices.Equal(got, want) || !slices.Equal(gotIDs, wantIDs) {
						t.Fatalf("RemoveIn(%d of %d) = %v at ranks %v, want %v at %v", src, dst, gotIDs, got, wantIDs, want)
					}
					for _, m := range wantIDs {
						delete(models[dst], m)
					}
					break
				}
				_, had := models[dst][id]
				wantRank := models[dst].rank(id)
				delete(models[dst], id)
				if rank, ok := vecs[dst].Remove(id); rank != wantRank || ok != had {
					t.Fatalf("Remove(%v) = (%d, %v), want (%d, %v)", id, rank, ok, wantRank, had)
				}
			case 4:
				_, want := models[dst][id]
				wantRank := models[dst].rank(id)
				if rank, ok := vecs[dst].Rank(id); rank != wantRank || ok != want {
					t.Fatalf("Rank(%v) = (%d, %v), want (%d, %v)", id, rank, ok, wantRank, want)
				}
			case 5:
				a, b := (x/3)%3, (x/9)%3 // may repeat dst or each other
				stop := y % 8            // stop after this many, 0 = never
				var want []int
				for rank, m := range models[dst].sorted() {
					_, inA := models[a][m]
					_, inB := models[b][m]
					if !inA && !inB {
						want = append(want, rank)
					}
				}
				if stop > 0 && len(want) > stop {
					want = want[:stop]
				}
				items := vecs[dst].Items()
				var got []int
				vecs[dst].RangeAbsent(vecs[a], vecs[b], func(rank int, m ID) bool {
					if rank >= len(items) || items[rank] != m {
						t.Fatalf("RangeAbsent yielded %v at rank %d of %v", m, rank, items)
					}
					got = append(got, rank)
					return len(got) != stop
				})
				if !slices.Equal(got, want) {
					t.Fatalf("RangeAbsent(%d minus %d, %d) ranks %v, want %v", dst, a, b, got, want)
				}
			}
			checkAgainst(t, vecs[dst], models[dst])
		}
		// One sweep leaves every vector holding the union (the first
		// absorbs all three, the others absorb the first); after that
		// no merge learns anything and none may allocate or write.
		for i := range vecs {
			for j := range vecs {
				vecs[i].Merge(vecs[j], vecs[j].Len())
			}
		}
		before := vecs[0].Items()
		if allocs := testing.AllocsPerRun(5, func() {
			for i := range vecs {
				for j := range vecs {
					if _, added := vecs[i].Merge(vecs[j], vecs[j].Len()); added != 0 {
						t.Fatalf("merge at the fixed point added %d", added)
					}
				}
			}
		}); allocs != 0 {
			t.Fatalf("merge that adds nothing allocates %v/op, want 0", allocs)
		}
		for i, id := range vecs[0].Items() {
			if id != before[i] {
				t.Fatal("merge that adds nothing changed the vector")
			}
		}
	})
}
