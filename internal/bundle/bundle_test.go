package bundle

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dtnsim/internal/sim"
)

func TestIDOrdering(t *testing.T) {
	cases := []struct {
		a, b ID
		less bool
	}{
		{ID{0, 1}, ID{0, 2}, true},
		{ID{0, 2}, ID{0, 1}, false},
		{ID{1, 0}, ID{2, 0}, true},
		{ID{1, 5}, ID{1, 5}, false},
	}
	for _, c := range cases {
		if got := c.a.Less(c.b); got != c.less {
			t.Errorf("%v.Less(%v) = %v, want %v", c.a, c.b, got, c.less)
		}
	}
}

func TestCopyExpiry(t *testing.T) {
	c := &Copy{Expiry: 100}
	if c.Expired(99) {
		t.Error("expired before deadline")
	}
	if !c.Expired(100) {
		t.Error("not expired at deadline")
	}
	inf := &Copy{Expiry: sim.Infinity}
	if inf.Expired(1e17) {
		t.Error("infinite TTL expired")
	}
}

func TestSummaryVectorBasics(t *testing.T) {
	v := NewSummaryVector()
	id := ID{1, 1}
	if v.Has(id) || v.Len() != 0 {
		t.Fatal("fresh vector not empty")
	}
	if !v.Add(id) {
		t.Fatal("first Add returned false")
	}
	if v.Add(id) {
		t.Fatal("duplicate Add returned true")
	}
	if !v.Has(id) || v.Len() != 1 {
		t.Fatal("membership after Add wrong")
	}
	// The zero value is an empty, usable set.
	var z SummaryVector
	if z.Has(id) || !z.Add(id) || !z.Has(id) {
		t.Fatal("zero-value vector not usable")
	}
}

func TestSummaryVectorItemsDeterministic(t *testing.T) {
	v := NewSummaryVector()
	v.Add(ID{2, 1})
	v.Add(ID{0, 9})
	v.Add(ID{0, 2})
	got := v.Items()
	want := []ID{{0, 2}, {0, 9}, {2, 1}}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Items() = %v, want %v", got, want)
		}
	}
}

// Property: a full-budget Merge is set union and satisfies its
// identities.
func TestSummaryVectorSetAlgebraProperty(t *testing.T) {
	build := func(seed uint64, n int) *SummaryVector {
		r := rand.New(rand.NewPCG(seed, 7))
		v := NewSummaryVector()
		for i := 0; i < n; i++ {
			v.Add(ID{Src: 0, Seq: r.IntN(30)})
		}
		return v
	}
	f := func(sa, sb uint64) bool {
		a := build(sa, 20)
		b := build(sb, 20)
		missing := 0
		a.Range(func(id ID) bool {
			if !b.Has(id) {
				missing++
			}
			return true
		})
		// 1) |a ∪ b| = |b| + |a \ b|, and the whole of a was sent.
		before := b.Len()
		sent, added := b.Merge(a, a.Len())
		if sent != a.Len() || added != missing || b.Len() != before+missing {
			return false
		}
		// 2) a ⊆ a ∪ b
		subset := true
		a.Range(func(id ID) bool {
			subset = b.Has(id)
			return subset
		})
		if !subset {
			return false
		}
		// 3) union is idempotent
		if _, again := b.Merge(a, a.Len()); again != 0 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestSummaryVectorRangeIndex checks ordered traversal: Range walks
// ascending, honours early stop and allocates nothing.
func TestSummaryVectorRangeIndex(t *testing.T) {
	v := NewSummaryVector()
	for _, seq := range []int{7, 2, 9, 4, 2} {
		v.Add(ID{Src: 1, Seq: seq})
	}
	var seen []int
	v.Range(func(id ID) bool {
		seen = append(seen, id.Seq)
		return true
	})
	want := []int{2, 4, 7, 9}
	if len(seen) != len(want) {
		t.Fatalf("Range visited %v, want %v", seen, want)
	}
	for i := range want {
		if seen[i] != want[i] {
			t.Fatalf("Range order %v, want %v", seen, want)
		}
	}
	n := 0
	v.Range(func(ID) bool { n++; return n < 2 })
	if n != 2 {
		t.Errorf("early stop visited %d, want 2", n)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		v.Range(func(ID) bool { return true })
	}); allocs != 0 {
		t.Errorf("Range allocates %v/op, want 0", allocs)
	}
}
