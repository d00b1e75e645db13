package sim

import (
	"math"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestRNGDeterminism(t *testing.T) {
	a := NewRNG(42)
	b := NewRNG(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("same seed diverged at draw %d", i)
		}
	}
}

func TestRNGDifferentSeedsDiverge(t *testing.T) {
	a := NewRNG(1)
	b := NewRNG(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different seeds produced %d/100 identical draws", same)
	}
}

func TestRNGDeriveIndependence(t *testing.T) {
	// Streams derived with different tags from identically seeded parents
	// must themselves be deterministic and distinct.
	p1 := NewRNG(7)
	p2 := NewRNG(7)
	c1 := p1.Derive(1)
	c2 := p2.Derive(1)
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatalf("derived streams with same lineage diverged at %d", i)
		}
	}
	d1 := NewRNG(7).Derive(1)
	d2 := NewRNG(7).Derive(2)
	same := 0
	for i := 0; i < 100; i++ {
		if d1.Uint64() == d2.Uint64() {
			same++
		}
	}
	if same > 2 {
		t.Errorf("different tags produced %d/100 identical draws", same)
	}
}

func TestUniformRange(t *testing.T) {
	g := NewRNG(3)
	for i := 0; i < 10000; i++ {
		v := g.Uniform(10, 20)
		if v < 10 || v >= 20 {
			t.Fatalf("Uniform(10,20) = %v out of range", v)
		}
	}
}

func TestParetoBounds(t *testing.T) {
	g := NewRNG(5)
	lo, hi := 60.0, 86400.0
	for i := 0; i < 10000; i++ {
		v := g.Pareto(1.4, lo, hi)
		if v < lo || v > hi {
			t.Fatalf("Pareto draw %v outside [%v,%v]", v, lo, hi)
		}
	}
}

func TestParetoHeavyTail(t *testing.T) {
	// A bounded Pareto with small alpha should put noticeably more mass
	// near lo than a uniform would, and its mean should exceed the median.
	g := NewRNG(11)
	lo, hi := 60.0, 86400.0
	n := 20000
	vals := make([]float64, n)
	sum := 0.0
	for i := range vals {
		vals[i] = g.Pareto(1.2, lo, hi)
		sum += vals[i]
	}
	mean := sum / float64(n)
	below := 0
	for _, v := range vals {
		if v < mean {
			below++
		}
	}
	if frac := float64(below) / float64(n); frac < 0.60 {
		t.Errorf("heavy tail expected: only %.2f of draws below mean", frac)
	}
}

func TestParetoPanicsOnBadBounds(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Pareto(1, 10, 5) did not panic")
		}
	}()
	NewRNG(1).Pareto(1, 10, 5)
}

func TestBoolEdges(t *testing.T) {
	g := NewRNG(9)
	for i := 0; i < 100; i++ {
		if g.Bool(0) {
			t.Fatal("Bool(0) returned true")
		}
		if !g.Bool(1) {
			t.Fatal("Bool(1) returned false")
		}
	}
}

func TestBoolFrequency(t *testing.T) {
	g := NewRNG(13)
	n, hits := 100000, 0
	for i := 0; i < n; i++ {
		if g.Bool(0.3) {
			hits++
		}
	}
	got := float64(hits) / float64(n)
	if math.Abs(got-0.3) > 0.02 {
		t.Errorf("Bool(0.3) frequency = %.3f", got)
	}
}

func TestIntNRange(t *testing.T) {
	f := func(seed uint64) bool {
		g := NewRNG(seed)
		for i := 0; i < 100; i++ {
			v := g.IntN(17)
			if v < 0 || v >= 17 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPermIsPermutation(t *testing.T) {
	f := func(seed uint64, n uint8) bool {
		m := int(n%64) + 1
		p := NewRNG(seed).Perm(m)
		seen := make([]bool, m)
		for _, v := range p {
			if v < 0 || v >= m || seen[v] {
				return false
			}
			seen[v] = true
		}
		return len(p) == m
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(42).String(); got != "42s" {
		t.Errorf("Time(42).String() = %q", got)
	}
	if got := Infinity.String(); got != "+inf" {
		t.Errorf("Infinity.String() = %q", got)
	}
}

func TestReseedReplaysStream(t *testing.T) {
	g := NewReseedable()
	s1, s2 := EncounterSeed(2012, 3, 9, 1500)
	g.Reseed(s1, s2)
	first := []uint64{g.Uint64(), g.Uint64(), g.Uint64()}
	// Perturb the state, then reseed: the stream must replay exactly.
	g.Reseed(99, 1)
	g.Uint64()
	g.Reseed(s1, s2)
	for i, want := range first {
		if got := g.Uint64(); got != want {
			t.Fatalf("draw %d after reseed = %d, want %d", i, got, want)
		}
	}
}

func TestReseedPanicsOnPlainRNG(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Reseed on a NewRNG stream did not panic")
		}
	}()
	NewRNG(1).Reseed(1, 2)
}

// TestRNGSize pins an RNG at 24 bytes: walk and itinerary streams live
// by value per node, so every byte more is a byte per node.
func TestRNGSize(t *testing.T) {
	if n := unsafe.Sizeof(RNG{}); n != 24 {
		t.Errorf("sim.RNG is %d bytes, want 24", n)
	}
}

// TestEncounterSeedIsPure pins the property the sharded engine rests
// on: the derived state depends only on (runSeed, a, b, start), never
// on call order or prior draws, and distinct encounters decorrelate.
func TestEncounterSeedIsPure(t *testing.T) {
	a1, b1 := EncounterSeed(7, 1, 2, 100)
	a2, b2 := EncounterSeed(7, 1, 2, 100)
	if a1 != a2 || b1 != b2 {
		t.Fatal("EncounterSeed is not a pure function of its inputs")
	}
	seen := map[[2]uint64]string{{a1, b1}: "base"}
	for name, pair := range map[string][2]uint64{
		"seed":  first2(EncounterSeed(8, 1, 2, 100)),
		"nodeA": first2(EncounterSeed(7, 3, 2, 100)),
		"nodeB": first2(EncounterSeed(7, 1, 4, 100)),
		"start": first2(EncounterSeed(7, 1, 2, 200)),
	} {
		if prev, dup := seen[pair]; dup {
			t.Fatalf("varying %s collided with %s", name, prev)
		}
		seen[pair] = name
	}
}

func first2(a, b uint64) [2]uint64 { return [2]uint64{a, b} }

// TestDeriveIntoMatchesDerive: a stream initialised in place draws the
// sequence Derive's would, advances the parent identically, and costs
// no allocation — what lets per-node streams live in a slice.
func TestDeriveIntoMatchesDerive(t *testing.T) {
	p1, p2 := NewRNG(7), NewRNG(7)
	slab := make([]RNG, 3)
	for i := range slab {
		want := p1.Derive(uint64(i))
		p2.DeriveInto(uint64(i), &slab[i])
		for k := 0; k < 8; k++ {
			if a, b := want.Uint64(), slab[i].Uint64(); a != b {
				t.Fatalf("stream %d draw %d: Derive %d, DeriveInto %d", i, k, a, b)
			}
		}
	}
	if p1.Uint64() != p2.Uint64() {
		t.Fatal("parents diverged")
	}
	if n := testing.AllocsPerRun(100, func() {
		p2.DeriveInto(9, &slab[0])
		slab[0].Uniform(0, 1)
	}); n != 0 {
		t.Errorf("DeriveInto + draw allocated %v times", n)
	}
}
