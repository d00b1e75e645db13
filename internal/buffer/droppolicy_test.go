package buffer

import (
	"errors"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// sized builds an unpinned copy of the given payload size.
func sized(src contact.NodeID, seq int, size int64, storedAt sim.Time) *bundle.Copy {
	return &bundle.Copy{
		Bundle: &bundle.Bundle{
			ID:   bundle.ID{Src: src, Seq: seq},
			Meta: bundle.Meta{Size: size},
		},
		Expiry:   sim.Infinity,
		StoredAt: storedAt,
	}
}

// makeByteRoom runs s.MakeByteRoom and returns the reported IDs.
func makeByteRoom(s *Store, size int64, p DropPolicy) (evicted []bundle.ID, ok bool) {
	ok = s.MakeByteRoom(size, p, collect(&evicted))
	return evicted, ok
}

func TestByteCapAccounting(t *testing.T) {
	s := New(10)
	s.SetByteCap(100)
	if err := s.Put(sized(0, 1, 60, 0)); err != nil {
		t.Fatal(err)
	}
	if got := s.UsedBytes(); got != 60 {
		t.Fatalf("UsedBytes = %d, want 60", got)
	}
	if !s.FitsBytes(40) || s.FitsBytes(41) {
		t.Fatalf("FitsBytes wrong at 60/100 used")
	}
	if err := s.Put(sized(0, 2, 41, 0)); !errors.Is(err, ErrFullBytes) {
		t.Fatalf("oversized Put err = %v, want ErrFullBytes", err)
	}
	// Pinned copies bypass the byte check but count in UsedBytes.
	pinned := sized(0, 3, 500, 0)
	pinned.Pinned = true
	if err := s.Put(pinned); err != nil {
		t.Fatalf("pinned Put: %v", err)
	}
	if got := s.UsedBytes(); got != 560 {
		t.Fatalf("UsedBytes = %d, want 560", got)
	}
	if got := s.UnpinnedBytes(); got != 60 {
		t.Fatalf("UnpinnedBytes = %d, want 60", got)
	}
	s.Remove(bundle.ID{Src: 0, Seq: 1})
	if got, want := s.UsedBytes(), int64(500); got != want {
		t.Fatalf("UsedBytes after Remove = %d, want %d", got, want)
	}
	if s.UnpinnedBytes() != 0 {
		t.Fatalf("UnpinnedBytes after Remove = %d, want 0", s.UnpinnedBytes())
	}
}

func TestByteCapZeroDisablesCheck(t *testing.T) {
	s := New(10)
	if err := s.Put(sized(0, 1, 1<<40, 0)); err != nil {
		t.Fatalf("unbounded store refused sized copy: %v", err)
	}
	if got := s.UsedBytes(); got != 1<<40 {
		t.Fatalf("bytes still tracked without a cap: got %d", got)
	}
}

func TestPurgeRecomputesBytes(t *testing.T) {
	s := New(10)
	s.SetByteCap(1000)
	for i := 1; i <= 4; i++ {
		cp := sized(0, i, int64(10*i), 0)
		cp.Expiry = sim.Time(100 * i)
		if err := s.Put(cp); err != nil {
			t.Fatal(err)
		}
	}
	if got := purgeExpired(s, 250); len(got) != 2 || got[0].Seq != 1 || got[1].Seq != 2 {
		t.Fatalf("purged %v, want seqs 1 and 2 (sizes 10 and 20)", got)
	}
	if got := s.UsedBytes(); got != 70 {
		t.Fatalf("UsedBytes after purge = %d, want 70", got)
	}
	if got := s.UnpinnedBytes(); got != 70 {
		t.Fatalf("UnpinnedBytes after purge = %d, want 70", got)
	}
}

func TestDropPolicyRegistry(t *testing.T) {
	for _, name := range []string{"droptail", "dropfront", "droprandom"} {
		p, err := NewDropPolicy(name, 7)
		if err != nil {
			t.Fatalf("NewDropPolicy(%q): %v", name, err)
		}
		if p.Name() != name {
			t.Errorf("policy %q reports name %q", name, p.Name())
		}
		if !ValidDropPolicy(name) {
			t.Errorf("ValidDropPolicy(%q) = false", name)
		}
	}
	if _, err := NewDropPolicy("nosuch", 0); !errors.Is(err, ErrDropPolicy) {
		t.Fatalf("unknown policy err = %v, want ErrDropPolicy", err)
	}
	if ValidDropPolicy("nosuch") {
		t.Error("ValidDropPolicy accepted unknown name")
	}
}

func TestDropTailRefuses(t *testing.T) {
	s := New(10)
	s.SetByteCap(100)
	if err := s.Put(sized(0, 1, 90, 0)); err != nil {
		t.Fatal(err)
	}
	p, _ := NewDropPolicy("droptail", 0)
	evicted, ok := makeByteRoom(s, 20, p)
	if ok || len(evicted) != 0 {
		t.Fatalf("droptail MakeByteRoom = (%v, %v), want refuse with no evictions", evicted, ok)
	}
	if s.Len() != 1 {
		t.Fatal("droptail mutated the store")
	}
}

func TestDropFrontEvictsOldest(t *testing.T) {
	s := New(10)
	s.SetByteCap(100)
	// Stored newest-first by ID to prove selection is by StoredAt.
	for i, at := range []sim.Time{300, 100, 200} {
		if err := s.Put(sized(0, i+1, 30, at)); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := NewDropPolicy("dropfront", 0)
	evicted, ok := makeByteRoom(s, 40, p)
	if !ok || len(evicted) != 1 {
		t.Fatalf("MakeByteRoom = (%d evicted, %v), want 1 eviction", len(evicted), ok)
	}
	if got := evicted[0].Seq; got != 2 {
		t.Fatalf("evicted seq %d, want 2 (oldest StoredAt)", got)
	}
	if !s.FitsBytes(40) {
		t.Fatal("room not actually made")
	}
}

func TestDropFrontEvictsSeveral(t *testing.T) {
	s := New(10)
	s.SetByteCap(100)
	for i := 1; i <= 3; i++ {
		if err := s.Put(sized(0, i, 30, sim.Time(i))); err != nil {
			t.Fatal(err)
		}
	}
	p, _ := NewDropPolicy("dropfront", 0)
	evicted, ok := makeByteRoom(s, 70, p)
	if !ok || len(evicted) != 2 {
		t.Fatalf("MakeByteRoom = (%d evicted, %v), want 2 evictions", len(evicted), ok)
	}
	if evicted[0].Seq != 1 || evicted[1].Seq != 2 {
		t.Fatalf("evicted %v; want seq 1 then 2", evicted)
	}
}

func TestMakeByteRoomOversizedRefusedUpFront(t *testing.T) {
	s := New(10)
	s.SetByteCap(100)
	if err := s.Put(sized(0, 1, 50, 0)); err != nil {
		t.Fatal(err)
	}
	p, _ := NewDropPolicy("dropfront", 0)
	evicted, ok := makeByteRoom(s, 101, p)
	if ok || len(evicted) != 0 {
		t.Fatalf("oversized incoming must be refused before evicting; got (%d, %v)", len(evicted), ok)
	}
	if s.Len() != 1 {
		t.Fatal("store mutated by refused oversized incoming")
	}
}

func TestMakeByteRoomSkipsPinnedAndSizeless(t *testing.T) {
	s := New(10)
	s.SetByteCap(100)
	pinned := sized(0, 1, 80, 0)
	pinned.Pinned = true
	if err := s.Put(pinned); err != nil {
		t.Fatal(err)
	}
	// A size-less copy cannot relieve byte pressure and must never be a
	// victim.
	if err := s.Put(sized(0, 2, 0, 0)); err != nil {
		t.Fatal(err)
	}
	if err := s.Put(sized(0, 3, 90, 0)); err != nil {
		t.Fatal(err)
	}
	p, _ := NewDropPolicy("dropfront", 0)
	evicted, ok := makeByteRoom(s, 50, p)
	if !ok || len(evicted) != 1 || evicted[0].Seq != 3 {
		t.Fatalf("MakeByteRoom = (%v, %v), want to evict only seq 3", evicted, ok)
	}
	if !s.Has(bundle.ID{Src: 0, Seq: 1}) || !s.Has(bundle.ID{Src: 0, Seq: 2}) {
		t.Fatal("pinned or size-less copy was evicted")
	}
}

func TestDropRandomDeterministic(t *testing.T) {
	build := func() *Store {
		s := New(20)
		s.SetByteCap(100)
		for i := 1; i <= 10; i++ {
			if err := s.Put(sized(0, i, 10, 0)); err != nil {
				t.Fatal(err)
			}
		}
		return s
	}
	run := func(seed uint64) []bundle.ID {
		s := build()
		p, _ := NewDropPolicy("droprandom", seed)
		evicted, ok := makeByteRoom(s, 30, p)
		if !ok || len(evicted) != 3 {
			t.Fatalf("MakeByteRoom = (%d, %v), want 3 evictions", len(evicted), ok)
		}
		return evicted
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("same seed diverged: %v vs %v", a, b)
		}
	}
	// A different seed should (for this configuration) pick a different
	// victim sequence; equality here would suggest the seed is ignored.
	c := run(43)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
		}
	}
	if same {
		t.Fatalf("seeds 42 and 43 evicted identically: %v", a)
	}
}

// recordingPolicy wraps a policy and records each victim's ID at the
// moment Victim picks it, before the store can move anything.
type recordingPolicy struct {
	DropPolicy
	picked []bundle.ID
}

func (r *recordingPolicy) Victim(s *Store) *bundle.Copy {
	v := r.DropPolicy.Victim(s)
	if v != nil {
		r.picked = append(r.picked, v.Bundle.ID)
	}
	return v
}

// TestMakeByteRoomReportsVictims checks MakeByteRoom reports exactly the
// policy's victims. The first victim (seq 2, the oldest) is not the
// last copy in ID order: a victim pointer read after Remove names its
// successor, seq 3.
func TestMakeByteRoomReportsVictims(t *testing.T) {
	s := New(10)
	s.SetByteCap(100)
	for i, at := range []sim.Time{300, 100, 200} {
		if err := s.Put(sized(0, i+1, 30, at)); err != nil {
			t.Fatal(err)
		}
	}
	front, _ := NewDropPolicy("dropfront", 0)
	p := &recordingPolicy{DropPolicy: front}
	evicted, ok := makeByteRoom(s, 70, p)
	if !ok || len(evicted) != 2 || len(p.picked) != 2 {
		t.Fatalf("MakeByteRoom = (%v, %v), policy picked %v; want 2 evictions", evicted, ok, p.picked)
	}
	for i := range evicted {
		if evicted[i] != p.picked[i] {
			t.Fatalf("reported %v, policy picked %v", evicted, p.picked)
		}
	}
	if evicted[0].Seq != 2 || evicted[1].Seq != 3 || !s.Has(bundle.ID{Src: 0, Seq: 1}) {
		t.Fatalf("evicted %v, want seq 2 then 3 with seq 1 kept", evicted)
	}
}
