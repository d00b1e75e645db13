package contact

import (
	"errors"
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dtnsim/internal/sim"
)

func TestContactValidate(t *testing.T) {
	cases := []struct {
		name string
		c    Contact
		ok   bool
	}{
		{"valid", Contact{A: 0, B: 1, Start: 10, End: 20}, true},
		{"self", Contact{A: 3, B: 3, Start: 10, End: 20}, false},
		{"unordered endpoints", Contact{A: 2, B: 1, Start: 10, End: 20}, false},
		{"negative start", Contact{A: 0, B: 1, Start: -1, End: 20}, false},
		{"empty window", Contact{A: 0, B: 1, Start: 10, End: 10}, false},
		{"inverted window", Contact{A: 0, B: 1, Start: 20, End: 10}, false},
		{"per-contact bandwidth", Contact{A: 0, B: 1, Start: 10, End: 20, Bandwidth: 1e6}, true},
		{"negative bandwidth", Contact{A: 0, B: 1, Start: 10, End: 20, Bandwidth: -1}, false},
		{"NaN bandwidth", Contact{A: 0, B: 1, Start: 10, End: 20, Bandwidth: math.NaN()}, false},
		{"Inf bandwidth", Contact{A: 0, B: 1, Start: 10, End: 20, Bandwidth: math.Inf(1)}, false},
		{"NaN start", Contact{A: 0, B: 1, Start: sim.Time(math.NaN()), End: 5}, false},
		{"NaN end", Contact{A: 0, B: 1, Start: 1, End: sim.Time(math.NaN())}, false},
		{"Inf end", Contact{A: 0, B: 1, Start: 1, End: sim.Time(math.Inf(1))}, false},
		{"Inf start", Contact{A: 0, B: 1, Start: sim.Time(math.Inf(1)), End: sim.Time(math.Inf(1))}, false},
		{"end at sim.Infinity", Contact{A: 0, B: 1, Start: 1, End: sim.Infinity}, false},
		{"end past sim.Infinity", Contact{A: 0, B: 1, Start: 1, End: 2 * sim.Infinity}, false},
		{"start at sim.Infinity", Contact{A: 0, B: 1, Start: sim.Infinity, End: 2 * sim.Infinity}, false},
		{"end just below sim.Infinity", Contact{A: 0, B: 1, Start: 1, End: sim.Infinity / 2}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := tc.c.Validate()
			if (err == nil) != tc.ok {
				t.Errorf("Validate(%v) = %v, want ok=%v", tc.c, err, tc.ok)
			}
		})
	}
}

func TestNormalize(t *testing.T) {
	c := Contact{A: 9, B: 2, Start: 1, End: 3}.Normalize()
	if c.A != 2 || c.B != 9 {
		t.Errorf("Normalize gave %v", c)
	}
}

func TestScheduleSortAndValidate(t *testing.T) {
	s := &Schedule{Nodes: 4, Contacts: []Contact{
		{A: 0, B: 1, Start: 100, End: 200},
		{A: 2, B: 3, Start: 50, End: 80},
		{A: 0, B: 2, Start: 50, End: 60},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("unsorted schedule validated")
	}
	s.Sort()
	if err := s.Validate(); err != nil {
		t.Fatalf("sorted schedule failed validation: %v", err)
	}
	if s.Contacts[0].B != 2 {
		t.Errorf("tie at t=50 should order (0,2) before (2,3): got %v", s.Contacts[0])
	}
}

// TestScheduleValidateRefusesNaNStart: a NaN start compares false
// against its neighbours, so the sort check alone would pass this
// unsorted schedule.
func TestScheduleValidateRefusesNaNStart(t *testing.T) {
	s := &Schedule{Nodes: 2, Contacts: []Contact{
		{A: 0, B: 1, Start: 1, End: 2},
		{A: 0, B: 1, Start: sim.Time(math.NaN()), End: 3},
		{A: 0, B: 1, Start: 0, End: 4},
	}}
	if err := s.Validate(); err == nil {
		t.Fatal("schedule with a NaN start validated")
	}
}

func TestScheduleValidateBounds(t *testing.T) {
	s := &Schedule{Nodes: 2, Contacts: []Contact{{A: 0, B: 5, Start: 0, End: 10}}}
	if err := s.Validate(); err == nil {
		t.Fatal("out-of-range node ID validated")
	}
	empty := &Schedule{Nodes: 2}
	if err := empty.Validate(); !errors.Is(err, ErrEmptySchedule) {
		t.Fatalf("empty schedule: err=%v", err)
	}
}

// TestScheduleChecked: Checked refuses what Validate refuses, and a
// schedule it accepts streams with the horizon Horizon reports.
func TestScheduleChecked(t *testing.T) {
	s := &Schedule{Nodes: 3, Contacts: []Contact{
		{A: 0, B: 1, Start: 0, End: 700},
		{A: 1, B: 2, Start: 150, End: 400},
	}}
	src, err := s.Checked()
	if err != nil {
		t.Fatal(err)
	}
	if src.Horizon() != 700 || src.Horizon() != s.Horizon() || src.Nodes() != 3 {
		t.Errorf("checked stream: horizon %v over %d nodes, want 700 over 3", src.Horizon(), src.Nodes())
	}
	for _, bad := range []*Schedule{
		{Nodes: 2},
		{Nodes: 2, Contacts: []Contact{{A: 0, B: 1, Start: 1, End: sim.Infinity}}},
		{Nodes: 2, Contacts: []Contact{{A: 0, B: 1, Start: 5, End: 9}, {A: 0, B: 1, Start: 1, End: 2}}},
	} {
		if _, err := bad.Checked(); err == nil || err.Error() != bad.Validate().Error() {
			t.Errorf("Checked(%v) = %v, want Validate's %v", bad.Contacts, err, bad.Validate())
		}
	}
}

func TestScheduleHorizon(t *testing.T) {
	s := &Schedule{Nodes: 3, Contacts: []Contact{
		{A: 0, B: 1, Start: 0, End: 100},
		{A: 1, B: 2, Start: 150, End: 400},
		{A: 0, B: 2, Start: 500, End: 600},
	}}
	if h := s.Horizon(); h != 600 {
		t.Fatalf("Horizon = %v, want 600", h)
	}
	if h := (&Schedule{Nodes: 2}).Horizon(); h != 0 {
		t.Errorf("empty schedule Horizon = %v, want 0", h)
	}
}

func TestMakePairKey(t *testing.T) {
	if MakePairKey(5, 2) != (PairKey{2, 5}) {
		t.Error("MakePairKey did not normalize")
	}
	if MakePairKey(2, 5) != MakePairKey(5, 2) {
		t.Error("PairKey not symmetric")
	}
}

// Property: Sort is idempotent and produces a valid schedule from any
// collection of individually valid contacts.
func TestSortProperty(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 3))
		s := &Schedule{Nodes: 6}
		for i := 0; i < 40; i++ {
			a, b := NodeID(r.IntN(6)), NodeID(r.IntN(6))
			if a == b {
				continue
			}
			start := sim.Time(r.IntN(500))
			s.Contacts = append(s.Contacts, Contact{A: a, B: b, Start: start, End: start + 1 + sim.Time(r.IntN(50))}.Normalize())
		}
		if len(s.Contacts) == 0 {
			return true
		}
		s.Sort()
		if s.Validate() != nil {
			return false
		}
		before := make([]Contact, len(s.Contacts))
		copy(before, s.Contacts)
		s.Sort()
		for i := range before {
			if before[i] != s.Contacts[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
