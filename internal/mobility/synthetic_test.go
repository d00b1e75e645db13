package mobility

import (
	"testing"
	"testing/quick"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

func TestSyntheticCambridgeDeterminism(t *testing.T) {
	a, err := materialized(SyntheticCambridge{Seed: 7}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	b, err := materialized(SyntheticCambridge{Seed: 7}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatalf("same seed gave %d vs %d contacts", len(a.Contacts), len(b.Contacts))
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatalf("same seed diverged at contact %d", i)
		}
	}
	c, err := materialized(SyntheticCambridge{Seed: 8}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if len(c.Contacts) == len(a.Contacts) {
		same := true
		for i := range a.Contacts {
			if a.Contacts[i] != c.Contacts[i] {
				same = false
				break
			}
		}
		if same {
			t.Error("different seeds produced identical traces")
		}
	}
}

func TestSyntheticCambridgeShape(t *testing.T) {
	s, err := materialized(SyntheticCambridge{Seed: 1}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != CambridgeNodes {
		t.Errorf("Nodes = %d, want %d", s.Nodes, CambridgeNodes)
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if h := s.Horizon(); h > CambridgeSpan {
		t.Errorf("Horizon %v exceeds span %v", h, CambridgeSpan)
	}
	st := contact.Analyze(s)
	// The paper's arguments need a sparse DTN: node-level inter-contact
	// gaps well above the 300 s TTL, and contacts that usually carry a
	// couple of 100 s bundle slots.
	if st.MeanInterval < 500 || st.MeanInterval > 20000 {
		t.Errorf("mean node inter-contact interval = %.0fs, want sparse-DTN range [500,20000]", st.MeanInterval)
	}
	if st.MeanDuration < 100 || st.MeanDuration > 1500 {
		t.Errorf("mean contact duration = %.0fs, want [100,1500]", st.MeanDuration)
	}
	if st.Contacts < 500 {
		t.Errorf("only %d contacts over 5 days; trace too sparse to exercise protocols", st.Contacts)
	}
	// Every pair should eventually meet in a campus trace.
	wantPairs := CambridgeNodes * (CambridgeNodes - 1) / 2
	if st.PairsWithContact < wantPairs*3/4 {
		t.Errorf("only %d/%d pairs ever meet", st.PairsWithContact, wantPairs)
	}
	// All nodes participate.
	for n, e := range st.EncountersPer {
		if e == 0 {
			t.Errorf("node %d has no encounters", n)
		}
	}
}

func TestSyntheticCambridgeHeavyTail(t *testing.T) {
	s, err := materialized(SyntheticCambridge{Seed: 3}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	// Node 0's gaps: from the end of one of its contacts (the latest end
	// so far, as contacts overlap) to the start of its next.
	var gaps []float64
	last := sim.Time(-1)
	for _, c := range s.Contacts {
		if c.A != 0 && c.B != 0 {
			continue
		}
		if last >= 0 && c.Start > last {
			gaps = append(gaps, float64(c.Start-last))
		}
		last = max(last, c.End)
	}
	if len(gaps) < 20 {
		t.Fatalf("node 0 has only %d gaps", len(gaps))
	}
	mean, over := 0.0, 0
	for _, g := range gaps {
		mean += g
	}
	mean /= float64(len(gaps))
	for _, g := range gaps {
		if g > 2*mean {
			over++
		}
	}
	// A heavy-tailed gap distribution has a meaningful share of gaps far
	// above the mean (an exponential would have ~13.5% above 2×mean; we
	// only require the tail to exist).
	if over == 0 {
		t.Error("no inter-contact gaps above 2×mean; distribution not heavy-tailed")
	}
}

func TestSyntheticCambridgeErrors(t *testing.T) {
	if _, err := materialized(SyntheticCambridge{Seed: 1, Nodes: 1}.Stream()); err == nil {
		t.Error("1 node accepted")
	}
	if _, err := materialized(SyntheticCambridge{Seed: 1, Span: -5}.Stream()); err == nil {
		t.Error("negative span accepted")
	}
}

func TestSyntheticCambridgeRetriesEmptyDraw(t *testing.T) {
	// This seed's first draw places every pair's first encounter beyond
	// the 100,000 s span; Stream must retry with a derived stream
	// instead of returning an "empty schedule" validation error.
	s, err := materialized(SyntheticCambridge{Seed: 0xae8dd413d6aea8a6, Nodes: 4, Span: 100000}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Contacts) == 0 {
		t.Fatal("retry produced an empty schedule")
	}
	if s.Horizon() > 100000 {
		t.Errorf("horizon %v beyond span", s.Horizon())
	}
}

func TestSyntheticCambridgeCustomSizes(t *testing.T) {
	f := func(seed uint64) bool {
		s, err := materialized(SyntheticCambridge{Seed: seed, Nodes: 4, Span: 100000}.Stream())
		if err != nil {
			return false
		}
		return s.Validate() == nil && s.Horizon() <= 100000
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestDiurnalFactor(t *testing.T) {
	g := SyntheticCambridge{}.Defaults()
	if f := g.diurnalFactor(3 * 3600); f != g.NightQuiet {
		t.Errorf("night factor = %v", f)
	}
	if f := g.diurnalFactor(12 * 3600); f != 1.0 {
		t.Errorf("day factor = %v", f)
	}
	if f := g.diurnalFactor(daySeconds + 3*3600); f != g.NightQuiet {
		t.Errorf("night factor on day 2 = %v", f)
	}
}
