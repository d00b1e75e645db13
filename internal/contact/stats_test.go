package contact

import (
	"sort"
	"testing"

	"dtnsim/internal/sim"
)

func testSchedule() *Schedule {
	s := &Schedule{Nodes: 3, Contacts: []Contact{
		{A: 0, B: 1, Start: 0, End: 100},   // dur 100
		{A: 0, B: 2, Start: 300, End: 400}, // node0 gap 200; node2 first
		{A: 1, B: 2, Start: 500, End: 700}, // node1 gap 400, node2 gap 100
	}}
	s.Sort()
	return s
}

func TestAnalyzeBasics(t *testing.T) {
	st := Analyze(testSchedule())
	if st.Contacts != 3 || st.Nodes != 3 {
		t.Fatalf("counts wrong: %+v", st)
	}
	if st.Span != 700 {
		t.Errorf("Span = %v, want 700", st.Span)
	}
	if st.MinDuration != 100 || st.MaxDuration != 200 {
		t.Errorf("durations: min=%v max=%v", st.MinDuration, st.MaxDuration)
	}
	wantMeanDur := (100.0 + 100.0 + 200.0) / 3
	if st.MeanDuration != wantMeanDur {
		t.Errorf("MeanDuration = %v, want %v", st.MeanDuration, wantMeanDur)
	}
	// Gaps: node0: 300-100=200; node1: 500-100=400; node2: 500-400=100.
	wantGap := (200.0 + 400.0 + 100.0) / 3
	if st.MeanInterval != wantGap {
		t.Errorf("MeanInterval = %v, want %v", st.MeanInterval, wantGap)
	}
	if st.MaxInterval != 400 {
		t.Errorf("MaxInterval = %v, want 400", st.MaxInterval)
	}
	if st.PairsWithContact != 3 {
		t.Errorf("PairsWithContact = %d, want 3", st.PairsWithContact)
	}
	wantEnc := []int{2, 2, 2}
	for i, w := range wantEnc {
		if st.EncountersPer[i] != w {
			t.Errorf("EncountersPer[%d] = %d, want %d", i, st.EncountersPer[i], w)
		}
	}
}

func TestAnalyzeEmpty(t *testing.T) {
	st := Analyze(&Schedule{Nodes: 2})
	if st.Contacts != 0 || st.MeanDuration != 0 || st.MeanInterval != 0 {
		t.Errorf("empty schedule stats: %+v", st)
	}
}

// interContactTimes returns, for node n, the sequence of gaps between
// the end of one of its contacts and the start of the next — the
// per-node sequence Dynamic TTL (Algorithm 1 in the paper) keys off,
// and the gaps Analyze averages into MeanInterval.
func interContactTimes(s *Schedule, n NodeID) []float64 {
	var windows []Contact
	for _, c := range s.Contacts {
		if c.A == n || c.B == n {
			windows = append(windows, c)
		}
	}
	sort.Slice(windows, func(i, j int) bool { return windows[i].Start < windows[j].Start })
	var gaps []float64
	var last sim.Time = -1
	for _, w := range windows {
		if last >= 0 && w.Start > last {
			gaps = append(gaps, float64(w.Start-last))
		}
		if w.End > last {
			last = w.End
		}
	}
	return gaps
}

func TestInterContactTimes(t *testing.T) {
	s := testSchedule()
	gaps := interContactTimes(s, 0)
	if len(gaps) != 1 || gaps[0] != 200 {
		t.Errorf("node 0 gaps = %v, want [200]", gaps)
	}
	gaps = interContactTimes(s, 1)
	if len(gaps) != 1 || gaps[0] != 400 {
		t.Errorf("node 1 gaps = %v, want [400]", gaps)
	}
	if got := interContactTimes(s, 2); len(got) != 1 || got[0] != 100 {
		t.Errorf("node 2 gaps = %v, want [100]", got)
	}
}

func TestInterContactOverlapping(t *testing.T) {
	// Overlapping windows produce no negative gaps.
	s := &Schedule{Nodes: 3, Contacts: []Contact{
		{A: 0, B: 1, Start: 0, End: 100},
		{A: 0, B: 2, Start: 50, End: 150}, // overlaps previous for node 0
		{A: 0, B: 1, Start: 200, End: 250},
	}}
	s.Sort()
	gaps := interContactTimes(s, 0)
	if len(gaps) != 1 || gaps[0] != 50 {
		t.Errorf("gaps = %v, want [50] (150..200)", gaps)
	}
	for _, g := range gaps {
		if g < 0 {
			t.Fatal("negative gap")
		}
	}
}

func TestStatsString(t *testing.T) {
	if Analyze(testSchedule()).String() == "" {
		t.Error("empty String()")
	}
}
