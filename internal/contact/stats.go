package contact

import (
	"fmt"

	"dtnsim/internal/sim"
)

// Stats summarizes the encounter structure of a schedule. The paper's
// arguments all hinge on these statistics (mean inter-contact interval
// versus TTL value, encounter counts versus EC thresholds), so they are a
// first-class output used by tests, examples and the stats line tracegen
// prints for every trace it writes.
type Stats struct {
	Contacts         int
	Nodes            int
	Span             sim.Time // latest end time
	MeanDuration     float64
	MinDuration      float64
	MaxDuration      float64
	MeanInterval     float64 // mean per-node inter-contact gap, seconds
	MaxInterval      float64
	EncountersPer    []int // contact count per node
	PairsWithContact int   // distinct pairs that ever meet
}

// Analyze computes Stats for a schedule. The schedule must be sorted
// (contacts in start-time order), as produced by every generator here.
func Analyze(s *Schedule) Stats {
	st, _ := AnalyzeSource(s.Stream())
	return st
}

// AnalyzeSource computes Stats from a streaming source in one pass,
// consuming it. State is O(nodes + meeting pairs) — a schedule too big
// to materialize can still be summarized. The error is the source's
// Err after exhaustion; the returned Stats cover the contacts seen.
func AnalyzeSource(src Source) (Stats, error) {
	st := Stats{Nodes: src.Nodes()}
	st.EncountersPer = make([]int, st.Nodes)
	pairs := make(map[PairKey]bool)
	lastSeen := make([]sim.Time, st.Nodes)
	for i := range lastSeen {
		lastSeen[i] = -1
	}
	var durSum float64
	var gapSum float64
	var gapCount int
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		st.Contacts++
		if c.End > st.Span {
			st.Span = c.End
		}
		d := float64(c.Duration())
		durSum += d
		if st.Contacts == 1 || d < st.MinDuration {
			st.MinDuration = d
		}
		if d > st.MaxDuration {
			st.MaxDuration = d
		}
		pairs[MakePairKey(c.A, c.B)] = true
		for _, n := range []NodeID{c.A, c.B} {
			st.EncountersPer[n]++
			if prev := lastSeen[n]; prev >= 0 && c.Start > prev {
				gap := float64(c.Start - prev)
				gapSum += gap
				gapCount++
				if gap > st.MaxInterval {
					st.MaxInterval = gap
				}
			}
			if c.End > lastSeen[n] {
				lastSeen[n] = c.End
			}
		}
	}
	if st.Contacts > 0 {
		st.MeanDuration = durSum / float64(st.Contacts)
	}
	if gapCount > 0 {
		st.MeanInterval = gapSum / float64(gapCount)
	}
	st.PairsWithContact = len(pairs)
	return st, src.Err()
}

func (st Stats) String() string {
	return fmt.Sprintf("contacts=%d nodes=%d span=%v meanDur=%.0fs meanGap=%.0fs pairs=%d",
		st.Contacts, st.Nodes, st.Span, st.MeanDuration, st.MeanInterval, st.PairsWithContact)
}
