package mobility

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"testing"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// streamCase is one generator under equivalence test: the materialized
// reference (reference_test.go) and the shipped streaming implementation
// built from the same parameters.
type streamCase struct {
	name     string
	generate func(seed uint64) (*contact.Schedule, error)
	stream   func(seed uint64) (contact.Source, error)
	// horizonIsSpan marks generators whose Source reports the
	// configured span (an upper bound); others must report the exact
	// schedule horizon.
	horizonIsSpan bool
}

func streamCases() []streamCase {
	return []streamCase{
		{
			name: "cambridge",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateCambridge(SyntheticCambridge{Seed: s})
			},
			stream: func(s uint64) (contact.Source, error) {
				return SyntheticCambridge{Seed: s}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "cambridge-small",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateCambridge(SyntheticCambridge{Seed: s, Nodes: 4, Span: 200000})
			},
			stream: func(s uint64) (contact.Source, error) {
				return SyntheticCambridge{Seed: s, Nodes: 4, Span: 200000}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "subscriber",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateSubscriber(SubscriberPointRWP{Seed: s})
			},
			stream: func(s uint64) (contact.Source, error) {
				return SubscriberPointRWP{Seed: s}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "subscriber-dense",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateSubscriber(SubscriberPointRWP{Seed: s, Nodes: 30, Points: 5, Span: 150000})
			},
			stream: func(s uint64) (contact.Source, error) {
				return SubscriberPointRWP{Seed: s, Nodes: 30, Points: 5, Span: 150000}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "rwp-classic",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateClassic(ClassicRWP{Seed: s, Span: 120000})
			},
			stream: func(s uint64) (contact.Source, error) {
				return ClassicRWP{Seed: s, Span: 120000}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "rwp-classic-dense",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateClassic(ClassicRWP{Seed: s, Nodes: 24, AreaSide: 800, Range: 150, Span: 60000})
			},
			stream: func(s uint64) (contact.Source, error) {
				return ClassicRWP{Seed: s, Nodes: 24, AreaSide: 800, Range: 150, Span: 60000}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			// Every pair in range from step 0 to the span: the step-0
			// bucket holds all 2016 pairs, eight chunks.
			name: "rwp-classic-all-in-range",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateClassic(allInRangeCell(s))
			},
			stream: func(s uint64) (contact.Source, error) {
				return allInRangeCell(s).Stream()
			},
			horizonIsSpan: true,
		},
		{
			// Dense and churning: buckets of hundreds of closes, filled
			// across many steps and released out of step order.
			name: "rwp-classic-churn",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateClassic(churnCell(s))
			},
			stream: func(s uint64) (contact.Source, error) {
				return churnCell(s).Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "interval",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateInterval(ControlledInterval{Seed: s, MaxInterval: 400})
			},
			stream: func(s uint64) (contact.Source, error) {
				return ControlledInterval{Seed: s, MaxInterval: 400}.Stream()
			},
		},
		{
			name: "interval-long",
			generate: func(s uint64) (*contact.Schedule, error) {
				return generateInterval(ControlledInterval{Seed: s, MaxInterval: 2000, Nodes: 9, Encounters: 30})
			},
			stream: func(s uint64) (contact.Source, error) {
				return ControlledInterval{Seed: s, MaxInterval: 2000, Nodes: 9, Encounters: 30}.Stream()
			},
		},
	}
}

// allInRangeCell and churnCell are the classic cells whose start-step
// buckets span several chunks (closeChunk contacts each); the fuzz cells
// are too small to fill one.
func allInRangeCell(seed uint64) ClassicRWP {
	return ClassicRWP{Seed: seed, Nodes: 64, AreaSide: 100, Range: 150, SampleDT: 10, Span: 3000}
}

func churnCell(seed uint64) ClassicRWP {
	return ClassicRWP{Seed: seed, Nodes: 80, AreaSide: 1000, Range: 250, SampleDT: 7, Span: 4000}
}

// TestClassicBucketsSpanChunks: the multi-chunk cells really exercise
// chunk chaining — a start step whose bucket fills three or more chunks
// in the all-in-range cell, and more than one chunk in the churning one.
func TestClassicBucketsSpanChunks(t *testing.T) {
	for _, tc := range []struct {
		g    ClassicRWP
		want int
	}{{allInRangeCell(1), 3 * closeChunk}, {churnCell(1), closeChunk + 1}} {
		src, err := tc.g.Stream()
		if err != nil {
			t.Fatal(err)
		}
		perStart := map[sim.Time]int{}
		largest := 0
		for _, c := range drain(t, src) {
			perStart[c.Start]++
			largest = max(largest, perStart[c.Start])
		}
		if largest < tc.want {
			t.Errorf("%+v: largest bucket %d contacts, want >= %d", tc.g, largest, tc.want)
		}
	}
}

// drain pulls a source dry, failing on a stream error.
func drain(t testing.TB, src contact.Source) []contact.Contact {
	t.Helper()
	var out []contact.Contact
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		out = append(out, c)
	}
	if err := src.Err(); err != nil {
		t.Fatalf("stream error after %d contacts: %v", len(out), err)
	}
	return out
}

// materialized drains a model's Stream into a validated Schedule, as a
// caller who needs the whole plan does.
func materialized(src contact.Source, err error) (*contact.Schedule, error) {
	if err != nil {
		return nil, err
	}
	return contact.Materialize(src)
}

// requireSameContacts fails unless a drained stream equals its
// reference schedule contact for contact.
func requireSameContacts(t testing.TB, got, want []contact.Contact) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("stream %d contacts, reference %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("contact %d: stream %v, reference %v", i, got[i], want[i])
		}
	}
}

// TestStreamMatchesGenerate: every streaming source must reproduce its
// materialized reference contact-for-contact, in canonical order, for
// several seeds — streaming is a memory refactor, not a new model.
func TestStreamMatchesGenerate(t *testing.T) {
	for _, tc := range streamCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(0); seed < 5; seed++ {
				want, err := tc.generate(seed)
				if err != nil {
					t.Fatalf("seed %d: generate: %v", seed, err)
				}
				src, err := tc.stream(seed)
				if err != nil {
					t.Fatalf("seed %d: stream: %v", seed, err)
				}
				if src.Nodes() != want.Nodes {
					t.Fatalf("seed %d: stream reports %d nodes, schedule has %d", seed, src.Nodes(), want.Nodes)
				}
				if !tc.horizonIsSpan && src.Horizon() != want.Horizon() {
					t.Fatalf("seed %d: stream horizon %v, schedule horizon %v", seed, src.Horizon(), want.Horizon())
				}
				if tc.horizonIsSpan && src.Horizon() < want.Horizon() {
					t.Fatalf("seed %d: stream horizon %v below schedule horizon %v", seed, src.Horizon(), want.Horizon())
				}
				got := drain(t, src)
				if len(got) != len(want.Contacts) {
					t.Fatalf("seed %d: stream yielded %d contacts, generate %d", seed, len(got), len(want.Contacts))
				}
				for i := range got {
					if got[i] != want.Contacts[i] {
						t.Fatalf("seed %d: contact %d: stream %v, generate %v", seed, i, got[i], want.Contacts[i])
					}
				}
			}
		})
	}
}

// TestStreamDeterministic: two sources built from the same parameters
// must yield identical streams.
func TestStreamDeterministic(t *testing.T) {
	for _, tc := range streamCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			a, err := tc.stream(42)
			if err != nil {
				t.Fatal(err)
			}
			b, err := tc.stream(42)
			if err != nil {
				t.Fatal(err)
			}
			ca, cb := drain(t, a), drain(t, b)
			if len(ca) != len(cb) {
				t.Fatalf("same-seed streams differ in length: %d vs %d", len(ca), len(cb))
			}
			for i := range ca {
				if ca[i] != cb[i] {
					t.Fatalf("same-seed streams diverge at contact %d: %v vs %v", i, ca[i], cb[i])
				}
			}
		})
	}
}

// checkStreamClean asserts the Source contract on a drained stream:
// contacts individually valid, endpoints in range, canonically sorted,
// ends within the reported horizon (when one is reported).
func checkStreamClean(t *testing.T, src contact.Source, got []contact.Contact) {
	t.Helper()
	horizon := src.Horizon()
	for i, c := range got {
		if err := c.Validate(); err != nil {
			t.Fatalf("contact %d: %v", i, err)
		}
		if int(c.B) >= src.Nodes() {
			t.Fatalf("contact %d: node %d out of range [0,%d)", i, c.B, src.Nodes())
		}
		if horizon > 0 && c.End > horizon {
			t.Fatalf("contact %d: end %v beyond reported horizon %v", i, c.End, horizon)
		}
		if i > 0 && contact.Less(c, got[i-1]) {
			t.Fatalf("contact %d out of canonical order: %v after %v", i, c, got[i-1])
		}
	}
}

// TestStreamSortedAndValid is the property test behind the engine's
// incremental validation: across many seeds, every source emits a
// sorted, Validate-clean stream.
func TestStreamSortedAndValid(t *testing.T) {
	for _, tc := range streamCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := uint64(100); seed < 110; seed++ {
				src, err := tc.stream(seed)
				if err != nil {
					t.Fatalf("seed %d: %v", seed, err)
				}
				checkStreamClean(t, src, drain(t, src))
			}
		})
	}
}

// TestIntervalEndAnchoredDisjoint: under the end-anchored canonical
// spec a node is never in two overlapping encounters, for any seed.
func TestIntervalEndAnchoredDisjoint(t *testing.T) {
	for seed := uint64(0); seed < 25; seed++ {
		s, err := materialized(ControlledInterval{Seed: seed, MaxInterval: 400, MinDur: 250, MaxDur: 300}.Stream())
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a, b, found := nodeOverlap(s); found {
			t.Fatalf("seed %d: node overlap %v / %v", seed, a, b)
		}
	}
}

// nodeOverlap reports the first pair of contacts that share a node and
// overlap in time, in schedule order. Overlap is legal under every
// waypoint model — a node co-located with two peers is in two
// simultaneous contacts — but ControlledInterval's canonical spec
// forbids it (a node's encounters are a renewal sequence).
func nodeOverlap(s *contact.Schedule) (a, b contact.Contact, found bool) {
	// Sorted by start, so node n's contact i overlaps a later contact j
	// iff j starts before the largest end seen for n up to i.
	type last struct {
		end sim.Time
		c   contact.Contact
	}
	open := make(map[contact.NodeID]last, s.Nodes)
	for _, c := range s.Contacts {
		for _, n := range [2]contact.NodeID{c.A, c.B} {
			if prev, ok := open[n]; ok && c.Start < prev.end {
				return prev.c, c, true
			}
			if prev, ok := open[n]; !ok || c.End > prev.end {
				open[n] = last{end: c.End, c: c}
			}
		}
	}
	return contact.Contact{}, contact.Contact{}, false
}

// TestNodeOverlapDetection: the detector finds a planted overlap and
// accepts schedules produced by models where overlap is legal.
func TestNodeOverlapDetection(t *testing.T) {
	s := &contact.Schedule{Nodes: 3, Contacts: []contact.Contact{
		{A: 0, B: 1, Start: 10, End: 100},
		{A: 0, B: 2, Start: 50, End: 80},
	}}
	if _, _, found := nodeOverlap(s); !found {
		t.Error("planted overlap on node 0 not detected")
	}
	ok := &contact.Schedule{Nodes: 3, Contacts: []contact.Contact{
		{A: 0, B: 1, Start: 10, End: 50},
		{A: 0, B: 2, Start: 50, End: 80},
	}}
	if _, _, found := nodeOverlap(ok); found {
		t.Error("touching windows flagged as overlap")
	}
}

// TestTraceSourceStreamsFile: a sorted trace file streams identically
// to ParseTrace, with the exact horizon and node count.
func TestTraceSourceStreamsFile(t *testing.T) {
	want, err := materialized(SyntheticCambridge{Seed: 11}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "contacts.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(f, want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	parsed, err := func() (*contact.Schedule, error) {
		f, err := os.Open(path)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return ParseTrace(f)
	}()
	if err != nil {
		t.Fatal(err)
	}
	src, err := OpenTraceSource(path)
	if err != nil {
		t.Fatal(err)
	}
	if src.Nodes() != parsed.Nodes {
		t.Errorf("source nodes %d, parsed %d", src.Nodes(), parsed.Nodes)
	}
	if src.Horizon() != parsed.Horizon() {
		t.Errorf("source horizon %v, parsed %v", src.Horizon(), parsed.Horizon())
	}
	got := drain(t, src)
	if len(got) != len(parsed.Contacts) {
		t.Fatalf("source yielded %d contacts, parsed %d", len(got), len(parsed.Contacts))
	}
	for i := range got {
		if got[i] != parsed.Contacts[i] {
			t.Fatalf("contact %d: source %v, parsed %v", i, got[i], parsed.Contacts[i])
		}
	}
}

// TestTraceSourceUnsortedFallsBack: out-of-order records cannot stream
// but must still load, sorted, through the same interface.
func TestTraceSourceUnsortedFallsBack(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unsorted.txt")
	data := "# nodes: 3\n1 2 500 600\n0 1 100 200\n"
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	src, err := OpenTraceSource(path)
	if err != nil {
		t.Fatal(err)
	}
	got := drain(t, src)
	if len(got) != 2 || got[0].Start != 100 || got[1].Start != 500 {
		t.Fatalf("fallback stream wrong: %v", got)
	}
}

// FuzzTraceSource: for arbitrary file bytes, OpenTraceSource and
// ParseTrace must either both fail — the source at open or through Err
// — or agree on the node count, the horizon and the contact sequence.
// The committed corpus holds tie-order, a file sorted by start but not
// by (A, B), whose equal-start records once streamed in file order.
func FuzzTraceSource(f *testing.F) {
	f.Add([]byte("# nodes: 3\n0 1 100 200\n1 2 500 600\n"))
	f.Add([]byte("# nodes: 3\n1 2 500 600\n0 1 100 200\n"))
	f.Add([]byte("2 1 0.5 1.25\n# nodes: 9\n1 2 0.5 3\n"))
	f.Add([]byte("0 1 oops 100\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "trace.txt")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		parsed, parseErr := ParseTrace(bytes.NewReader(data))
		var got []contact.Contact
		src, err := OpenTraceSource(path)
		if err == nil {
			for c, ok := src.Next(); ok; c, ok = src.Next() {
				got = append(got, c)
			}
			err = src.Err()
		}
		if (err == nil) != (parseErr == nil) {
			t.Fatalf("source err %v, ParseTrace err %v", err, parseErr)
		}
		if err != nil {
			return
		}
		if src.Nodes() != parsed.Nodes {
			t.Fatalf("source nodes %d, parsed %d", src.Nodes(), parsed.Nodes)
		}
		if src.Horizon() != parsed.Horizon() {
			t.Fatalf("source horizon %v, parsed %v", src.Horizon(), parsed.Horizon())
		}
		requireSameContacts(t, got, parsed.Contacts)
	})
}

// TestTraceSourceErrors: missing files, empty traces and bad records
// fail at open, not mid-run.
func TestTraceSourceErrors(t *testing.T) {
	if _, err := OpenTraceSource(filepath.Join(t.TempDir(), "nope")); err == nil {
		t.Error("missing file accepted")
	}
	empty := filepath.Join(t.TempDir(), "empty.txt")
	if err := os.WriteFile(empty, []byte("# nodes: 5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTraceSource(empty); err == nil {
		t.Error("empty trace accepted")
	}
	bad := filepath.Join(t.TempDir(), "bad.txt")
	if err := os.WriteFile(bad, []byte("0 1 oops 100\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenTraceSource(bad); err == nil {
		t.Error("malformed record accepted")
	}
}

// TestSubscriberPointsPerKm2: the paper's density bound scales with the
// area — 96 points in 1 km² is legal, 101 is not, and a 2 km side
// legalizes 400.
func TestSubscriberPointsPerKm2(t *testing.T) {
	if _, err := (SubscriberPointRWP{Points: 101, Seed: 1}).Stream(); err == nil {
		t.Error("101 points in 1 km² accepted")
	}
	if _, err := materialized(SubscriberPointRWP{Points: 400, AreaSide: 2000, Span: 20000, Seed: 1}.Stream()); err != nil {
		t.Errorf("400 points in 4 km² rejected: %v", err)
	}
	if _, err := (SubscriberPointRWP{Points: 401, AreaSide: 2000, Seed: 1}).Stream(); err == nil {
		t.Error("401 points in 4 km² accepted by Stream")
	}
}

// FuzzIntervalStream: for arbitrary parameters the interval source
// must either fail to construct exactly when the reference does, or
// emit a sorted, Validate-clean, node-disjoint stream equal, contact
// for contact, to the reference's draw-everything-then-sort schedule.
func FuzzIntervalStream(f *testing.F) {
	f.Add(uint64(1), 10, 8, 100.0, 400.0)
	f.Add(uint64(7), 3, 1, 0.5, 0.6)
	f.Add(uint64(9), 21, 5, 2000.0, 2000.0)
	f.Fuzz(func(t *testing.T, seed uint64, nodes, encounters int, minI, maxI float64) {
		if nodes < 2 || nodes > 40 || encounters < 1 || encounters > 40 {
			t.Skip()
		}
		if minI < 0 || maxI < minI || maxI > 1e6 {
			t.Skip()
		}
		g := ControlledInterval{Seed: seed, Nodes: nodes, Encounters: encounters, MinInterval: minI, MaxInterval: maxI}
		want, genErr := generateInterval(g)
		src, err := g.Stream()
		if (err == nil) != (genErr == nil) {
			t.Fatalf("Stream err %v, reference err %v", err, genErr)
		}
		if err != nil {
			return
		}
		got := drain(t, src)
		checkStreamClean(t, src, got)
		requireSameContacts(t, got, want.Contacts)
		if a, b, found := nodeOverlap(&contact.Schedule{Nodes: src.Nodes(), Contacts: got}); found {
			t.Fatalf("node overlap: %v / %v", a, b)
		}
	})
}

// FuzzCambridgeStream: arbitrary small populations and spans must
// stream sorted and clean, equal contact for contact to the reference.
func FuzzCambridgeStream(f *testing.F) {
	f.Add(uint64(3), 5, 250000.0)
	f.Add(uint64(0), 2, 40000.0)
	f.Fuzz(func(t *testing.T, seed uint64, nodes int, span float64) {
		if nodes < 2 || nodes > 16 || span <= 0 || span > 700000 {
			t.Skip()
		}
		g := SyntheticCambridge{Seed: seed, Nodes: nodes, Span: sim.Time(span)}
		want, genErr := generateCambridge(g)
		src, err := g.Stream()
		if (err == nil) != (genErr == nil) {
			t.Fatalf("Stream err %v, reference err %v", err, genErr)
		}
		if err != nil {
			return
		}
		got := drain(t, src)
		checkStreamClean(t, src, got)
		requireSameContacts(t, got, want.Contacts)
	})
}

// FuzzSubscriberStream: for arbitrary populations, point layouts, pause
// ranges and contact caps, the subscriber-point source — lazy
// itineraries, per-point occupants, a lookahead bounded by the next
// arrival — must emit a clean stream equal, contact for contact, to the
// reference's whole-span visit lists swept pairwise.
func FuzzSubscriberStream(f *testing.F) {
	f.Add(uint64(1), 12, 96, 1000.0, 60000.0, 1000.0, 50.0, 500.0)
	f.Add(uint64(2), 30, 5, 1000.0, 40000.0, 1000.0, 50.0, 500.0)  // crowded points
	f.Add(uint64(3), 2, 2, 200.0, 20000.0, 300.0, 299.0, 10.0)     // one pair, two points, short cap
	f.Add(uint64(4), 20, 3, 50.0, 5000.0, 1.0, 0.5, 1e6)           // sub-second dwells: rounding ties
	f.Add(uint64(5), 8, 40, 1000.0, 3000.0, 5000.0, 4000.0, 500.0) // pauses past the span
	f.Add(uint64(6), 40, 2, 300.0, 50000.0, 400.0, 100.0, 500.0)   // long occupant lists: mid-list unlinks, re-arrivals after expiry
	f.Fuzz(func(t *testing.T, seed uint64, nodes, points int, area, span, maxPause, minPause, maxContact float64) {
		if nodes < 2 || nodes > 40 || points < 1 || points > 200 {
			t.Skip()
		}
		if !(area > 0 && area <= 1e5 && span > 0 && span <= 2e5 && maxPause > 0 && maxPause <= 1e4 &&
			minPause > 0 && minPause <= maxPause && maxContact > 0 && maxContact <= 1e6) {
			t.Skip()
		}
		if span/minPause*float64(nodes) > 20000 {
			t.Skip() // bound the visit count, and so the reference's cost
		}
		g := SubscriberPointRWP{
			Seed: seed, Nodes: nodes, Points: points, AreaSide: area, Span: sim.Time(span),
			MaxPause: maxPause, MinPause: minPause, MaxContact: maxContact,
		}
		src, err := g.Stream()
		want, genErr := generateSubscriber(g)
		if err != nil {
			if genErr == nil {
				t.Fatalf("Stream err %v, but the reference built %d contacts", err, len(want.Contacts))
			}
			return
		}
		got := drain(t, src)
		checkStreamClean(t, src, got)
		if genErr != nil {
			// The reference's one failure on valid parameters is a
			// schedule with no contacts; the stream just ends.
			if len(got) != 0 {
				t.Fatalf("reference: %v, but the stream yielded %d contacts", genErr, len(got))
			}
			return
		}
		requireSameContacts(t, got, want.Contacts)
	})
}

// FuzzClassicStream: for arbitrary small populations and geometries —
// a radio range beyond the area (one cell), cells widened past the
// range, a dt that does not divide the span — the classic source must
// emit a clean stream equal, contact for contact, to the reference's.
func FuzzClassicStream(f *testing.F) {
	f.Add(uint64(1), 12, 800.0, 150.0, 10.0, 3000.0)
	f.Add(uint64(2), 24, 300.0, 400.0, 50.0, 20000.0) // range > area: one cell
	f.Add(uint64(3), 6, 1000.0, 60.0, 150.0, 60000.0) // cells widened to area/7
	f.Add(uint64(4), 9, 500.0, 500.0, 7.0, 1000.0)    // range = area, dt does not divide span
	f.Add(uint64(5), 2, 50.0, 30.0, 100.0, 30000.0)   // one pair, long pauses, many windows
	f.Add(uint64(6), 20, 2000.0, 100.0, 999.0, 1000.0)
	f.Add(uint64(7), 16, 120.0, 40.0, 3.0, 1200.5)
	f.Add(uint64(8), 96, 100.0, 150.0, 10.0, 1000.0) // one cell, every pair in range
	f.Add(uint64(9), 40, 300.0, 160.0, 10.0, 3000.0) // two columns of 160 m cells
	f.Add(uint64(10), 48, 400.0, 100.0, 5.0, 2000.0) // area = 4 ranges: cell borders at whole ranges
	f.Fuzz(func(t *testing.T, seed uint64, nodes int, area, radio, dt, span float64) {
		if nodes < 2 || nodes > 96 {
			t.Skip()
		}
		if !(area > 0 && area <= 1e6 && radio > 0 && radio <= 1e7 && dt > 0 && span > 0 && span <= 1e6 && span/dt <= 500) {
			t.Skip()
		}
		g := ClassicRWP{Seed: seed, Nodes: nodes, AreaSide: area, Range: radio, SampleDT: dt, Span: sim.Time(span)}
		src, err := g.Stream()
		if err != nil {
			t.Fatalf("Stream: %v", err)
		}
		got := drain(t, src)
		checkStreamClean(t, src, got)
		want, err := generateClassic(g)
		if err != nil {
			// The reference's one failure on valid parameters is a
			// schedule with no contacts; the stream just ends.
			if len(got) != 0 {
				t.Fatalf("reference: %v, but the stream yielded %d contacts", err, len(got))
			}
			return
		}
		requireSameContacts(t, got, want.Contacts)
	})
}

// TestClassicScanPlacedNodes: one step's pair search on hand-placed
// nodes, every one on a cell border or corner (the area's far edges
// included, where cells are clamped) and many pairs exactly Range
// apart, must find the brute-force pair set in key order. One-, two-
// and five-column grids; node ids laid out with the grid (the sorted
// fast path) and against it (the counting passes).
func TestClassicScanPlacedNodes(t *testing.T) {
	for _, tc := range []struct {
		area, radio float64
		cols        int
	}{{100, 150, 1}, {300, 160, 2}, {400, 100, 5}} {
		var pts []point
		for y := 0.0; y <= tc.area; y += tc.radio / 2 {
			for x := 0.0; x <= tc.area; x += tc.radio / 2 {
				pts = append(pts, point{x, y})
			}
			pts = append(pts, point{tc.area, y})
		}
		for _, reversed := range []bool{false, true} {
			g := ClassicRWP{Seed: 1, Nodes: len(pts), AreaSide: tc.area, Range: tc.radio, SampleDT: 10, Span: 100}
			src, err := g.Stream()
			if err != nil {
				t.Fatal(err)
			}
			s := src.(*classicSource)
			if s.cols != tc.cols || s.side != tc.radio {
				t.Fatalf("area %v range %v: %d columns of %v m, want %d of %v m", tc.area, tc.radio, s.cols, s.side, tc.cols, tc.radio)
			}
			at := func(n int) point {
				if reversed {
					return pts[len(pts)-1-n]
				}
				return pts[n]
			}
			for n := range s.walks {
				s.walks[n].cur = leg{a: at(n), b: at(n)} // paused there at t = 0
			}
			s.runStep()
			var want []uint64
			for i := range pts {
				for j := i + 1; j < len(pts); j++ {
					if dx, dy := at(i).x-at(j).x, at(i).y-at(j).y; dx*dx+dy*dy <= tc.radio*tc.radio {
						want = append(want, uint64(i)<<32|uint64(j))
					}
				}
			}
			if !slices.Equal(s.pairs, want) {
				t.Errorf("area %v range %v reversed %v: %d pairs, want %d (first difference in %v vs %v)",
					tc.area, tc.radio, reversed, len(s.pairs), len(want), head(s.pairs), head(want))
			}
		}
	}
}

func head(keys []uint64) []uint64 { return keys[:min(len(keys), 8)] }

// TestClassicStreamHostileGeometry: nothing in the classic source is
// sized by the geometry. An area of 10^18 range-sided cells, a cell
// count past float precision and 10^18 sample steps all construct — and
// the first two drain, to no contacts — in memory set by the twenty
// nodes.
func TestClassicStreamHostileGeometry(t *testing.T) {
	allocated := func(f func()) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	const budget = 1 << 20
	for _, tc := range []struct {
		spec  string
		drain bool
	}{
		{"rwp:nodes=20,area=1e9,range=1", true},
		{"rwp:nodes=20,area=1e300,range=1e-300", true},
		{"rwp:nodes=20,span=1e15,dt=0.001", false},
	} {
		parsed, err := Parse(tc.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", tc.spec, err)
		}
		var src contact.Source
		if n := allocated(func() { src, err = parsed.Stream(1) }); err != nil || n > budget {
			t.Fatalf("%q: Stream allocated %d bytes, err %v", tc.spec, n, err)
		}
		cs := src.(*classicSource)
		if cells := len(cs.off); cells > 16*cs.g.Nodes {
			t.Errorf("%q: %d grid cells for %d nodes", tc.spec, cells, cs.g.Nodes)
		}
		if tc.drain {
			var got []contact.Contact
			if n := allocated(func() { got = drain(t, src) }); n > budget || len(got) != 0 {
				t.Errorf("%q: drain allocated %d bytes and yielded %d contacts", tc.spec, n, len(got))
			}
			continue
		}
		// Too many steps to drain: run a few thousand and check that a
		// step's cost does not grow with the count.
		if cs.steps < math.MaxInt32 {
			t.Fatalf("%q: only %d steps", tc.spec, cs.steps)
		}
		n := allocated(func() {
			for i := 0; i < 5000; i++ {
				cs.runStep()
				cs.step++
				for cs.release() {
				}
			}
		})
		if n > budget {
			t.Errorf("%q: 5000 steps allocated %d bytes", tc.spec, n)
		}
	}
}

// TestClassicStreamAllocationBudget: the 5k-node scale cell's drain
// allocates the live reordering window, not every bucket's growth. Close
// buckets are chunks recycled through a free list and the per-node
// streams live in the walk slice, so the drain stays under 4.5 MB; with
// doubling per-bucket slices and three heap objects per node RNG it
// took 7.5 MB.
func TestClassicStreamAllocationBudget(t *testing.T) {
	g := ClassicRWP{Nodes: 5000, AreaSide: 14142, Span: 2500, Range: 100, SampleDT: 25, Seed: 1}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	src, err := g.Stream()
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		n++
	}
	runtime.ReadMemStats(&after)
	const budget = 4.5e6
	if got := after.TotalAlloc - before.TotalAlloc; got > budget {
		t.Errorf("5k drain allocated %.2f MB (%d contacts); budget %.1f MB", float64(got)/1e6, n, budget/1e6)
	}
}

// TestSubscriberStreamAllocationBudget: an arrival hashes nothing and
// allocates nothing — occupancy is intrusive lists threaded through the
// node slice and the arrival heap is re-keyed in place — so draining
// the paper's default substrate (12 nodes, 96 points, 600,000 s) costs
// the source, its slices and the lookahead's growth, not a per-point
// map and its rehashes (204 objects with maps).
func TestSubscriberStreamAllocationBudget(t *testing.T) {
	const budget = 32
	n := testing.AllocsPerRun(5, func() {
		src, err := SubscriberPointRWP{Seed: 1}.Stream()
		if err != nil {
			t.Fatal(err)
		}
		for _, ok := src.Next(); ok; _, ok = src.Next() {
		}
	})
	if n > budget {
		t.Errorf("default subscriber drain allocated %v objects; budget %d", n, budget)
	}
}
