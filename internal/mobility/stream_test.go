package mobility

import (
	"math"
	"os"
	"path/filepath"
	"runtime"
	"testing"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// streamCase is one generator under equivalence test: the materialized
// reference and the streaming implementation built from the same
// parameters.
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
				return SyntheticCambridge{Seed: s}.Generate()
			},
			stream: func(s uint64) (contact.Source, error) {
				return SyntheticCambridge{Seed: s}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "cambridge-small",
			generate: func(s uint64) (*contact.Schedule, error) {
				return SyntheticCambridge{Seed: s, Nodes: 4, Span: 200000}.Generate()
			},
			stream: func(s uint64) (contact.Source, error) {
				return SyntheticCambridge{Seed: s, Nodes: 4, Span: 200000}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "subscriber",
			generate: func(s uint64) (*contact.Schedule, error) {
				return SubscriberPointRWP{Seed: s}.Generate()
			},
			stream: func(s uint64) (contact.Source, error) {
				return SubscriberPointRWP{Seed: s}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "subscriber-dense",
			generate: func(s uint64) (*contact.Schedule, error) {
				return SubscriberPointRWP{Seed: s, Nodes: 30, Points: 5, Span: 150000}.Generate()
			},
			stream: func(s uint64) (contact.Source, error) {
				return SubscriberPointRWP{Seed: s, Nodes: 30, Points: 5, Span: 150000}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "rwp-classic",
			generate: func(s uint64) (*contact.Schedule, error) {
				return ClassicRWP{Seed: s, Span: 120000}.Generate()
			},
			stream: func(s uint64) (contact.Source, error) {
				return ClassicRWP{Seed: s, Span: 120000}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "rwp-classic-dense",
			generate: func(s uint64) (*contact.Schedule, error) {
				return ClassicRWP{Seed: s, Nodes: 24, AreaSide: 800, Range: 150, Span: 60000}.Generate()
			},
			stream: func(s uint64) (contact.Source, error) {
				return ClassicRWP{Seed: s, Nodes: 24, AreaSide: 800, Range: 150, Span: 60000}.Stream()
			},
			horizonIsSpan: true,
		},
		{
			name: "interval",
			generate: func(s uint64) (*contact.Schedule, error) {
				return ControlledInterval{Seed: s, MaxInterval: 400}.Generate()
			},
			stream: func(s uint64) (contact.Source, error) {
				return ControlledInterval{Seed: s, MaxInterval: 400}.Stream()
			},
		},
		{
			name: "interval-long",
			generate: func(s uint64) (*contact.Schedule, error) {
				return ControlledInterval{Seed: s, MaxInterval: 2000, Nodes: 9, Encounters: 30}.Generate()
			},
			stream: func(s uint64) (contact.Source, error) {
				return ControlledInterval{Seed: s, MaxInterval: 2000, Nodes: 9, Encounters: 30}.Stream()
			},
		},
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

// TestStreamMatchesGenerate: every streaming source must reproduce its
// materialized generator contact-for-contact, in canonical order, for
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
		s, err := ControlledInterval{Seed: seed, MaxInterval: 400, MinDur: 250, MaxDur: 300}.Generate()
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if a, b, found := s.NodeOverlap(); found {
			t.Fatalf("seed %d: node overlap %v / %v", seed, a, b)
		}
	}
}

// TestNodeOverlapDetection: the detector finds a planted overlap and
// accepts schedules produced by models where overlap is legal.
func TestNodeOverlapDetection(t *testing.T) {
	s := &contact.Schedule{Nodes: 3, Contacts: []contact.Contact{
		{A: 0, B: 1, Start: 10, End: 100},
		{A: 0, B: 2, Start: 50, End: 80},
	}}
	if _, _, found := s.NodeOverlap(); !found {
		t.Error("planted overlap on node 0 not detected")
	}
	if err := s.ValidateDisjoint(); err == nil {
		t.Error("ValidateDisjoint accepted an overlapping schedule")
	}
	ok := &contact.Schedule{Nodes: 3, Contacts: []contact.Contact{
		{A: 0, B: 1, Start: 10, End: 50},
		{A: 0, B: 2, Start: 50, End: 80},
	}}
	if _, _, found := ok.NodeOverlap(); found {
		t.Error("touching windows flagged as overlap")
	}
}

// TestTraceSourceStreamsFile: a sorted trace file streams identically
// to ParseTrace, with the exact horizon and node count.
func TestTraceSourceStreamsFile(t *testing.T) {
	want, err := SyntheticCambridge{Seed: 11}.Generate()
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
	if _, err := (SubscriberPointRWP{Points: 101, Seed: 1}).Generate(); err == nil {
		t.Error("101 points in 1 km² accepted")
	}
	if _, err := (SubscriberPointRWP{Points: 400, AreaSide: 2000, Span: 20000, Seed: 1}).Generate(); err != nil {
		t.Errorf("400 points in 4 km² rejected: %v", err)
	}
	if _, err := (SubscriberPointRWP{Points: 401, AreaSide: 2000, Seed: 1}).Stream(); err == nil {
		t.Error("401 points in 4 km² accepted by Stream")
	}
}

// FuzzIntervalStream: for arbitrary parameters the interval source
// must either fail to construct or emit a sorted, Validate-clean,
// node-disjoint stream equal to its materialized schedule.
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
		want, genErr := g.Generate()
		src, err := g.Stream()
		if (err == nil) != (genErr == nil) {
			t.Fatalf("Stream err %v, Generate err %v", err, genErr)
		}
		if err != nil {
			return
		}
		got := drain(t, src)
		checkStreamClean(t, src, got)
		if len(got) != len(want.Contacts) {
			t.Fatalf("stream %d contacts, generate %d", len(got), len(want.Contacts))
		}
		s := &contact.Schedule{Nodes: src.Nodes(), Contacts: got}
		if a, b, found := s.NodeOverlap(); found {
			t.Fatalf("node overlap: %v / %v", a, b)
		}
	})
}

// FuzzCambridgeStream: arbitrary small populations and spans must
// stream sorted and clean, matching the materialized generator.
func FuzzCambridgeStream(f *testing.F) {
	f.Add(uint64(3), 5, 250000.0)
	f.Add(uint64(0), 2, 40000.0)
	f.Fuzz(func(t *testing.T, seed uint64, nodes int, span float64) {
		if nodes < 2 || nodes > 16 || span <= 0 || span > 700000 {
			t.Skip()
		}
		g := SyntheticCambridge{Seed: seed, Nodes: nodes, Span: sim.Time(span)}
		want, genErr := g.Generate()
		src, err := g.Stream()
		if (err == nil) != (genErr == nil) {
			t.Fatalf("Stream err %v, Generate err %v", err, genErr)
		}
		if err != nil {
			return
		}
		got := drain(t, src)
		checkStreamClean(t, src, got)
		if len(got) != len(want.Contacts) {
			t.Fatalf("stream %d contacts, generate %d", len(got), len(want.Contacts))
		}
	})
}

// FuzzClassicStream: for arbitrary small populations and geometries —
// a radio range beyond the area (one cell), cells widened past the
// range, a dt that does not divide the span — the classic source must
// emit a clean stream equal, contact for contact, to Generate's.
func FuzzClassicStream(f *testing.F) {
	f.Add(uint64(1), 12, 800.0, 150.0, 10.0, 3000.0)
	f.Add(uint64(2), 24, 300.0, 400.0, 50.0, 20000.0) // range > area: one cell
	f.Add(uint64(3), 6, 1000.0, 60.0, 150.0, 60000.0) // cells widened to area/7
	f.Add(uint64(4), 9, 500.0, 500.0, 7.0, 1000.0)    // range = area, dt does not divide span
	f.Add(uint64(5), 2, 50.0, 30.0, 100.0, 30000.0)   // one pair, long pauses, many windows
	f.Add(uint64(6), 20, 2000.0, 100.0, 999.0, 1000.0)
	f.Add(uint64(7), 16, 120.0, 40.0, 3.0, 1200.5)
	f.Fuzz(func(t *testing.T, seed uint64, nodes int, area, radio, dt, span float64) {
		if nodes < 2 || nodes > 24 {
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
		want, err := g.Generate()
		if err != nil {
			// Generate's one failure on valid parameters is a schedule
			// with no contacts; the stream just ends.
			if len(got) != 0 {
				t.Fatalf("Generate: %v, but the stream yielded %d contacts", err, len(got))
			}
			return
		}
		if len(got) != len(want.Contacts) {
			t.Fatalf("stream %d contacts, generate %d", len(got), len(want.Contacts))
		}
		for i := range got {
			if got[i] != want.Contacts[i] {
				t.Fatalf("contact %d: stream %v, generate %v", i, got[i], want.Contacts[i])
			}
		}
	})
}

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
