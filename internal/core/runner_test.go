package core_test

// Reuse is invisible: a run on a warmed core.Runner returns what a
// fresh core.Run returns, bit for bit and byte for byte, whatever ran
// on the Runner before — a larger or smaller population, another
// protocol, a byte-budgeted cell, a cancelled run or a failed one — and
// the Results it hands out share no memory with it.

import (
	"bytes"
	"context"
	"errors"
	"math/rand/v2"
	"reflect"
	"slices"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/report"
	"dtnsim/internal/sim"
)

// TestRunnerReuseMatchesFresh runs every golden cell through one Runner,
// in a fixed-seed shuffled order, twice over — materialized plans the
// first time, streamed the second — and demands each Result equal a
// fresh core.Run's. The budgeted cells run once more with the byte
// capacity off: their sized bundles would meet any capacity a reused
// store kept. The five stream cells then run the same way on the same
// Runner with a series and an event stream attached, and both CSVs must
// equal a fresh run's byte for byte.
func TestRunnerReuseMatchesFresh(t *testing.T) {
	if testing.Short() {
		t.Skip("golden grid is slow")
	}
	cells := goldenCells()
	uncapped := goldenBudgeted
	uncapped.name, uncapped.bufferBytes, uncapped.dropPolicy = "budgeted-uncapped", 0, ""
	for _, p := range goldenBudgetedSpecs {
		cells = append(cells, goldenCell{p, uncapped})
	}
	want := make([]goldenResult, len(cells))
	for i, c := range cells {
		res, err := core.Run(goldenConfig(t, c.proto, c.mob, false))
		if err != nil {
			t.Fatalf("%s|%s: %v", c.proto, c.mob.name, err)
		}
		want[i] = toGolden(res)
	}
	shuffle := rand.New(rand.NewPCG(41, 22))
	var w core.Runner
	for pass := range 2 {
		for _, i := range shuffle.Perm(len(cells)) {
			c := cells[i]
			res, err := w.Run(goldenConfig(t, c.proto, c.mob, pass == 1))
			if err != nil {
				t.Fatalf("pass %d, %s|%s: %v", pass, c.proto, c.mob.name, err)
			}
			if got := toGolden(res); !reflect.DeepEqual(got, want[i]) {
				t.Errorf("pass %d, %s|%s: reused Runner diverged from a fresh run\n got: %+v\nwant: %+v",
					pass, c.proto, c.mob.name, got, want[i])
			}
		}
	}
	for pass := range 2 {
		for _, i := range shuffle.Perm(len(streamGoldenCells)) {
			cell := streamGoldenCells[i]
			_, series, events := runReports(t, &w, cell.proto, cell.mob, pass == 1)
			_, wantSeries, wantEvents := runReports(t, new(core.Runner), cell.proto, cell.mob, pass == 1)
			if !bytes.Equal(series, wantSeries) {
				t.Errorf("pass %d, %s: series CSV diverged from a fresh run at byte %d",
					pass, cell.file, firstDiff(series, wantSeries))
			}
			if !bytes.Equal(events, wantEvents) {
				t.Errorf("pass %d, %s: event CSV diverged from a fresh run at byte %d",
					pass, cell.file, firstDiff(events, wantEvents))
			}
		}
	}
}

// runReports runs one golden cell on w with a series and an event
// stream attached and returns its Result and both CSVs.
func runReports(t *testing.T, w *core.Runner, proto string, mob goldenMobility, streamed bool) (res goldenResult, series, events []byte) {
	t.Helper()
	var sb, eb bytes.Buffer
	ss, es := report.NewStream(&sb, false), report.NewStream(&eb, true)
	cfg := goldenConfig(t, proto, mob, streamed)
	cfg.Observers = []core.Observer{ss, es}
	r, err := w.Run(cfg)
	if err != nil {
		t.Fatalf("%s|%s: %v", proto, mob.name, err)
	}
	if err := errors.Join(ss.Err(), es.Err()); err != nil {
		t.Fatalf("%s|%s: stream write: %v", proto, mob.name, err)
	}
	return toGolden(r), sb.Bytes(), eb.Bytes()
}

// TestRunnerProtocolSlabReuse: a Runner resets its protocol state slab
// between runs rather than rebuilding it. One Runner runs the protocols
// that keep per-node state — immunity, P-Q with anti-packets, cumulative
// immunity — and pure epidemic, which keeps none, on populations of 12,
// 20 and 24 nodes in a shuffled order, twice over, so every i-list and
// flow table is reused under another protocol and by populations that
// grow and shrink. The trace and budgeted cells give cumulative
// immunity two flows from one source, the second's sequence block (its
// FirstSeq) starting above 1. Each Result and both CSVs must equal a
// fresh run's.
func TestRunnerProtocolSlabReuse(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the cells twice over, fresh and reused")
	}
	var cells []goldenCell
	for _, p := range []string{"pure", "immunity", "pq:p=0.7,q=0.5,anti", "cumimmunity"} {
		for _, m := range []goldenMobility{goldenMobilities[0], goldenMobilities[2], goldenMobilities[4], goldenBudgeted} {
			cells = append(cells, goldenCell{p, m})
		}
	}
	shuffle := rand.New(rand.NewPCG(42, 12))
	var w core.Runner
	for pass := range 2 {
		for _, i := range shuffle.Perm(len(cells)) {
			c := cells[i]
			got, series, events := runReports(t, &w, c.proto, c.mob, false)
			want, wantSeries, wantEvents := runReports(t, new(core.Runner), c.proto, c.mob, false)
			if !reflect.DeepEqual(got, want) {
				t.Errorf("pass %d, %s|%s: reused Runner diverged from a fresh run\n got: %+v\nwant: %+v",
					pass, c.proto, c.mob.name, got, want)
			}
			if !bytes.Equal(series, wantSeries) {
				t.Errorf("pass %d, %s|%s: series CSV diverged from a fresh run at byte %d",
					pass, c.proto, c.mob.name, firstDiff(series, wantSeries))
			}
			if !bytes.Equal(events, wantEvents) {
				t.Errorf("pass %d, %s|%s: event CSV diverged from a fresh run at byte %d",
					pass, c.proto, c.mob.name, firstDiff(events, wantEvents))
			}
		}
	}
}

// failingSource passes its first n contacts through and then fails, the
// way a trace file that hits a disk error does.
type failingSource struct {
	contact.Source
	n   int
	err error
}

func (f *failingSource) Next() (contact.Contact, bool) {
	if f.n == 0 {
		return contact.Contact{}, false
	}
	f.n--
	return f.Source.Next()
}

func (f *failingSource) Err() error {
	if f.n == 0 {
		return f.err
	}
	return f.Source.Err()
}

// TestRunnerRecoversFromAbortedRuns: a run cancelled through
// Config.Context mid-epoch, and a run whose contact source fails
// mid-stream, each leave the Runner with half-filled stores, a window
// in flight and partial bookkeeping. The good run after each on the
// same Runner must equal a fresh run, at both executor sizes.
func TestRunnerRecoversFromAbortedRuns(t *testing.T) {
	trace, budgeted := goldenMobilities[0], goldenBudgeted
	fresh, err := core.Run(goldenConfig(t, "cumimmunity", trace, false))
	if err != nil {
		t.Fatal(err)
	}
	want := toGolden(fresh)
	boom := errors.New("disk on fire")
	aborts := []struct {
		name string
		cfg  func() core.Config
		is   error
	}{
		{"cancelled mid-epoch", func() core.Config {
			ctx, cancel := context.WithCancel(context.Background())
			cfg := goldenConfig(t, "pq:p=0.7,q=0.5,anti", budgeted, true)
			cfg.Context = ctx
			cfg.Observers = []core.Observer{&core.FuncObserver{
				// The first transmission cancels, so the loop's next
				// poll — inside the epoch — sees it.
				Transmit: func(contact.NodeID, contact.NodeID, bundle.ID, sim.Time) { cancel() },
			}}
			return cfg
		}, core.ErrCancelled},
		{"source failed", func() core.Config {
			cfg := goldenConfig(t, "immunity", budgeted, true)
			cfg.Source = &failingSource{Source: cfg.Source, n: 200, err: boom}
			return cfg
		}, boom},
	}
	for _, shards := range []int{0, 2} {
		var w core.Runner
		for _, a := range aborts {
			cfg := a.cfg()
			cfg.Shards = shards
			if _, err := w.Run(cfg); !errors.Is(err, a.is) {
				t.Fatalf("Shards=%d, %s: err = %v, want %v", shards, a.name, err, a.is)
			}
			cfg = goldenConfig(t, "cumimmunity", trace, false)
			cfg.Shards = shards
			res, err := w.Run(cfg)
			if err != nil {
				t.Fatalf("Shards=%d, after %s: %v", shards, a.name, err)
			}
			if got := toGolden(res); !reflect.DeepEqual(got, want) {
				t.Errorf("Shards=%d: the run after %s diverged from a fresh run\n got: %+v\nwant: %+v",
					shards, a.name, got, want)
			}
		}
	}
}

// TestRunnerResultsOutliveReuse: a Result is the caller's. One kept
// from a Runner's first run is deep-equal, after a second run on the
// same Runner, to the copy of itself taken before it.
func TestRunnerResultsOutliveReuse(t *testing.T) {
	var w core.Runner
	first, err := w.Run(goldenConfig(t, "ecttl", goldenMobilities[2], false))
	if err != nil {
		t.Fatal(err)
	}
	snapshot := *first
	snapshot.DeliveryTimes = make(map[bundle.ID]sim.Time, len(first.DeliveryTimes))
	for id, at := range first.DeliveryTimes {
		snapshot.DeliveryTimes[id] = at
	}
	snapshot.FinalOccupancy = slices.Clone(first.FinalOccupancy)
	snapshot.FinalBuffered = slices.Clone(first.FinalBuffered)
	if _, err := w.Run(goldenConfig(t, "pure", goldenMobilities[0], false)); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(*first, snapshot) {
		t.Errorf("a Result changed under a later run on its Runner\n got: %+v\nwant: %+v", *first, snapshot)
	}
}

// TestWarmRunnerAllocations pins what a warmed Runner allocates for a
// second run of a paper cell: the Cambridge trace, one flow of 30
// bundles, the paper's defaults. None of it is the engine's working
// memory. Pure epidemic's 9 objects are each per run by design:
//   - the Result (1), its FinalOccupancy and FinalBuffered slices (2)
//     and its DeliveryTimes map (4 for 30 entries);
//   - the flow's bundle slab (1): the stored copies point into it;
//   - the materialized schedule's checked stream (1).
//
// The protocols with per-node state add nothing: their i-lists and
// flow tables live in the Runner's protocol slab, grown by the first
// run, and P-Q's display name is formatted when it is constructed.
func TestWarmRunnerAllocations(t *testing.T) {
	trace := goldenMobilities[0]
	for _, c := range []struct {
		proto string
		want  float64
	}{
		{"pure", 9},
		{"immunity", 9},
		{"pq:p=1,q=1,anti", 9},
		{"cumimmunity", 9},
	} {
		cfg := goldenConfig(t, c.proto, trace, false)
		cfg.Flows = []core.Flow{{Src: 0, Dst: 7, Count: 30}}
		var w core.Runner
		run := func() {
			if _, err := w.Run(cfg); err != nil {
				t.Fatal(err)
			}
		}
		run()
		if got := testing.AllocsPerRun(5, run); got != c.want {
			t.Errorf("%s: a warm run allocates %v objects, want %v", c.proto, got, c.want)
		}
	}
}
