package core_test

// The EpochBackend contract (backend.go), pinned from this side of the
// seam: the loop's call sequence is recorded around the in-tree pool and
// checked against what the interface promises a backend.

import (
	"bytes"
	"context"
	"errors"
	"reflect"
	"slices"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/report"
	"dtnsim/internal/sim"
)

// recordingBackend forwards to inner and fails the test on any call the
// EpochBackend contract rules out.
type recordingBackend struct {
	t     *testing.T
	inner core.EpochBackend
	nodes int

	starts, epochs, finishes, occupancies int
	inEpoch, failed                       bool
	// pass counts the NodeOccupancy calls since the last sampling tick,
	// ticks and quiet count the ticks and those that read none, and
	// ranSinceTick marks a RunEpoch since the last tick.
	pass, ticks, quiet int
	ranSinceTick       bool
	// items is every item of every RunEpoch call, in call order;
	// sinceTick counts those since the last sampling tick and maxEpoch
	// keeps its peak — the largest epoch the run collected.
	items               []itemKey
	sinceTick, maxEpoch int
	// onEpoch, when set, runs at the start of every RunEpoch with the
	// call's number (1-based); its error fails that call.
	onEpoch func(n int) error
}

func (b *recordingBackend) Start(env core.RunEnv) error {
	if b.starts++; b.starts > 1 || b.epochs > 0 {
		b.t.Errorf("Start call %d after %d epochs; want once, before any RunEpoch", b.starts, b.epochs)
	}
	b.nodes = len(env.Nodes)
	return b.inner.Start(env)
}

func (b *recordingBackend) RunEpoch(ep *core.Epoch) error {
	b.epochs++
	switch {
	case b.starts != 1 || b.finishes > 0:
		b.t.Errorf("RunEpoch %d with %d Start and %d Finish calls before it", b.epochs, b.starts, b.finishes)
	case b.failed:
		b.t.Errorf("RunEpoch %d after a failed one", b.epochs)
	case ep.Len() == 0:
		b.t.Errorf("RunEpoch %d handed an empty epoch", b.epochs)
	case ep.Len() > core.WindowItems:
		b.t.Errorf("RunEpoch %d handed %d items; a window holds at most %d", b.epochs, ep.Len(), core.WindowItems)
	}
	for i := 0; i < ep.Len(); i++ {
		// Only the half Gen selects is the item's: slots are reused, so
		// the other half holds whatever an earlier item left there.
		it := ep.Item(i)
		key := itemKey{gen: it.Gen, a: it.A, b: it.B}
		if it.Gen {
			key.flow = it.Flow
		} else {
			key.c = it.C
		}
		b.items = append(b.items, key)
	}
	b.sinceTick += ep.Len()
	b.maxEpoch = max(b.maxEpoch, b.sinceTick)
	b.ranSinceTick = true
	if b.onEpoch != nil {
		if err := b.onEpoch(b.epochs); err != nil {
			b.failed = true
			return err
		}
	}
	b.inEpoch = true
	defer func() { b.inEpoch = false }()
	return b.inner.RunEpoch(ep)
}

func (b *recordingBackend) NodeOccupancy(i int) float64 {
	b.occupancies++
	switch {
	case b.inEpoch || b.starts != 1 || b.finishes > 0 || b.failed:
		b.t.Errorf("NodeOccupancy(%d) outside the run's between-epoch windows", i)
	case i < 0 || i >= b.nodes:
		b.t.Fatalf("NodeOccupancy(%d) with %d nodes", i, b.nodes)
	case i != b.pass%b.nodes:
		b.t.Errorf("NodeOccupancy(%d) as call %d since the last tick; a pass reads the nodes in order", i, b.pass)
	}
	b.pass++
	return b.inner.NodeOccupancy(i)
}

// tick checks, as the run's sampling tick reaches the observers, that
// the tick read every node once through the interface if it is the
// first tick or follows a RunEpoch, and read none otherwise: only items
// change what a sample observes.
func (b *recordingBackend) tick() {
	want := 0
	if b.ticks == 0 || b.ranSinceTick {
		want = b.nodes
	}
	if b.pass != want {
		b.t.Errorf("tick %d (RunEpoch since the last: %v) made %d NodeOccupancy calls; want %d",
			b.ticks, b.ranSinceTick, b.pass, want)
	}
	if b.pass == 0 {
		b.quiet++
	}
	b.ticks++
	b.pass, b.sinceTick, b.ranSinceTick = 0, 0, false
}

func (b *recordingBackend) Finish() error {
	if b.finishes++; b.finishes > 1 || b.failed {
		b.t.Errorf("Finish call %d (failed=%v); want once, on success only", b.finishes, b.failed)
	}
	return b.inner.Finish()
}

// itemKey identifies an item by what it carries: a generation's flow or
// a contact, never both.
type itemKey struct {
	gen  bool
	a, b contact.NodeID
	c    contact.Contact
	flow core.Flow
}

// canonicalItems rebuilds, from a materialized run config, the item
// order backend.go promises: flow generations in (StartAt, declaration)
// order merged with the contacts in schedule order, by time,
// generations first at equal times, up to the schedule's horizon.
func canonicalItems(cfg core.Config) []itemKey {
	flows := slices.Clone(cfg.Flows)
	slices.SortStableFunc(flows, func(x, y core.Flow) int { return int(x.StartAt - y.StartAt) })
	var want []itemKey
	contacts := cfg.Schedule.Contacts
	for len(flows) > 0 || len(contacts) > 0 {
		if len(flows) > 0 && (len(contacts) == 0 || flows[0].StartAt <= contacts[0].Start) {
			if f := flows[0]; f.StartAt <= cfg.Schedule.Horizon() {
				want = append(want, itemKey{gen: true, a: f.Src, b: f.Src, flow: f})
			}
			flows = flows[1:]
		} else {
			c := contacts[0]
			want = append(want, itemKey{a: c.A, b: c.B, c: c})
			contacts = contacts[1:]
		}
	}
	return want
}

// wideGolden is the budgeted golden cell at 400 nodes of the same
// density: ~4,000 items per epoch, the regime where the loop must cut
// an epoch into windows instead of materializing it.
var wideGolden = func() goldenMobility {
	m := goldenBudgeted
	m.name, m.spec = "wide", "rwp:seed=7,nodes=400,area=4000,span=3000,range=100,dt=25"
	return m
}()

// loadedGolden is the trace golden cell under byte pressure: sized flows,
// a byte capacity two bundles wide and a randomized drop policy, so
// bytepressure drops reach the merge through the backend's items.
func loadedGolden(t testing.TB, streamed bool) core.Config {
	cfg := goldenConfig(t, "immunity", goldenMobilities[0], streamed)
	cfg.Flows = append([]core.Flow(nil), cfg.Flows...)
	for i := range cfg.Flows {
		cfg.Flows[i].Size = 1000
	}
	cfg.BufferBytes = 2500
	cfg.DropPolicy = "droprandom"
	return cfg
}

func TestEpochBackendContract(t *testing.T) {
	cells := []struct {
		name string
		cfg  func(streamed bool) core.Config
	}{
		{"paper", func(s bool) core.Config { return goldenConfig(t, "ecttl", goldenMobilities[2], s) }},
		{"loaded", func(s bool) core.Config { return loadedGolden(t, s) }},
		{"wide", func(s bool) core.Config { return goldenConfig(t, "immunity", wideGolden, s) }},
	}
	// observed runs cfg with an event-CSV stream and a sample counter
	// that calls onSample, when set, at every tick.
	observed := func(t *testing.T, cfg core.Config, onSample func()) (*core.Result, []byte, int, error) {
		var buf bytes.Buffer
		st := report.NewStream(&buf, true)
		samples := 0
		cfg.Observers = []core.Observer{st, &core.FuncObserver{Sample: func(metrics.Sample) {
			samples++
			if onSample != nil {
				onSample()
			}
		}}}
		res, err := core.Run(cfg)
		if serr := st.Err(); serr != nil {
			t.Fatal(serr)
		}
		return res, buf.Bytes(), samples, err
	}
	for _, cell := range cells {
		t.Run(cell.name, func(t *testing.T) {
			want, wantCSV, _, err := observed(t, cell.cfg(false), nil)
			if err != nil {
				t.Fatal(err)
			}
			if cell.name == "loaded" && want.ByteDropped == 0 {
				t.Fatal("the loaded cell sheds nothing under byte pressure")
			}

			b := &recordingBackend{t: t, inner: core.NewPool(2)}
			cfg := cell.cfg(true)
			cfg.Backend = b
			got, gotCSV, samples, err := observed(t, cfg, b.tick)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(want, got) {
				t.Errorf("Result through the seam diverged from Shards=0\n got: %+v\nwant: %+v", got, want)
			}
			if !bytes.Equal(wantCSV, gotCSV) {
				t.Errorf("event CSV through the seam diverged from Shards=0 (first diff at byte %d)", firstDiff(wantCSV, gotCSV))
			}
			if b.starts != 1 || b.finishes != 1 || b.epochs == 0 {
				t.Errorf("%d Start, %d RunEpoch, %d Finish calls; want 1, some, 1", b.starts, b.epochs, b.finishes)
			}
			// Every NodeOccupancy call is part of one full pass at a tick
			// (tick checks which ticks take one): a loop reading the
			// pool's nodes directly would come up short.
			if b.ticks != samples || samples == 0 || b.pass != 0 ||
				b.occupancies != (samples-b.quiet)*b.nodes {
				t.Errorf("%d NodeOccupancy calls for %d samples (%d quiet) of %d nodes", b.occupancies, samples, b.quiet, b.nodes)
			}
			if cell.name == "loaded" && b.quiet == 0 {
				t.Error("the loaded cell has no quiet tick, so skipping its sample is untested")
			}
			// The windows, end to end, are the canonical item order:
			// nothing skipped, repeated or reordered at a window edge.
			if want := canonicalItems(cell.cfg(false)); !slices.Equal(b.items, want) {
				t.Errorf("RunEpoch calls carried %d items, canonical order has %d (or they differ in order)", len(b.items), len(want))
			}
			if cell.name == "wide" && b.maxEpoch < 4*core.WindowItems {
				t.Errorf("largest epoch held %d items; the wide cell is meant to span several windows", b.maxEpoch)
			}

			boom := errors.New("boom")
			b = &recordingBackend{t: t, inner: core.NewPool(2), onEpoch: func(n int) error {
				if n == 2 {
					return boom
				}
				return nil
			}}
			cfg = cell.cfg(true)
			cfg.Backend = b
			if _, err := core.Run(cfg); !errors.Is(err, boom) {
				t.Errorf("run over a failing RunEpoch returned %v; want the backend's error", err)
			}
			if b.finishes != 0 || b.epochs != 2 {
				t.Errorf("after a failed RunEpoch: %d Finish calls, %d RunEpoch calls; want 0 and 2", b.finishes, b.epochs)
			}

			ctx, cancel := context.WithCancel(context.Background())
			defer cancel()
			b = &recordingBackend{t: t, inner: core.NewPool(2), onEpoch: func(n int) error {
				if n == 2 {
					cancel()
				}
				return nil
			}}
			cfg = cell.cfg(true)
			cfg.Backend, cfg.Context = b, ctx
			if _, err := core.Run(cfg); !errors.Is(err, core.ErrCancelled) {
				t.Errorf("cancelled run returned %v; want ErrCancelled", err)
			}
			if b.finishes != 0 {
				t.Errorf("Finish called %d times on a cancelled run", b.finishes)
			}
		})
	}
}

// nodesBackend forwards to a pool and keeps what a sample's reference
// needs: the population it executes on, and whether an item ran since
// the last tick.
type nodesBackend struct {
	core.EpochBackend
	nodes []*node.Node
	ran   bool
}

func (b *nodesBackend) Start(env core.RunEnv) error {
	b.nodes = env.Nodes
	return b.EpochBackend.Start(env)
}

func (b *nodesBackend) RunEpoch(ep *core.Epoch) error {
	b.ran = true
	return b.EpochBackend.RunEpoch(ep)
}

// TestQuietTickSampleIsSnapshot: over the golden cells, every tick's
// Sample — those the loop reuses after an epoch that executed no item
// included — equals metrics.Snapshot, the full-scan reference, over the
// population at that tick.
func TestQuietTickSampleIsSnapshot(t *testing.T) {
	quiet := 0
	for _, cell := range goldenCells() {
		b := &nodesBackend{EpochBackend: core.NewPool(1)}
		var tracked []*bundle.Bundle
		ticks := 0
		cfg := goldenConfig(t, cell.proto, cell.mob, true)
		cfg.Backend = b
		cfg.Observers = []core.Observer{&core.FuncObserver{
			Generate: func(id bundle.ID, _ contact.NodeID, _ sim.Time) {
				tracked = append(tracked, &bundle.Bundle{ID: id})
			},
			Sample: func(s metrics.Sample) {
				if ticks > 0 && !b.ran {
					quiet++
				}
				if want := metrics.Snapshot(b.nodes, tracked, s.Now); s != want {
					t.Fatalf("%s on %s, tick %d at %v (quiet %v): sample %+v, snapshot %+v",
						cell.proto, cell.mob.name, ticks, s.Now, !b.ran, s, want)
				}
				ticks++
				b.ran = false
			},
		}}
		if _, err := core.Run(cfg); err != nil {
			t.Fatalf("%s on %s: %v", cell.proto, cell.mob.name, err)
		}
	}
	if quiet == 0 {
		t.Error("no golden cell has a quiet tick")
	}
	t.Logf("%d quiet ticks", quiet)
}
