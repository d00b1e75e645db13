package experiment

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/mobility"
	"dtnsim/internal/sim"
	"dtnsim/internal/spec"
)

// replayCount counts the inner streams of the "replaycount" mobility
// kind per seed: the Cambridge plan, or with the "perrun" flag the
// subscriber plan, each counted on every Stream call the registry's
// source receives.
var replayCount struct {
	sync.Mutex
	calls map[uint64]int
}

func init() {
	mobility.Default.Register("replaycount", "test-only stream counter",
		spec.Table{{Name: "perrun", Type: spec.Flag}},
		func(canonical string, v spec.Values) (mobility.Source, error) {
			inner := "cambridge"
			if v.Flag("perrun") {
				inner = "subscriber"
			}
			src, err := mobility.Parse(inner)
			if err != nil {
				panic(err)
			}
			stream := src.Stream
			src.Spec, src.Kind = canonical, "replaycount"
			src.Stream = func(seed uint64) (contact.Source, error) {
				replayCount.Lock()
				replayCount.calls[seed]++
				replayCount.Unlock()
				return stream(seed)
			}
			return src, nil
		})
}

// bitText renders v with every float64 as its bit pattern, so two
// renderings are equal exactly when the values are bit-identical, NaN
// delays included.
func bitText(b *strings.Builder, v reflect.Value) {
	switch v.Kind() {
	case reflect.Float64:
		fmt.Fprintf(b, "%x ", math.Float64bits(v.Float()))
	case reflect.Pointer:
		bitText(b, v.Elem())
	case reflect.Slice:
		for i := 0; i < v.Len(); i++ {
			bitText(b, v.Index(i))
		}
		b.WriteString("; ")
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			bitText(b, v.Field(i))
		}
	case reflect.Map:
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		for _, k := range keys {
			b.WriteString(k.String() + "=")
			bitText(b, v.MapIndex(k))
		}
	default:
		fmt.Fprintf(b, "%v ", v.Interface())
	}
}

func bits(v any) string {
	var b strings.Builder
	bitText(&b, reflect.ValueOf(v))
	return b.String()
}

// TestSpecScenarioReplayIsInvisible: a spec-built scenario's sweeps,
// load and constrained, at one and four workers, are bit-identical to
// the same sweeps over the registry's raw stream, and the replay
// generates each distinct plan exactly once.
func TestSpecScenarioReplayIsInvisible(t *testing.T) {
	protos := []ProtocolFactory{Pure(), TTL300(), CumImmunity()}
	sweeps := []struct {
		name string
		run  func(sc Scenario, workers int) (any, error)
	}{
		{"load", func(sc Scenario, workers int) (any, error) {
			return Run(Sweep{Scenario: sc, Protocols: protos, Loads: []int{5, 20}, Runs: 2, BaseSeed: 2012, Workers: workers})
		}},
		{"constrained", func(sc Scenario, workers int) (any, error) {
			sc.BundleSize, sc.BufferBytes = 1<<20, 5<<20
			return Run(Sweep{Scenario: sc, Protocols: protos, Axis: Axis{Kind: AxisBandwidth, Bandwidths: []float64{5e3, 1e6}},
				Loads: []int{10}, Runs: 2, BaseSeed: 2012, Workers: workers,
				Metrics: []Metric{MetricDelivery, MetricMeanDelay, MetricDrops, MetricByteDropped, MetricRefused}})
		}},
	}
	// A trace file too: its file-backed source is closed after recording.
	cam, err := ScenarioFromSpec("cambridge")
	if err != nil {
		t.Fatal(err)
	}
	sched, err := cam.Stream(2012)
	if err != nil {
		t.Fatal(err)
	}
	materialized, err := contact.Materialize(sched)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := mobility.WriteTrace(&trace, materialized); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cambridge.txt")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, mob := range []string{"cambridge", "subscriber", "interval:max=400", "trace:" + path} {
		src, err := mobility.Parse(mob)
		if err != nil {
			t.Fatal(err)
		}
		for _, sw := range sweeps {
			for _, workers := range []int{1, 4} {
				sc, err := ScenarioFromSpec(mob)
				if err != nil {
					t.Fatal(err)
				}
				raw := sc
				raw.Stream = src.Stream
				want, err := sw.run(raw, workers)
				if err != nil {
					t.Fatal(err)
				}
				got, err := sw.run(sc, workers)
				if err != nil {
					t.Fatal(err)
				}
				if bits(got) != bits(want) {
					t.Errorf("%s %s sweep at %d workers differs from the raw stream's", mob, sw.name, workers)
				}
			}
		}
	}

	for _, mob := range []string{"replaycount", "replaycount:perrun"} {
		for _, workers := range []int{1, 4} {
			replayCount.Lock()
			replayCount.calls = map[uint64]int{}
			replayCount.Unlock()
			sc, err := ScenarioFromSpec(mob)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := sweeps[0].run(sc, workers); err != nil {
				t.Fatal(err)
			}
			replayCount.Lock()
			if len(replayCount.calls) == 0 {
				t.Errorf("%s at %d workers: no seed streamed", mob, workers)
			}
			for seed, n := range replayCount.calls {
				if n != 1 {
					t.Errorf("%s at %d workers: seed %d streamed %d times, want once", mob, workers, seed, n)
				}
			}
			replayCount.Unlock()
		}
	}
}

// plannedStream returns a Stream over a fixed plan of n contacts that
// records every source it hands out, optionally ending each in err.
func plannedStream(n int, err error) (stream func(uint64) (contact.Source, error), handed *[]contact.Source) {
	plan := &contact.Schedule{Nodes: 2}
	for i := 0; i < n; i++ {
		plan.Contacts = append(plan.Contacts, contact.Contact{A: 0, B: 1, Start: sim.Time(100 * i), End: sim.Time(100*i + 50)})
	}
	var mu sync.Mutex
	handed = new([]contact.Source)
	return func(uint64) (contact.Source, error) {
		var src contact.Source = plan.Stream()
		if err != nil {
			src = erringSource{plan.Stream(), err}
		}
		mu.Lock()
		*handed = append(*handed, src)
		mu.Unlock()
		return src, nil
	}, handed
}

// erringSource yields its plan, then reports err.
type erringSource struct {
	*contact.ScheduleSource
	err error
}

func (s erringSource) Err() error { return s.err }

// fileSource stands in for a trace file's source: it holds a resource
// until Close.
type fileSource struct {
	*contact.ScheduleSource
	closed bool
}

func (s *fileSource) Close() error {
	s.closed = true
	return nil
}

func drain(src contact.Source) int {
	n := 0
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		n++
	}
	return n
}

// take reads up to n contacts of src and returns them.
func take(src contact.Source, n int) []contact.Contact {
	var got []contact.Contact
	for ; n > 0; n-- {
		c, ok := src.Next()
		if !ok {
			break
		}
		got = append(got, c)
	}
	return got
}

// scheduled returns a memo over stream with seed 7 scheduled for
// readers requests, as Run schedules a sweep's shared seeds.
func scheduled(t *testing.T, stream func(uint64) (contact.Source, error), limit, readers int) *replay {
	r := newReplay(stream, limit)
	seeds := make([]uint64, readers)
	for i := range seeds {
		seeds[i] = 7
	}
	t.Cleanup(r.schedule(seeds))
	return r
}

// TestReplayFallbacks: every scheduled request for a seed is a cursor
// over one plan that one inner source fills, however the cursors
// interleave or stop; a source that erred is replayed with its error; a
// plan over the per-plan budget is dropped and streams the rest raw; a
// file-backed inner source is closed once no cursor is open over its
// plan.
func TestReplayFallbacks(t *testing.T) {
	t.Run("requests share one inner source", func(t *testing.T) {
		stream, handed := plannedStream(3, nil)
		r := scheduled(t, stream, planCap, 3)
		first, _ := r.Stream(7)
		second, _ := r.Stream(7)
		third, _ := r.Stream(7)
		if len(*handed) != 1 || !isReplay(first) || !isReplay(second) || !isReplay(third) {
			t.Fatalf("inner streamed %d times for three requests, want once and three cursors", len(*handed))
		}
		// Cursors are independent: draining one leaves the others whole,
		// whichever of them pulled the contacts from the inner source.
		if n, m, k := drain(second), drain(first), drain(third); n != 3 || m != 3 || k != 3 {
			t.Errorf("cursors yielded %d, %d and %d contacts, want 3 each", n, m, k)
		}
		inner := (*handed)[0]
		if second.Horizon() != inner.Horizon() || second.Nodes() != inner.Nodes() {
			t.Errorf("cursor reports horizon %v over %d nodes, inner %v over %d",
				second.Horizon(), second.Nodes(), inner.Horizon(), inner.Nodes())
		}
		if len(r.plans) != 0 {
			t.Error("the memo kept a plan whose readers all had it and whose source ended")
		}
	})

	t.Run("concurrent cursors", func(t *testing.T) {
		const n, readers = 5*pullBatch + 3, 8
		stream, handed := plannedStream(n, nil)
		want := planOf(stream, n)
		*handed = (*handed)[:0]
		r := scheduled(t, stream, planCap, readers)
		got := make([][]contact.Contact, readers)
		var wg sync.WaitGroup
		for g := range got {
			wg.Add(1)
			go func() {
				defer wg.Done()
				src, _ := r.Stream(7)
				got[g] = take(src, n+1)
				src.(io.Closer).Close()
			}()
		}
		wg.Wait()
		for g := range got {
			if !reflect.DeepEqual(got[g], want) {
				t.Errorf("reader %d read %d contacts, not the plan's %d", g, len(got[g]), n)
			}
		}
		if len(*handed) != 1 {
			t.Errorf("%d readers at once streamed the inner source %d times, want once", readers, len(*handed))
		}
	})

	t.Run("a run that stops early", func(t *testing.T) {
		const n = 3*pullBatch + 5
		stream, handed := plannedStream(n, nil)
		want := planOf(stream, n)
		*handed = (*handed)[:0]
		r := scheduled(t, stream, planCap, 2)
		early, _ := r.Stream(7)
		head := take(early, 10)
		early.(io.Closer).Close()
		next, _ := r.Stream(7)
		got := take(next, n+1)
		if len(*handed) != 1 {
			t.Errorf("inner streamed %d times; the next cursor should continue the first one's source", len(*handed))
		}
		if !reflect.DeepEqual(head, want[:10]) || !reflect.DeepEqual(got, want) {
			t.Errorf("the early run read %d contacts and the next %d; want the plan's first 10 and all %d", len(head), len(got), n)
		}
	})

	t.Run("file source closes with its last cursor", func(t *testing.T) {
		const n = 3*pullBatch + 5
		inner, _ := plannedStream(n, nil)
		var files []*fileSource
		stream := func(seed uint64) (contact.Source, error) {
			src, _ := inner(seed)
			f := &fileSource{ScheduleSource: src.(*contact.ScheduleSource)}
			files = append(files, f)
			return f, nil
		}
		r := scheduled(t, stream, planCap, 3)
		a, _ := r.Stream(7)
		b, _ := r.Stream(7)
		take(a, 10)
		a.(io.Closer).Close()
		if files[0].closed {
			t.Fatal("the inner source closed while a cursor was still open")
		}
		take(b, 20)
		b.(io.Closer).Close()
		if !files[0].closed {
			t.Fatal("the inner source outlived the last cursor over its plan")
		}
		c, _ := r.Stream(7)
		if got := drain(c); got != n || len(files) != 2 {
			t.Errorf("the next cursor yielded %d of %d contacts over %d sources; want all over one reopened", got, n, len(files))
		}
		if !files[1].closed {
			t.Error("the reopened source stayed open after the plan ended")
		}
	})

	t.Run("erring source", func(t *testing.T) {
		boom := errors.New("trace truncated")
		stream, handed := plannedStream(3, boom)
		r := scheduled(t, stream, planCap, 4)
		for i := 0; i < 4; i++ {
			src, _ := r.Stream(7)
			if n := drain(src); n != 3 || !errors.Is(src.Err(), boom) {
				t.Fatalf("request %d: %d contacts, err %v; want 3 and %v", i, n, src.Err(), boom)
			}
		}
		if len(*handed) != 1 {
			t.Errorf("%d inner streams for four requests; want 1", len(*handed))
		}
		// Through the run builder, every run fails as the raw stream does.
		raw := Scenario{Name: "erring", Stream: stream}
		m := newReplay(stream, planCap)
		memo := Scenario{Name: "erring", Stream: m.Stream}
		defer m.schedule([]uint64{9, 9, 9, 9})()
		for run := 0; run < 4; run++ {
			_, want := raw.simulate(new(gridWorker), core.Config{Protocol: Pure().New()}, core.Flow{Count: 5}, 9, 5, run)
			_, got := memo.simulate(new(gridWorker), core.Config{Protocol: Pure().New()}, core.Flow{Count: 5}, 9, 5, run)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("run %d: err %v, raw stream's %v", run, got, want)
			}
		}
	})

	t.Run("source fails to open", func(t *testing.T) {
		boom := errors.New("no such trace")
		opens := 0
		r := scheduled(t, func(uint64) (contact.Source, error) {
			opens++
			return nil, boom
		}, planCap, 3)
		for i := 0; i < 3; i++ {
			if src, err := r.Stream(7); src != nil || !errors.Is(err, boom) {
				t.Fatalf("request %d: source %v, err %v; want none and %v", i, src, err, boom)
			}
		}
		if opens != 3 || len(r.plans) != 0 {
			t.Errorf("%d opens for three requests and %d plans kept; want one open each and none", opens, len(r.plans))
		}
	})

	t.Run("over budget", func(t *testing.T) {
		// A plan may take 2 slots, so a 5-contact plan is dropped at its
		// third contact and leaves the memo.
		stream, handed := plannedStream(5, nil)
		r := scheduled(t, stream, 2, 4)
		for i := 0; i < 4; i++ {
			src, _ := r.Stream(7)
			if isReplay(src) != (i == 0) {
				t.Fatalf("request %d: cursor %v; only the first, which dropped the plan, is one", i, isReplay(src))
			}
			if n := drain(src); n != 5 {
				t.Fatalf("request %d yielded %d contacts, want 5", i, n)
			}
		}
		if len(r.plans) != 0 || len(*handed) != 4 {
			t.Errorf("%d plans kept after %d inner streams; want the dropped plan gone and 4 streams", len(r.plans), len(*handed))
		}
		// A cursor that runs off what the dropped plan held while the
		// frontier kept the inner source reopens one and skips ahead.
		stream, handed = plannedStream(5, nil)
		want := planOf(stream, 5)
		*handed = (*handed)[:0]
		r = scheduled(t, stream, 2, 2)
		front, _ := r.Stream(7)
		behind, _ := r.Stream(7)
		if got := take(front, 6); !reflect.DeepEqual(got, want) {
			t.Errorf("frontier cursor read %v, want %v", got, want)
		}
		if got := take(behind, 6); !reflect.DeepEqual(got, want) || len(*handed) != 2 {
			t.Errorf("the cursor behind read %v over %d inner streams; want %v over 2", got, len(*handed), want)
		}
		// The budget is per plan: seed 9's 5-contact plan outgrows its 4
		// slots and is dropped without stopping the others, and every
		// 3-contact plan fits, however many there are.
		small, _ := plannedStream(3, nil)
		large, _ := plannedStream(5, nil)
		r = newReplay(func(seed uint64) (contact.Source, error) {
			if seed == 9 {
				return large(seed)
			}
			return small(seed)
		}, 4)
		defer r.schedule([]uint64{9, 9, 9, 1, 1, 1, 2, 2, 2, 3, 3, 3})()
		for _, seed := range []uint64{9, 9, 1, 1, 2, 2, 3, 3} {
			src, _ := r.Stream(seed)
			drain(src)
		}
		for seed, kept := range map[uint64]bool{9: false, 1: true, 2: true, 3: true, 4: false} {
			if src, _ := r.Stream(seed); isReplay(src) != kept {
				t.Errorf("seed %d: replayed %v, want %v", seed, isReplay(src), kept)
			}
		}
	})
}

// planOf reads the first n contacts of a fresh source of stream: what
// every cursor over its plan must yield.
func planOf(stream func(uint64) (contact.Source, error), n int) []contact.Contact {
	src, _ := stream(7)
	return take(src, n)
}

func isReplay(src contact.Source) bool {
	_, ok := src.(*cursor)
	return ok
}

// TestReplaySchedule: only a seed scheduled for two or more requests
// replays; the helper generates the next scheduled plan once the one
// before it is requested, and not before; a schedule that nothing
// requests through the memo produces nothing; and the memo lets a plan
// go once its last reader has it.
func TestReplaySchedule(t *testing.T) {
	var mu sync.Mutex
	opened := map[uint64]int{}
	openedTwo := make(chan struct{})
	planned, _ := plannedStream(3*pullBatch, nil)
	stream := func(seed uint64) (contact.Source, error) {
		mu.Lock()
		if opened[seed]++; seed == 2 && opened[seed] == 1 {
			close(openedTwo)
		}
		mu.Unlock()
		return planned(seed)
	}
	r := newReplay(stream, planCap)
	finish := r.schedule([]uint64{1, 1, 5, 2, 2, 3, 3})
	if src, _ := r.Stream(5); isReplay(src) {
		t.Error("a seed with one scheduled reader replays")
	}
	if src, _ := r.Stream(6); isReplay(src) {
		t.Error("an unscheduled seed replays")
	}
	first, _ := r.Stream(1)
	<-openedTwo // the helper starts plan 2 once plan 1 is requested
	finish()
	mu.Lock()
	if opened[2] != 1 || opened[3] != 0 {
		t.Errorf("plans 2 and 3 opened %d and %d times before plan 2 was requested; want once and never", opened[2], opened[3])
	}
	mu.Unlock()
	if n := drain(first); n != 3*pullBatch {
		t.Errorf("the cursor read %d contacts after its Run ended, want %d", n, 3*pullBatch)
	}
	if len(r.plans) != 0 {
		t.Errorf("%d plans left after the Run ended", len(r.plans))
	}

	// A Stream that never reaches the memo: the helper waits, and the
	// Run's end releases the plans unopened.
	opened = map[uint64]int{}
	r = newReplay(stream, planCap)
	r.schedule([]uint64{1, 1, 2, 2})()
	if len(opened) != 0 || len(r.plans) != 0 {
		t.Errorf("an unrequested schedule opened %v and left %d plans", opened, len(r.plans))
	}

	// The last reader's hand-out releases a recorded plan.
	r = newReplay(stream, planCap)
	defer r.schedule([]uint64{4, 4})()
	a, _ := r.Stream(4)
	drain(a)
	if len(r.plans) != 1 {
		t.Error("a plan left the memo before its last reader had it")
	}
	r.Stream(4)
	if len(r.plans) != 0 {
		t.Error("a recorded plan stayed in the memo after its last reader had it")
	}
}

// TestReplayOneSeriesRecordsNothing: a one-series sweep over per-run
// mobility reads every plan once, so it streams every seed raw, once,
// and records none.
func TestReplayOneSeriesRecordsNothing(t *testing.T) {
	for _, workers := range []int{1, 4} {
		replayCount.Lock()
		replayCount.calls = map[uint64]int{}
		replayCount.Unlock()
		sc, err := ScenarioFromSpec("replaycount:perrun")
		if err != nil {
			t.Fatal(err)
		}
		var cursors atomic.Int64
		stream := sc.Stream
		sc.Stream = func(seed uint64) (contact.Source, error) {
			src, err := stream(seed)
			if isReplay(src) {
				cursors.Add(1)
			}
			return src, err
		}
		sw := Sweep{Scenario: sc, Protocols: []ProtocolFactory{Pure()}, Runs: 10, BaseSeed: 2012, Workers: workers}
		if _, err := Run(sw); err != nil {
			t.Fatal(err)
		}
		replayCount.Lock()
		if len(replayCount.calls) != len(DefaultLoads())*10 {
			t.Errorf("workers %d: %d seeds streamed, want %d", workers, len(replayCount.calls), len(DefaultLoads())*10)
		}
		for seed, n := range replayCount.calls {
			if n != 1 {
				t.Errorf("workers %d: seed %d streamed %d times, want once", workers, seed, n)
			}
		}
		replayCount.Unlock()
		if n := cursors.Load(); n != 0 || len(sc.memo.plans) != 0 {
			t.Errorf("workers %d: %d runs replayed and %d plans retained, want none", workers, n, len(sc.memo.plans))
		}
	}
}

// hiddenClose wraps a source and hides its io.Closer, as a wrapper that
// embeds contact.Source does, so the engine can close no cursor; after
// limit contacts across all its copies it calls cancel.
type hiddenClose struct {
	contact.Source
	pulled *atomic.Int64
	limit  int64
	cancel func()
}

func (h hiddenClose) Next() (contact.Contact, bool) {
	if h.pulled.Add(1) == h.limit {
		h.cancel()
	}
	return h.Source.Next()
}

// cutSource yields left contacts of its source, then ends with err.
type cutSource struct {
	contact.Source
	left int
	err  error
}

func (s *cutSource) Next() (contact.Contact, bool) {
	if s.left == 0 {
		return contact.Contact{}, false
	}
	s.left--
	return s.Source.Next()
}

func (s *cutSource) Err() error { return s.err }

// closeProbe counts the Close calls of the inner sources a memo opens.
type closeProbe struct {
	contact.Source
	closed *atomic.Int64
}

func (p closeProbe) Close() error {
	p.closed.Add(1)
	closeSource(p.Source)
	return nil
}

// TestReplayRunLeavesNoGoroutine: whether a sweep completes, is
// cancelled mid-way or meets a source that errs, at one worker or four,
// Run returns with the helper gone and with every inner source a memo
// opened closed, though no cursor was ever closed; on a trace file
// that is a descriptor.
func TestReplayRunLeavesNoGoroutine(t *testing.T) {
	path := cambridgeTraceFile(t)
	trace, err := mobility.Parse("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	subscriber, err := mobility.Parse("subscriber")
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	for _, mob := range []mobility.Source{trace, subscriber} {
		for _, end := range []string{"completed", "cancelled", "erring"} {
			for _, workers := range []int{1, 4} {
				var opened, closed, pulled atomic.Int64
				inner := func(seed uint64) (contact.Source, error) {
					src, err := mob.Stream(seed)
					if err != nil {
						return nil, err
					}
					opened.Add(1)
					if end == "erring" && (seed == 3 || seed == seedFor(3, 10, 1)) {
						src = &cutSource{Source: src, left: 100, err: boom}
					}
					return closeProbe{src, &closed}, nil
				}
				m := newReplay(inner, planCap)
				ctx, cancel := context.WithCancel(context.Background())
				limit := int64(-1)
				if end == "cancelled" {
					limit = 200
				}
				sc := Scenario{Name: mob.Kind, PerRunSchedule: mob.PerRun, memo: m,
					Stream: func(seed uint64) (contact.Source, error) {
						src, err := m.Stream(seed)
						return hiddenClose{src, &pulled, limit, cancel}, err
					}}
				sw := Sweep{Scenario: sc, Protocols: []ProtocolFactory{Pure(), TTL300()}, Loads: []int{5, 10, 15},
					Runs: 2, BaseSeed: 3, Workers: workers, Context: ctx}
				before := runtime.NumGoroutine()
				_, err := Run(sw)
				cancel()
				if (err == nil) != (end == "completed") {
					t.Errorf("%s %s sweep at %d workers: err %v", mob.Kind, end, workers, err)
				}
				for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > before && time.Now().Before(deadline); {
					time.Sleep(time.Millisecond)
				}
				if n := runtime.NumGoroutine(); n > before {
					t.Errorf("%s %s sweep at %d workers: %d goroutines after Run, %d before", mob.Kind, end, workers, n, before)
				}
				if opened.Load() == 0 || closed.Load() != opened.Load() {
					t.Errorf("%s %s sweep at %d workers: %d of %d inner sources closed", mob.Kind, end, workers, closed.Load(), opened.Load())
				}
			}
		}
	}
}

// cambridgeTraceFile writes the Cambridge plan at seed 2012 as a trace
// file and returns its path.
func cambridgeTraceFile(t *testing.T) string {
	src, err := mobility.Parse("cambridge")
	if err != nil {
		t.Fatal(err)
	}
	stream, err := src.Stream(2012)
	if err != nil {
		t.Fatal(err)
	}
	sched, err := contact.Materialize(stream)
	if err != nil {
		t.Fatal(err)
	}
	var trace bytes.Buffer
	if err := mobility.WriteTrace(&trace, sched); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cambridge.txt")
	if err := os.WriteFile(path, trace.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}
