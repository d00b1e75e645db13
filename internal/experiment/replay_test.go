package experiment

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"

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
			return RunConstrained(ConstrainedSweep{Scenario: sc, Protocols: protos, Bandwidths: []float64{5e3, 1e6},
				Load: 10, Runs: 2, BaseSeed: 2012, Workers: workers})
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

// TestReplayFallbacks: every request for a seed is a cursor over one
// plan that one inner source fills, however the cursors interleave or
// stop; a source that erred is replayed with its error; a plan over
// the budget is dropped and streams the rest raw; a file-backed
// inner source is closed once no cursor is open over its plan.
func TestReplayFallbacks(t *testing.T) {
	t.Run("requests share one inner source", func(t *testing.T) {
		stream, handed := plannedStream(3, nil)
		r := newReplay(stream, replayBudget)
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
	})

	t.Run("concurrent cursors", func(t *testing.T) {
		const n, readers = 5*pullBatch + 3, 8
		stream, handed := plannedStream(n, nil)
		want := planOf(stream, n)
		*handed = (*handed)[:0]
		r := newReplay(stream, replayBudget)
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
		r := newReplay(stream, replayBudget)
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
		r := newReplay(stream, replayBudget)
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
		r := newReplay(stream, replayBudget)
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
		memo := Scenario{Name: "erring", Stream: newReplay(stream, replayBudget).Stream}
		for run := 0; run < 4; run++ {
			_, want := raw.simulate(new(gridWorker), core.Config{Protocol: Pure().New()}, core.Flow{Count: 5}, 9, 5, run)
			_, got := memo.simulate(new(gridWorker), core.Config{Protocol: Pure().New()}, core.Flow{Count: 5}, 9, 5, run)
			if want == nil || got == nil || got.Error() != want.Error() {
				t.Errorf("run %d: err %v, raw stream's %v", run, got, want)
			}
		}
	})

	t.Run("over budget", func(t *testing.T) {
		// Budget 4: a plan may take 2 slots, so a 5-contact plan is
		// dropped at its third contact and gives its slots back.
		stream, handed := plannedStream(5, nil)
		r := newReplay(stream, 4)
		for i := 0; i < 4; i++ {
			src, _ := r.Stream(7)
			if isReplay(src) != (i == 0) {
				t.Fatalf("request %d: cursor %v; only the first, which dropped the plan, is one", i, isReplay(src))
			}
			if n := drain(src); n != 5 {
				t.Fatalf("request %d yielded %d contacts, want 5", i, n)
			}
		}
		if r.kept != 0 || len(*handed) != 4 {
			t.Errorf("kept %d slots after %d inner streams; want the dropped plan's returned and 4 streams", r.kept, len(*handed))
		}
		// A cursor that runs off what the dropped plan held while the
		// frontier kept the inner source reopens one and skips ahead.
		stream, handed = plannedStream(5, nil)
		want := planOf(stream, 5)
		*handed = (*handed)[:0]
		r = newReplay(stream, 4)
		front, _ := r.Stream(7)
		behind, _ := r.Stream(7)
		if got := take(front, 6); !reflect.DeepEqual(got, want) {
			t.Errorf("frontier cursor read %v, want %v", got, want)
		}
		if got := take(behind, 6); !reflect.DeepEqual(got, want) || len(*handed) != 2 {
			t.Errorf("the cursor behind read %v over %d inner streams; want %v over 2", got, len(*handed), want)
		}
		// Budget 9: plans take 4-slot chunks and at most 4 slots. Seed 9's
		// 5-contact plan outgrows that and is dropped without stopping
		// the others; seeds 1 and 2 fit, and seed 3's plan would pass
		// the budget, after which no unseen seed records.
		small, _ := plannedStream(3, nil)
		large, _ := plannedStream(5, nil)
		r = newReplay(func(seed uint64) (contact.Source, error) {
			if seed == 9 {
				return large(seed)
			}
			return small(seed)
		}, 9)
		for _, seed := range []uint64{9, 9, 1, 1, 2, 2, 3, 3} {
			src, _ := r.Stream(seed)
			drain(src)
		}
		for seed, kept := range map[uint64]bool{9: false, 1: true, 2: true, 3: false, 4: false} {
			if src, _ := r.Stream(seed); isReplay(src) != kept {
				t.Errorf("seed %d: replayed %v, want %v", seed, isReplay(src), kept)
			}
		}
		if r.kept != 8 {
			t.Errorf("kept %d slots; want seeds 1 and 2's 4 each", r.kept)
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
