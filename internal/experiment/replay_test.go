package experiment

import (
	"bytes"
	"errors"
	"fmt"
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
// generates each distinct plan at most twice.
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
			for seed, n := range replayCount.calls {
				if n > 2 {
					t.Errorf("%s at %d workers: seed %d streamed %d times, want at most 2", mob, workers, seed, n)
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

func drain(src contact.Source) int {
	n := 0
	for _, ok := src.Next(); ok; _, ok = src.Next() {
		n++
	}
	return n
}

// TestReplayFallbacks: a seed's first request is the inner source
// itself; a source that erred, or a plan over the budget, is never
// kept, and that seed streams per use.
func TestReplayFallbacks(t *testing.T) {
	t.Run("first request is the inner source", func(t *testing.T) {
		stream, handed := plannedStream(3, nil)
		r := newReplay(stream, replayBudget)
		first, _ := r.Stream(7)
		if len(*handed) != 1 || first != (*handed)[0] {
			t.Fatalf("first request got %T, want the inner source", first)
		}
		second, _ := r.Stream(7)
		third, _ := r.Stream(7)
		if len(*handed) != 2 || !isReplay(second) || !isReplay(third) {
			t.Errorf("inner streamed %d times for three requests, want 2 and two replays", len(*handed))
		}
		// Replays are independent: draining one leaves the other whole.
		if n, m := drain(second), drain(third); n != 3 || m != 3 {
			t.Errorf("replays yielded %d and %d contacts, want 3 each", n, m)
		}
		if second.Horizon() != first.Horizon() || second.Nodes() != first.Nodes() {
			t.Errorf("replay reports horizon %v over %d nodes, inner %v over %d",
				second.Horizon(), second.Nodes(), first.Horizon(), first.Nodes())
		}
	})

	t.Run("erring source", func(t *testing.T) {
		boom := errors.New("trace truncated")
		stream, handed := plannedStream(3, boom)
		r := newReplay(stream, replayBudget)
		for i := 0; i < 4; i++ {
			src, _ := r.Stream(7)
			if drain(src); !errors.Is(src.Err(), boom) {
				t.Fatalf("request %d: err %v, want %v", i, src.Err(), boom)
			}
		}
		if r.kept != 0 || len(*handed) != 5 {
			t.Errorf("kept %d contacts after %d inner streams; want 0 kept and 4 requests + 1 recording", r.kept, len(*handed))
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
		stream, handed := plannedStream(5, nil)
		r := newReplay(stream, 4)
		for i := 0; i < 4; i++ {
			src, _ := r.Stream(7)
			if _, replayed := src.(*replaySource); replayed {
				t.Fatalf("request %d replayed a plan over the budget", i)
			}
			if n := drain(src); n != 5 {
				t.Fatalf("request %d yielded %d contacts, want 5", i, n)
			}
		}
		if r.kept != 0 || len(*handed) != 5 {
			t.Errorf("kept %d contacts after %d inner streams; want 0 kept and 4 requests + 1 recording", r.kept, len(*handed))
		}
		// The budget spans seeds: a plan that fits is kept, the next
		// seed's plan that would overrun it is not.
		r = newReplay(stream, 8)
		for _, seed := range []uint64{1, 1, 2, 2} {
			r.Stream(seed)
		}
		if src, _ := r.Stream(1); !isReplay(src) {
			t.Error("seed 1's plan, within budget, is not replayed")
		}
		if src, _ := r.Stream(2); isReplay(src) {
			t.Error("seed 2's plan, past the shared budget, is replayed")
		}
	})
}

func isReplay(src contact.Source) bool {
	_, ok := src.(*replaySource)
	return ok
}
