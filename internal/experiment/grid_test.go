package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"testing"
	"time"

	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/mobility"
	"dtnsim/internal/spec"
)

// seedProbe is a mobility stream that records the seed of every call.
// It is also registered as the "seedprobe" mobility kind (flag
// "perrun") so RunScale, which resolves mobility from a spec per run,
// can be driven through it.
var seedProbe struct {
	sync.Mutex
	seeds []uint64
}

func seedProbeStream(seed uint64) (contact.Source, error) {
	seedProbe.Lock()
	seedProbe.seeds = append(seedProbe.seeds, seed)
	seedProbe.Unlock()
	plan := &contact.Schedule{Nodes: 4, Contacts: []contact.Contact{
		{A: 0, B: 1, Start: 10, End: 400},
		{A: 2, B: 3, Start: 500, End: 900},
	}}
	return plan.Stream(), nil
}

func init() {
	mobility.Default.Register("seedprobe", "test-only seed recorder",
		spec.Table{{Name: "perrun", Type: spec.Flag}},
		func(canonical string, v spec.Values) (mobility.Source, error) {
			return mobility.Source{Spec: canonical, Kind: "seedprobe", PerRun: v.Flag("perrun"), Stream: seedProbeStream}, nil
		})
}

// TestSweepSeedingRule pins the one mobility-seeding rule for all three
// sweeps: mobility fixed across runs streams from BaseSeed on every
// run; per-run mobility streams from seedFor(BaseSeed, axis value, run)
// — the load, the 1-based bandwidth index, the node count.
func TestSweepSeedingRule(t *testing.T) {
	const base, runs = 99, 3
	protos := []ProtocolFactory{Pure(), TTL300()}
	sweeps := []struct {
		name string
		axis []int
		run  func(perRun bool, workers int) error
	}{
		{"load", []int{5, 10}, func(perRun bool, workers int) error {
			_, err := Run(Sweep{
				Scenario:  Scenario{Name: "probe", Stream: seedProbeStream, PerRunSchedule: perRun},
				Protocols: protos, Loads: []int{5, 10}, Runs: runs, BaseSeed: base, Workers: workers,
			})
			return err
		}},
		{"constrained", []int{1, 2}, func(perRun bool, workers int) error {
			_, err := RunConstrained(ConstrainedSweep{
				Scenario:  Scenario{Name: "probe", Stream: seedProbeStream, PerRunSchedule: perRun},
				Protocols: protos, Bandwidths: []float64{1e3, 1e6}, Runs: runs, BaseSeed: base, Workers: workers,
			})
			return err
		}},
		{"scale", []int{4, 8}, func(perRun bool, workers int) error {
			mob := "seedprobe"
			if perRun {
				mob = "seedprobe:perrun"
			}
			_, err := RunScale(ScaleSweep{
				Mobility:  func(int) string { return mob },
				Protocols: protos, Nodes: []int{4, 8}, Runs: runs, BaseSeed: base, Workers: workers,
			})
			return err
		}},
	}
	for _, sw := range sweeps {
		for _, perRun := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				t.Run(fmt.Sprintf("%s/perRun=%v/workers=%d", sw.name, perRun, workers), func(t *testing.T) {
					seedProbe.Lock()
					seedProbe.seeds = nil
					seedProbe.Unlock()
					if err := sw.run(perRun, workers); err != nil {
						t.Fatal(err)
					}
					var want []uint64
					for range protos {
						for _, axis := range sw.axis {
							for run := 0; run < runs; run++ {
								if perRun {
									want = append(want, seedFor(base, axis, run))
								} else {
									want = append(want, base)
								}
							}
						}
					}
					got := append([]uint64(nil), seedProbe.seeds...)
					sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
					sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
					if !reflect.DeepEqual(got, want) {
						t.Errorf("stream seeds:\n got %v\nwant %v", got, want)
					}
				})
			}
		}
	}
}

// TestGridWindowBoundsInFlightCells: while the first cell's fold is
// held up by a straggler run, the pool may dispatch at most workers+4
// cells — what keeps a long sweep (every sweep: they all run on
// runGrid) from holding the whole grid's Results live at once.
func TestGridWindowBoundsInFlightCells(t *testing.T) {
	const workers, cells = 3, 40
	const window = workers + 4
	var mu sync.Mutex
	started := map[int]bool{} // cells with a run dispatched
	folded := 0
	reachedWindow := make(chan struct{})
	overran := make(chan struct{})
	var overranOnce sync.Once
	err := runGrid(1, cells, 2, workers,
		func(_ *core.Runner, _, j, run int) runOutcome {
			mu.Lock()
			if !started[j] {
				started[j] = true
				if len(started) == window {
					close(reachedWindow)
				}
				if len(started)-folded > window {
					overranOnce.Do(func() { close(overran) })
				}
			}
			mu.Unlock()
			if j == 0 && run == 0 {
				// The straggler: hold cell 0 until the window has filled,
				// then give an unbounded dispatcher time to run past it.
				<-reachedWindow
				select {
				case <-overran:
				case <-time.After(50 * time.Millisecond):
				}
			}
			return runOutcome{}
		},
		func(_, j int, outs []runOutcome) {
			mu.Lock()
			defer mu.Unlock()
			if j != folded {
				t.Errorf("fold of cell %d arrived at position %d", j, folded)
			}
			folded++
		})
	if err != nil {
		t.Fatal(err)
	}
	if folded != cells {
		t.Errorf("folded %d cells, want %d", folded, cells)
	}
	select {
	case <-overran:
		t.Errorf("more than workers+4 = %d cells dispatched but not folded", window)
	default:
	}
}

// TestGridStartsOneGoroutinePerJobAtMost: a worker count past the
// grid's job count buys nothing but idle goroutines, and it arrives
// from sweep files and the command line. A two-run grid at 1<<16
// workers used to start 65,536 goroutines; it starts two workers and
// the dispatcher, and its Result is the sequential one.
func TestGridStartsOneGoroutinePerJobAtMost(t *testing.T) {
	sw := Sweep{Scenario: TraceScenario(), Protocols: []ProtocolFactory{Pure()}, Loads: []int{5}, Runs: 2, BaseSeed: 4}
	seq := sw
	seq.Workers = 1
	want, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	peak := 0
	stream := sw.Scenario.Stream
	sw.Scenario.Stream = func(seed uint64) (contact.Source, error) {
		n := runtime.NumGoroutine()
		mu.Lock()
		peak = max(peak, n)
		mu.Unlock()
		return stream(seed)
	}
	sw.Workers = 1 << 16
	before := runtime.NumGoroutine()
	got, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if peak-before > 3 {
		t.Errorf("%d goroutines inside a job of a 2-job grid at 1<<16 workers, %d before the sweep; want at most 3 more", peak, before)
	}
	if !resultsEqual(want, got) {
		t.Errorf("1<<16 workers: result differs from sequential:\nsequential: %+v\nparallel:   %+v", want, got)
	}
}
