// Package experiment is the paper's evaluation harness (§IV–V): it
// sweeps bundle load k = 5..50 in steps of 5, runs each point several
// times with fresh seeds and a fresh random source/destination pair,
// averages the four metrics, and exposes each of the paper's figures and
// tables as a ready-to-run specification.
//
// Every sweep — load (Run), bandwidth (RunConstrained) and population
// (RunScale) — executes its (series, axis value, run) grid on the one
// bounded worker pool in grid.go, sized by its Workers field (default
// runtime.GOMAXPROCS(0)); every run's seed derives only from
// (BaseSeed, axis value, run), so parallel and sequential execution
// produce bit-identical results.
package experiment

import (
	"context"
	"fmt"
	"math"
	"slices"

	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
	"dtnsim/internal/stats"
)

// Metric selects which of the paper's measurements a figure plots.
type Metric string

// The paper's metrics (§IV) plus the §V-C signaling-overhead count.
const (
	MetricDelay       Metric = "delay"       // seconds until all bundles arrive
	MetricDelivery    Metric = "delivery"    // delivered / generated
	MetricOccupancy   Metric = "occupancy"   // buffer occupancy level
	MetricDuplication Metric = "duplication" // bundle duplication rate
	MetricOverhead    Metric = "overhead"    // control records transmitted
)

// Scenario produces the mobility input for each run (see simulate in
// grid.go for how a run consumes it).
type Scenario struct {
	// Name labels the scenario in reports ("trace", "rwp", …).
	Name string
	// Spec is the canonical mobility spec this scenario was built from
	// (ScenarioFromSpec), or empty for hand-built scenarios. It is what
	// makes a sweep serializable.
	Spec string
	// Stream builds a pull-based contact source for a given seed: the
	// only way mobility reaches a sweep, called once per run. A
	// hand-built scenario's Stream is whatever it sets, e.g.
	// func(uint64) (contact.Source, error) { return sched.Stream(), nil }
	// over a fixed plan. ScenarioFromSpec's Stream records each seed's
	// plan while its first run streams it and replays it to every later
	// request (replay.go), since a sweep's protocol series share their
	// seeds; its plans allocate at most 1<<18 contact slots (~10 MiB)
	// per scenario, at most half of them one plan, and a plan's contacts
	// fill between half and all of its slots; the rest streams per use,
	// so runs otherwise hold O(nodes) of mobility state. Must be safe for
	// concurrent calls — sweeps with Workers > 1 invoke it from several
	// goroutines; the sources it returns are per-run and single-use.
	Stream func(seed uint64) (contact.Source, error)
	// PerRunSchedule regenerates mobility for every run (RWP): Stream
	// receives the run's own seed. When false every run streams from
	// the sweep's base seed — the same contacts each time, as with a
	// fixed trace file.
	PerRunSchedule bool
	// TxTime and BufferCap override the engine defaults when non-zero.
	TxTime    float64
	BufferCap int
	// Resource-model knobs (DESIGN.md §9), applied to every run; zero
	// disables each one, preserving the paper's unconstrained model.
	// BundleSize is the payload size given to every generated workload
	// bundle; the rest map one-to-one onto core.Config.
	Bandwidth    float64
	BundleSize   int64
	BufferBytes  int64
	DropPolicy   string
	ControlBytes float64
}

// ProtocolFactory builds a fresh protocol instance per run.
type ProtocolFactory struct {
	// Label names the series as in the paper's legends.
	Label string
	// Spec is the canonical protocol spec this factory was built from
	// (FactoryFromSpec), or empty for hand-built factories.
	Spec string
	// New constructs the protocol.
	New func() protocol.Protocol
}

// Sweep is one load-sweep experiment specification.
type Sweep struct {
	Scenario  Scenario
	Protocols []ProtocolFactory
	// Loads defaults to 5,10,…,50 (§IV).
	Loads []int
	// Runs per point; the paper uses 10.
	Runs int
	// BaseSeed anchors all derived randomness.
	BaseSeed uint64
	// Metrics to collect; defaults to all five.
	Metrics []Metric
	// OnPoint, if set, is called after each (protocol, load) point for
	// progress reporting. Regardless of Workers it is invoked from the
	// goroutine that called Run, in the sequential sweep order.
	OnPoint func(label string, load int)
	// Workers bounds the number of runs simulated concurrently. Zero
	// means runtime.GOMAXPROCS(0); 1 runs the grid strictly
	// sequentially; a negative count fails the sweep. Results are bit-identical for every value: each
	// run's seed depends only on (BaseSeed, load, run), and per-point
	// averages are folded in run order after collection.
	Workers int
	// Context, when non-nil, cancels the sweep: it is threaded into
	// every run's engine loop (core.Config.Context), so a cancel or
	// deadline aborts in-flight simulations mid-event-stream and Run
	// returns an error wrapping the context's. Like Workers it is an
	// execution knob with no effect on results while it stays alive.
	Context context.Context
}

// Point is one averaged (load, protocol) measurement.
type Point struct {
	Load int
	// Values holds the run-averaged value per metric. Delay averages
	// only completed runs and is NaN when no run completed (§IV: failed
	// transmissions record no delay).
	Values map[Metric]float64
	// Completed counts runs that delivered every bundle.
	Completed int
	// Runs is the number of runs aggregated.
	Runs int
}

// Series is one protocol's curve across loads.
type Series struct {
	Label  string
	Points []Point
}

// Result is a finished sweep.
type Result struct {
	Scenario string
	Loads    []int
	Series   []Series
}

// DefaultLoads is the paper's load axis.
func DefaultLoads() []int { return []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50} }

// AllMetrics lists every metric.
func AllMetrics() []Metric {
	return []Metric{MetricDelay, MetricDelivery, MetricOccupancy, MetricDuplication, MetricOverhead}
}

// seedFor derives a deterministic 64-bit seed for (base, load, run) via a
// splitmix64 round, so points are independent of sweep iteration order.
func seedFor(base uint64, load, run int) uint64 {
	x := base ^ (uint64(load) << 32) ^ uint64(run)
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Run executes the sweep on the shared grid runner (grid.go), one
// series per protocol and one point per load; see Sweep.Workers for the
// determinism contract.
func Run(sw Sweep) (*Result, error) {
	if len(sw.Protocols) == 0 {
		return nil, fmt.Errorf("experiment: no protocols in sweep")
	}
	if len(sw.Loads) == 0 {
		sw.Loads = DefaultLoads()
	}
	if sw.Runs <= 0 {
		sw.Runs = 10
	}
	if len(sw.Metrics) == 0 {
		sw.Metrics = AllMetrics()
	}
	for _, m := range sw.Metrics {
		switch m {
		case MetricDelay, MetricDelivery, MetricOccupancy, MetricDuplication, MetricOverhead:
		default:
			return nil, fmt.Errorf("experiment: unknown metric %q", m)
		}
	}

	res := &Result{Scenario: sw.Scenario.Name, Loads: sw.Loads}
	for _, pf := range sw.Protocols {
		res.Series = append(res.Series, Series{Label: pf.Label})
	}
	err := runGrid(len(sw.Protocols), len(sw.Loads), sw.Runs, sw.Workers,
		func(w *gridWorker, pi, li, run int) runOutcome {
			pf, load := sw.Protocols[pi], sw.Loads[li]
			r, err := sw.Scenario.simulate(w, core.Config{
				Protocol:     pf.New(),
				Bandwidth:    sw.Scenario.Bandwidth,
				BufferBytes:  sw.Scenario.BufferBytes,
				DropPolicy:   sw.Scenario.DropPolicy,
				ControlBytes: sw.Scenario.ControlBytes,
				Context:      sw.Context,
			}, core.Flow{Count: load, Size: sw.Scenario.BundleSize}, sw.BaseSeed, load, run)
			if err != nil {
				err = fmt.Errorf("experiment: %s/%s load %d: %w", sw.Scenario.Name, pf.Label, load, err)
			}
			return runOutcome{res: r, err: err}
		},
		func(pi, li int, outs []runOutcome) {
			s := &res.Series[pi]
			s.Points = append(s.Points, aggregatePoint(sw, sw.Loads[li], outs))
			if sw.OnPoint != nil {
				sw.OnPoint(s.Label, sw.Loads[li])
			}
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// aggregatePoint folds one point's run results, in run order, into the
// per-metric Welford accumulators and builds the averaged Point. Run
// has already rejected metrics it does not know.
func aggregatePoint(sw Sweep, load int, outcomes []runOutcome) Point {
	// acc[i] accumulates sw.Metrics[i]. A metric listed twice folds
	// into its first slot, twice per run, as one accumulator per metric
	// always did.
	acc := make([]stats.Welford, len(sw.Metrics))
	completed := 0
	for _, out := range outcomes {
		r := out.res
		if r.Completed {
			completed++
		}
		for _, m := range sw.Metrics {
			a := &acc[slices.Index(sw.Metrics, m)]
			switch m {
			case MetricDelay:
				if r.Completed {
					a.Add(r.Makespan)
				}
			case MetricDelivery:
				a.Add(r.DeliveryRatio)
			case MetricOccupancy:
				a.Add(r.MeanOccupancy)
			case MetricDuplication:
				a.Add(r.MeanDuplication)
			case MetricOverhead:
				a.Add(float64(r.ControlRecords))
			}
		}
	}
	pt := Point{Load: load, Values: make(map[Metric]float64, len(sw.Metrics)), Completed: completed, Runs: sw.Runs}
	for _, m := range sw.Metrics {
		a := &acc[slices.Index(sw.Metrics, m)]
		if m == MetricDelay && a.N() == 0 {
			pt.Values[m] = math.NaN()
			continue
		}
		pt.Values[m] = a.Mean()
	}
	return pt
}

// pickPair chooses a random source and distinct destination, changed
// every run per §IV.
func pickPair(nodes int, seed uint64) (contact.NodeID, contact.NodeID) {
	rng := sim.NewRNG(seed ^ 0xfeed)
	src := rng.IntN(nodes)
	dst := rng.IntN(nodes - 1)
	if dst >= src {
		dst++
	}
	return contact.NodeID(src), contact.NodeID(dst)
}

// MeanOf averages a series' metric across its loads, ignoring NaN
// points; used to build Table II.
func MeanOf(s Series, m Metric) float64 {
	var vals []float64
	for _, p := range s.Points {
		v := p.Values[m]
		if !math.IsNaN(v) {
			vals = append(vals, v)
		}
	}
	return stats.Mean(vals)
}
