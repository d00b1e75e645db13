// Package experiment is the paper's evaluation harness (§IV–V): it
// sweeps bundle load k = 5..50 in steps of 5, runs each point several
// times with fresh seeds and a fresh random source/destination pair,
// averages the four metrics, and exposes each of the paper's figures and
// tables as a ready-to-run specification.
//
// Sweeps execute their (protocol, load, run) grid on a bounded worker
// pool sized by Sweep.Workers (default runtime.GOMAXPROCS(0)); every
// run's seed derives only from (BaseSeed, load, run), so parallel and
// sequential execution produce bit-identical results.
package experiment

import (
	"context"
	"fmt"
	"math"
	"runtime"
	"sync"
	"sync/atomic"

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

// Scenario produces the mobility input for each run.
type Scenario struct {
	// Name labels the scenario in reports ("trace", "rwp", …).
	Name string
	// Spec is the canonical mobility spec this scenario was built from
	// (ScenarioFromSpec), or empty for hand-built scenarios. It is what
	// makes a sweep serializable.
	Spec string
	// Generate builds the contact schedule for a given seed. It must be
	// safe for concurrent calls: sweeps with Workers > 1 invoke it from
	// several goroutines when PerRunSchedule is set.
	Generate func(seed uint64) (*contact.Schedule, error)
	// Stream builds a pull-based contact source for a given seed; when
	// set, runs consume mobility through it without materializing a
	// schedule, so sweep memory stays O(nodes) per in-flight run.
	// Spec-built scenarios always set it; hand-built scenarios may leave
	// it nil and fall back to Generate. Must be safe for concurrent
	// calls (sources themselves are per-run and single-use).
	Stream func(seed uint64) (contact.Source, error)
	// PerRunSchedule regenerates mobility for every run (RWP); when
	// false the schedule is generated once from the sweep's base seed
	// and shared by all runs, as with a fixed trace file.
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
	// sequentially. Results are bit-identical for every value: each
	// run's seed depends only on (BaseSeed, load, run), and per-point
	// averages are folded in run order after collection.
	Workers int
	// Shards selects each run's engine executor (core.Config.Shards):
	// 0 sequentially on the calling goroutine, K >= 1 the sharded
	// executor with K workers. Orthogonal to Workers — Workers parallelizes across the
	// grid, Shards inside each run — and, like it, bit-identical for
	// every value.
	Shards int
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

// Run executes the sweep. With Workers != 1 the (protocol, load, run)
// grid is fanned out over a worker pool; see Sweep.Workers for the
// determinism contract.
func Run(sw Sweep) (*Result, error) {
	if sw.Scenario.Generate == nil && sw.Scenario.Stream == nil {
		return nil, fmt.Errorf("experiment: scenario %q has no generator", sw.Scenario.Name)
	}
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
	workers := sw.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Streaming scenarios need no shared schedule: every run re-streams
	// its source (from the base seed when the schedule is fixed across
	// runs — same contacts, regenerated instead of retained). Hand-built
	// Generate-only scenarios keep the materialized shared schedule,
	// generated once and treated as read-only by every run.
	var shared *contact.Schedule
	if sw.Scenario.Stream == nil && !sw.Scenario.PerRunSchedule {
		s, err := sw.Scenario.Generate(sw.BaseSeed)
		if err != nil {
			return nil, fmt.Errorf("experiment: generating %s schedule: %w", sw.Scenario.Name, err)
		}
		shared = s
	}

	if workers == 1 {
		return runSequential(sw, shared)
	}
	return runParallel(sw, shared, workers)
}

// runSequential is the reference execution order: protocol-major,
// load-minor, runs in index order, OnPoint after each point.
func runSequential(sw Sweep, shared *contact.Schedule) (*Result, error) {
	res := &Result{Scenario: sw.Scenario.Name, Loads: sw.Loads}
	for _, pf := range sw.Protocols {
		series := Series{Label: pf.Label}
		for _, load := range sw.Loads {
			outcomes := make([]runOutcome, sw.Runs)
			for run := 0; run < sw.Runs; run++ {
				outcomes[run] = runOne(sw, shared, pf, load, run)
			}
			pt, err := aggregatePoint(sw, load, outcomes)
			if err != nil {
				return nil, err
			}
			series.Points = append(series.Points, pt)
			if sw.OnPoint != nil {
				sw.OnPoint(pf.Label, load)
			}
		}
		res.Series = append(res.Series, series)
	}
	return res, nil
}

// job addresses one simulation run in the sweep grid.
type job struct{ pi, li, run int }

// runOutcome is one run's result or failure.
type runOutcome struct {
	res *core.Result
	err error
	// secs is the run's wall-clock duration when the sweep measures it
	// (ScaleSweep.Clock); zero otherwise. Never folded into results —
	// timing is reporting-only, results stay bit-identical.
	secs float64
}

// errSkipped marks jobs short-circuited after another job failed; the
// grid scan in runParallel replaces it with the underlying failure.
var errSkipped = fmt.Errorf("experiment: run skipped after earlier failure")

// runParallel fans the grid out over workers goroutines. The calling
// goroutine aggregates points — and fires OnPoint — in the sequential
// order as soon as each point's runs have all finished, folding run
// results in run order so floating-point accumulation matches the
// sequential path bit for bit.
func runParallel(sw Sweep, shared *contact.Schedule, workers int) (*Result, error) {
	nP, nL := len(sw.Protocols), len(sw.Loads)
	outcomes := make([][][]runOutcome, nP)
	pending := make([][]sync.WaitGroup, nP)
	for pi := 0; pi < nP; pi++ {
		outcomes[pi] = make([][]runOutcome, nL)
		pending[pi] = make([]sync.WaitGroup, nL)
		for li := 0; li < nL; li++ {
			outcomes[pi][li] = make([]runOutcome, sw.Runs)
			pending[pi][li].Add(sw.Runs)
		}
	}

	jobs := make(chan job)
	abort := make(chan struct{})
	// window bounds how many points may be in flight (dispatched but not
	// yet folded): without it, one straggler run in an early point lets
	// the pool complete the entire remaining grid while the in-order
	// aggregator is blocked, holding every run's Result live at once.
	window := make(chan struct{}, workers+4)
	var failed atomic.Bool
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range jobs {
				if failed.Load() {
					outcomes[j.pi][j.li][j.run] = runOutcome{err: errSkipped}
				} else {
					out := runOne(sw, shared, sw.Protocols[j.pi], sw.Loads[j.li], j.run)
					if out.err != nil {
						failed.Store(true)
					}
					outcomes[j.pi][j.li][j.run] = out
				}
				pending[j.pi][j.li].Done()
			}
		}()
	}
	go func() {
		defer close(jobs)
		for pi := 0; pi < nP; pi++ {
			for li := 0; li < nL; li++ {
				select {
				case window <- struct{}{}:
				case <-abort:
					return
				}
				for run := 0; run < sw.Runs; run++ {
					jobs <- job{pi, li, run}
				}
			}
		}
	}()

	res := &Result{Scenario: sw.Scenario.Name, Loads: sw.Loads}
	for pi := 0; pi < nP; pi++ {
		series := Series{Label: sw.Protocols[pi].Label}
		for li := 0; li < nL; li++ {
			pending[pi][li].Wait()
			pt, err := aggregatePoint(sw, sw.Loads[li], outcomes[pi][li])
			if err != nil {
				// Short-circuit the rest of the grid, wait it out, then
				// report a concrete run failure rather than a skip marker.
				failed.Store(true)
				close(abort)
				wg.Wait()
				return nil, firstFailure(outcomes)
			}
			outcomes[pi][li] = nil // release the point's run results once folded
			series.Points = append(series.Points, pt)
			if sw.OnPoint != nil {
				sw.OnPoint(sw.Protocols[pi].Label, sw.Loads[li])
			}
			<-window
		}
		res.Series = append(res.Series, series)
	}
	wg.Wait()
	return res, nil
}

// firstFailure returns the first non-skip error in grid order; skipped
// runs only exist when some run failed for real.
func firstFailure(outcomes [][][]runOutcome) error {
	var skip error
	for _, byLoad := range outcomes {
		for _, byRun := range byLoad {
			for _, out := range byRun {
				if out.err == nil {
					continue
				}
				if out.err != errSkipped {
					return out.err
				}
				skip = out.err
			}
		}
	}
	return skip
}

// runOne executes a single (protocol, load, run) simulation. Everything
// mutable — the contact source or per-run schedule, and always the
// protocol instance — is created here, per job, so jobs never share
// state across workers.
func runOne(sw Sweep, shared *contact.Schedule, pf ProtocolFactory, load, run int) runOutcome {
	seed := seedFor(sw.BaseSeed, load, run)
	cfg := core.Config{
		Protocol:  pf.New(),
		TxTime:    sw.Scenario.TxTime,
		BufferCap: sw.Scenario.BufferCap,
		Seed:      seed,
		// Run the full trace so occupancy and duplication are
		// steady-state time averages as in the paper; delay and
		// delivery ratio are unaffected (§IV end conditions).
		RunToHorizon: true,
		Bandwidth:    sw.Scenario.Bandwidth,
		BufferBytes:  sw.Scenario.BufferBytes,
		DropPolicy:   sw.Scenario.DropPolicy,
		ControlBytes: sw.Scenario.ControlBytes,
		Context:      sw.Context,
		Shards:       sw.Shards,
	}
	var nodes int
	switch {
	case sw.Scenario.Stream != nil:
		// Fixed-mobility scenarios stream from the base seed: same
		// contacts every run, regenerated lazily instead of retained.
		streamSeed := seed
		if !sw.Scenario.PerRunSchedule {
			streamSeed = sw.BaseSeed
		}
		src, err := sw.Scenario.Stream(streamSeed)
		if err != nil {
			return runOutcome{err: fmt.Errorf("experiment: %s run source: %w", sw.Scenario.Name, err)}
		}
		cfg.Source = src
		nodes = src.Nodes()
	case sw.Scenario.PerRunSchedule:
		s, err := sw.Scenario.Generate(seed)
		if err != nil {
			return runOutcome{err: fmt.Errorf("experiment: %s run schedule: %w", sw.Scenario.Name, err)}
		}
		cfg.Schedule = s
		nodes = s.Nodes
	default:
		cfg.Schedule = shared
		nodes = shared.Nodes
	}
	if nodes < 2 {
		return runOutcome{err: fmt.Errorf("experiment: %s schedule has %d node(s); need at least 2 for a source/destination pair",
			sw.Scenario.Name, nodes)}
	}
	// The pair depends only on the run index so every load point
	// compares the same set of source/destination pairs, keeping
	// curves comparable along the load axis (§IV re-randomizes the
	// pair per run).
	src, dst := pickPair(nodes, seedFor(sw.BaseSeed, 0, run))
	cfg.Flows = []core.Flow{{Src: src, Dst: dst, Count: load, Size: sw.Scenario.BundleSize}}
	r, err := core.Run(cfg)
	if err != nil {
		return runOutcome{err: fmt.Errorf("experiment: %s/%s load %d: %w", sw.Scenario.Name, pf.Label, load, err)}
	}
	return runOutcome{res: r}
}

// aggregatePoint folds one point's run results, in run order, into the
// per-metric Welford accumulators and builds the averaged Point.
func aggregatePoint(sw Sweep, load int, outcomes []runOutcome) (Point, error) {
	acc := make(map[Metric]*stats.Welford, len(sw.Metrics))
	for _, m := range sw.Metrics {
		acc[m] = &stats.Welford{}
	}
	completed := 0
	for _, out := range outcomes {
		if out.err != nil {
			return Point{}, out.err
		}
		r := out.res
		if r.Completed {
			completed++
		}
		for _, m := range sw.Metrics {
			switch m {
			case MetricDelay:
				if r.Completed {
					acc[m].Add(r.Makespan)
				}
			case MetricDelivery:
				acc[m].Add(r.DeliveryRatio)
			case MetricOccupancy:
				acc[m].Add(r.MeanOccupancy)
			case MetricDuplication:
				acc[m].Add(r.MeanDuplication)
			case MetricOverhead:
				acc[m].Add(float64(r.ControlRecords))
			default:
				return Point{}, fmt.Errorf("experiment: unknown metric %q", m)
			}
		}
	}
	pt := Point{Load: load, Values: make(map[Metric]float64, len(sw.Metrics)), Completed: completed, Runs: sw.Runs}
	for _, m := range sw.Metrics {
		if m == MetricDelay && acc[m].N() == 0 {
			pt.Values[m] = math.NaN()
			continue
		}
		pt.Values[m] = acc[m].Mean()
	}
	return pt, nil
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
