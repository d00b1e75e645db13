// Package experiment is the paper's evaluation harness (§IV–V): it
// sweeps bundle load k = 5..50 in steps of 5, runs each point several
// times with fresh seeds and a fresh random source/destination pair,
// averages the four metrics, and exposes each of the paper's figures and
// tables as a ready-to-run specification.
//
// One Sweep type and one Run serve every axis — load (the zero Axis),
// contact bandwidth and population. Run executes the (series, axis
// value, run) grid on the one bounded worker pool in grid.go, sized by
// Sweep.Workers (default runtime.GOMAXPROCS(0)); every run's seed
// derives only from (BaseSeed, axis key, run), so parallel and
// sequential execution produce bit-identical results.
package experiment

import (
	"cmp"
	"context"
	"fmt"
	"math"
	"slices"

	"dtnsim/internal/buffer"
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

// Measures outside AllMetrics that the bandwidth and population
// experiments fold. MetricMeanDelay, like MetricDelay, is NaN when no
// run contributes.
const (
	MetricMeanDelay   Metric = "mean_delay"   // mean per-bundle delay over runs that delivered anything
	MetricDrops       Metric = "drops"        // refusals, evictions, expiries and byte-pressure drops
	MetricByteDropped Metric = "byte_dropped" // copies shed under byte pressure
	MetricRefused     Metric = "refused"      // copies refused on arrival
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
	// over a fixed plan. ScenarioFromSpec's Stream replays (replay.go):
	// a sweep's protocol series share their seeds, so Run tells the
	// scenario which seeds its runs read more than once, and each such
	// plan is recorded while its first run streams it and replayed to
	// every later request. One helper goroutine beside the runs
	// generates the next such plan while the current point's runs read
	// the one before, as classic RWP's helpers generate its steps. A plan
	// is freed once its last reader has it, so live plans are bounded by
	// the grid's in-flight points; one plan allocates at most 1<<17
	// contact slots (~5 MiB), and its contacts fill between half and all
	// of its slots. Everything else streams per use, so runs otherwise
	// hold O(nodes) of mobility state. Must be safe for concurrent calls —
	// sweeps with Workers > 1 invoke it from several goroutines; the
	// sources it returns are per-run and single-use.
	Stream func(seed uint64) (contact.Source, error)
	// memo is the replay behind a spec-built Stream, kept apart so that
	// Run can hand it its schedule even when a caller wraps Stream.
	memo *replay
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

// AxisKind names what a sweep varies from point to point.
type AxisKind uint8

// The sweep axes. Each keys its runs' seeds by its own value: the
// load, the 1-based bandwidth index, the node count.
const (
	AxisLoad       AxisKind = iota // Sweep.Loads
	AxisBandwidth                  // Axis.Bandwidths at the sweep's one load
	AxisPopulation                 // Axis.Nodes at the sweep's one load
)

// Axis is a sweep's x axis. The zero value is the load axis.
type Axis struct {
	Kind AxisKind
	// Bandwidths are the bandwidth axis's contact bandwidths in
	// bytes/s, each positive and finite; every point replaces
	// Scenario.Bandwidth with its own. Bandwidth binds only sized
	// bundles (Scenario.BundleSize).
	Bandwidths []float64
	// Nodes are the population axis's node counts, each at least 2.
	// Every run resolves Mobility(nodes) to a fresh scenario that
	// streams the registry's source and retains nothing, so a run holds
	// O(nodes) of mobility state at any population; that scenario
	// replaces Sweep.Scenario's mobility, TxTime and BufferCap, and the
	// resource knobs still apply. Mobility defaults to ScaleMobility.
	Nodes    []int
	Mobility func(nodes int) string
}

// Sweep is one experiment specification: every protocol (times every
// drop policy) is a series, every axis value a point.
type Sweep struct {
	Scenario  Scenario
	Protocols []ProtocolFactory
	// Loads is the load axis, defaulting to 5,10,…,50 (§IV). The
	// bandwidth and population axes run every point at one load, which
	// Loads holds; it defaults to 30. A load below 1 is refused.
	Loads []int
	// Axis is what varies from point to point; its zero value is Loads.
	Axis Axis
	// DropPolicies, when set, are compared as separate series per
	// protocol, each replacing Scenario.DropPolicy; with more than one,
	// a series is labelled "<protocol> / <policy>".
	DropPolicies []string
	// Runs per point; 0 means the paper's 10, a negative count is
	// refused.
	Runs int
	// BaseSeed anchors all derived randomness.
	BaseSeed uint64
	// Metrics to collect; defaults to AllMetrics. The other measures
	// (MetricMeanDelay, MetricDrops, …) are folded only when listed.
	Metrics []Metric
	// OnPoint, if set, is called after each (series, axis value) point
	// for progress reporting with the point's axis key: the load, the
	// 1-based bandwidth index or the node count. Regardless of Workers
	// it is invoked from the goroutine that called Run, point-major:
	// every series at the first axis value, then every series at the
	// next.
	OnPoint func(label string, key int)
	// Workers bounds the number of runs simulated concurrently. Zero
	// means runtime.GOMAXPROCS(0); 1 runs the grid's runs one at a time,
	// in order, though a spec-built scenario may generate its next
	// shared plan on one helper goroutine beside them (Scenario.Stream);
	// a negative count fails the sweep. Results are bit-identical for
	// every value: each run's seed depends only on (BaseSeed, axis key,
	// run), and per-point averages are folded in run order after
	// collection.
	Workers int
	// Context, when non-nil, cancels the sweep: it is threaded into
	// every run's engine loop (core.Config.Context), so a cancel or
	// deadline aborts in-flight simulations mid-event-stream and Run
	// returns an error wrapping the context's. Like Workers it is an
	// execution knob with no effect on results while it stays alive.
	Context context.Context
}

// Point is one averaged (series, axis value) measurement.
type Point struct {
	// Load is the point's bundle count: its axis value on the load
	// axis, the sweep's one load on the others.
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

// Series is one (protocol, drop policy) curve along the axis.
type Series struct {
	Label string
	// Protocol is the protocol's label and Policy the series' drop
	// policy (Scenario.DropPolicy when the sweep lists none).
	Protocol, Policy string
	Points           []Point
}

// Result is a finished sweep. Every series' i-th point is at the
// axis's i-th value: Loads[i], Axis.Bandwidths[i] or Axis.Nodes[i].
type Result struct {
	Scenario string
	Loads    []int
	Axis     Axis
	Series   []Series
}

// DefaultLoads is the paper's load axis.
func DefaultLoads() []int { return []int{5, 10, 15, 20, 25, 30, 35, 40, 45, 50} }

// AllMetrics lists the five metrics a sweep collects by default: the
// paper's four and the §V-C overhead count.
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
// series per (protocol, drop policy) and one point per axis value; see
// Sweep.Workers for the determinism contract.
func Run(sw Sweep) (*Result, error) {
	points, err := sw.check()
	if err != nil {
		return nil, err
	}
	nD := len(sw.DropPolicies)
	res := &Result{Scenario: sw.Scenario.Name, Loads: sw.Loads, Axis: sw.Axis}
	for _, pf := range sw.Protocols {
		for _, policy := range sw.DropPolicies {
			label := pf.Label
			if nD > 1 {
				label += " / " + policy
			}
			res.Series = append(res.Series, Series{Label: label, Protocol: pf.Label, Policy: policy})
		}
	}
	if memo := sw.Scenario.memo; memo != nil && sw.Axis.Kind != AxisPopulation {
		// The population axis streams a scenario of its own per run.
		defer memo.schedule(sw.streamSeeds(points, len(res.Series)))()
	}
	err = runGrid(len(res.Series), points, sw.Runs, sw.Workers,
		func(w *gridWorker, si, j, run int) runOutcome {
			r, err := sw.run(w, sw.Protocols[si/nD], sw.DropPolicies[si%nD], j, run)
			return runOutcome{res: r, err: err}
		},
		func(si, j int, outs []runOutcome) {
			s := &res.Series[si]
			load, key := sw.point(j)
			s.Points = append(s.Points, aggregatePoint(&sw, load, outs))
			if sw.OnPoint != nil {
				sw.OnPoint(s.Label, key)
			}
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}

// check refuses what Run cannot honour and fills in the defaults; it
// returns the number of points along the axis.
func (sw *Sweep) check() (int, error) {
	if len(sw.Protocols) == 0 {
		return 0, fmt.Errorf("experiment: no protocols in sweep")
	}
	if sw.Runs < 0 {
		return 0, fmt.Errorf("experiment: negative runs %d (0 means the paper's 10)", sw.Runs)
	}
	sw.Runs = cmp.Or(sw.Runs, 10)
	if slices.ContainsFunc(sw.DropPolicies, func(p string) bool { return !buffer.ValidDropPolicy(p) }) {
		return 0, fmt.Errorf("experiment: unknown drop policy in %q", sw.DropPolicies)
	}
	if len(sw.DropPolicies) == 0 {
		sw.DropPolicies = []string{sw.Scenario.DropPolicy}
	}
	if len(sw.Metrics) == 0 {
		sw.Metrics = AllMetrics()
	}
	if i := slices.IndexFunc(sw.Metrics, func(m Metric) bool { return measures[m] == nil }); i >= 0 {
		return 0, fmt.Errorf("experiment: unknown metric %q", sw.Metrics[i])
	}
	if len(sw.Loads) == 0 && sw.Axis.Kind == AxisLoad {
		sw.Loads = DefaultLoads()
	} else if len(sw.Loads) == 0 {
		sw.Loads = []int{30}
	}
	if slices.Min(sw.Loads) < 1 {
		return 0, fmt.Errorf("experiment: loads %v are not all positive bundle counts", sw.Loads)
	}
	if sw.Axis.Kind != AxisLoad && len(sw.Loads) != 1 {
		return 0, fmt.Errorf("experiment: a bandwidth or population sweep runs one load, not %v", sw.Loads)
	}
	if slices.ContainsFunc(sw.Axis.Bandwidths, func(bw float64) bool { return !(bw > 0) || math.IsInf(bw, 0) }) {
		return 0, fmt.Errorf("experiment: bandwidths %v are not all positive and finite", sw.Axis.Bandwidths)
	}
	if slices.ContainsFunc(sw.Axis.Nodes, func(n int) bool { return n < 2 }) {
		return 0, fmt.Errorf("experiment: populations %v need at least 2 nodes each for a source/destination pair", sw.Axis.Nodes)
	}
	if sw.Axis.Kind == AxisPopulation && sw.Axis.Mobility == nil {
		sw.Axis.Mobility = ScaleMobility
	}
	// An unknown axis kind has no values either.
	points := [...]int{len(sw.Loads), len(sw.Axis.Bandwidths), len(sw.Axis.Nodes), 0}[min(sw.Axis.Kind, 3)]
	if points == 0 {
		return 0, fmt.Errorf("experiment: sweep axis %d is unknown or has no values", sw.Axis.Kind)
	}
	return points, nil
}

// point returns point j's load and the axis key its runs' seeds derive
// from: the load, the 1-based bandwidth index or the node count.
func (sw *Sweep) point(j int) (load, key int) {
	switch sw.Axis.Kind {
	case AxisBandwidth:
		return sw.Loads[0], j + 1
	case AxisPopulation:
		return sw.Loads[0], sw.Axis.Nodes[j]
	}
	return sw.Loads[j], sw.Loads[j]
}

// streamSeeds lists the stream seed of every run in runGrid's job order
// (point, run, series), by simulate's rule.
func (sw *Sweep) streamSeeds(points, series int) []uint64 {
	seeds := make([]uint64, 0, points*sw.Runs*series)
	for j := 0; j < points; j++ {
		_, key := sw.point(j)
		for run := 0; run < sw.Runs; run++ {
			seed := sw.BaseSeed
			if sw.Scenario.PerRunSchedule {
				seed = seedFor(sw.BaseSeed, key, run)
			}
			for range series {
				seeds = append(seeds, seed)
			}
		}
	}
	return seeds
}

// run builds and executes one run of point j of the (pf, policy)
// series: the scenario's resource knobs with the point's bandwidth, and
// on the population axis a scenario of its own (see Axis.Nodes).
func (sw *Sweep) run(w *gridWorker, pf ProtocolFactory, policy string, j, run int) (*core.Result, error) {
	sc := sw.Scenario
	load, key := sw.point(j)
	cfg := core.Config{Protocol: pf.New(), Bandwidth: sc.Bandwidth, BufferBytes: sc.BufferBytes,
		DropPolicy: policy, ControlBytes: sc.ControlBytes, Context: sw.Context}
	switch sw.Axis.Kind {
	case AxisBandwidth:
		cfg.Bandwidth = sw.Axis.Bandwidths[j]
	case AxisPopulation:
		// One scenario per run requests its plan once (TestSweepSeedingRule),
		// so it streams the registry source and retains nothing.
		var err error
		if sc, err = streamedScenario(sw.Axis.Mobility(key)); err != nil {
			return nil, fmt.Errorf("experiment: mobility for %d nodes: %w", key, err)
		}
	}
	r, err := sc.simulate(w, cfg, core.Flow{Count: load, Size: sw.Scenario.BundleSize}, sw.BaseSeed, key, run)
	if err != nil {
		return nil, fmt.Errorf("experiment: %s/%s at load %d, bandwidth %g, axis key %d: %w",
			sc.Name, pf.Label, load, cfg.Bandwidth, key, err)
	}
	return r, nil
}

// measures maps each metric to its value in one run, and whether the
// run counts toward it: the delays skip runs that delivered too little.
var measures = map[Metric]func(r *core.Result) (float64, bool){
	MetricDelay:       func(r *core.Result) (float64, bool) { return r.Makespan, r.Completed },
	MetricDelivery:    func(r *core.Result) (float64, bool) { return r.DeliveryRatio, true },
	MetricOccupancy:   func(r *core.Result) (float64, bool) { return r.MeanOccupancy, true },
	MetricDuplication: func(r *core.Result) (float64, bool) { return r.MeanDuplication, true },
	MetricOverhead:    func(r *core.Result) (float64, bool) { return float64(r.ControlRecords), true },
	MetricMeanDelay:   func(r *core.Result) (float64, bool) { return r.MeanDelay, r.Delivered > 0 },
	MetricDrops: func(r *core.Result) (float64, bool) {
		return float64(r.Refused + r.Evicted + r.Expired + r.ByteDropped), true
	},
	MetricByteDropped: func(r *core.Result) (float64, bool) { return float64(r.ByteDropped), true },
	MetricRefused:     func(r *core.Result) (float64, bool) { return float64(r.Refused), true },
}

// aggregatePoint folds one point's run results, in run order, into the
// per-metric Welford accumulators and builds the averaged Point. Run
// has already rejected metrics it does not know.
func aggregatePoint(sw *Sweep, load int, outcomes []runOutcome) Point {
	// acc[i] accumulates sw.Metrics[i]. A metric listed twice folds
	// into its first slot, twice per run, as one accumulator per metric
	// always did.
	acc := make([]stats.Welford, len(sw.Metrics))
	completed := 0
	for _, out := range outcomes {
		if out.res.Completed {
			completed++
		}
		for _, m := range sw.Metrics {
			if v, ok := measures[m](out.res); ok {
				acc[slices.Index(sw.Metrics, m)].Add(v)
			}
		}
	}
	pt := Point{Load: load, Values: make(map[Metric]float64, len(sw.Metrics)), Completed: completed, Runs: sw.Runs}
	for _, m := range sw.Metrics {
		// Only a delay skips runs, and it is NaN when every run did.
		pt.Values[m] = math.NaN()
		if a := &acc[slices.Index(sw.Metrics, m)]; a.N() > 0 {
			pt.Values[m] = a.Mean()
		}
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
