package dtnsim

import (
	"dtnsim/internal/buffer"
	"dtnsim/internal/experiment"
	"dtnsim/internal/report"
)

// Experiment-harness types, re-exported so downstream users can define
// their own sweeps and render them like the paper's figures.
type (
	// Sweep is an experiment specification: by default a load sweep
	// (§IV: loads 5..50 step 5, ten seeded runs per point), or a
	// bandwidth or population sweep (SweepAxis). Its (series, axis
	// value, run) grid executes on a worker pool bounded by
	// Sweep.Workers (0 = all CPUs, 1 = sequential) with bit-identical
	// results for every worker count.
	Sweep = experiment.Sweep
	// SweepAxis is what a sweep varies: load (its zero value), contact
	// bandwidth or population.
	SweepAxis = experiment.Axis
	// SweepResult is a finished sweep: one Series per protocol (times
	// drop policy).
	SweepResult = experiment.Result
	// Series is one (protocol, drop policy) curve along the axis.
	Series = experiment.Series
	// Point is one averaged (series, axis value) measurement.
	Point = experiment.Point
	// Metric selects a measurement: delay, delivery, occupancy,
	// duplication or overhead.
	Metric = experiment.Metric
	// Figure is one of the paper's figures as a runnable experiment.
	Figure = experiment.Figure
	// ProtocolFactory builds a fresh protocol instance per run.
	ProtocolFactory = experiment.ProtocolFactory
	// ExperimentScenario produces mobility input for sweep runs.
	ExperimentScenario = experiment.Scenario
	// TableIIRow is one row of the paper's closing comparison table.
	TableIIRow = experiment.TableIIRow
	// ResultTable is a rendered metric table (CSV / ASCII / plot).
	ResultTable = report.Table
)

// The paper's metrics (§IV) plus the §V-C signaling-overhead count.
const (
	MetricDelay       = experiment.MetricDelay
	MetricDelivery    = experiment.MetricDelivery
	MetricOccupancy   = experiment.MetricOccupancy
	MetricDuplication = experiment.MetricDuplication
	MetricOverhead    = experiment.MetricOverhead
)

// Measures outside AllMetrics that the bandwidth and population sweeps
// fold when a sweep lists them.
const (
	MetricMeanDelay   = experiment.MetricMeanDelay
	MetricDrops       = experiment.MetricDrops
	MetricByteDropped = experiment.MetricByteDropped
	MetricRefused     = experiment.MetricRefused
)

// The sweep axes: Sweep.Loads (the zero value), SweepAxis.Bandwidths
// and SweepAxis.Nodes.
const (
	AxisLoad       = experiment.AxisLoad
	AxisBandwidth  = experiment.AxisBandwidth
	AxisPopulation = experiment.AxisPopulation
)

// Figures returns every reproducible experiment (Fig. 7–20 plus the
// §V-C overhead comparison) in paper order.
func Figures() []Figure { return experiment.Figures() }

// Ablations returns the §IV parameter sweeps (constant-TTL values, P=Q
// values) and enhancement-parameter sensitivity experiments.
func Ablations() []Figure { return experiment.Ablations() }

// AllExperiments returns Figures followed by Ablations.
func AllExperiments() []Figure { return experiment.AllExperiments() }

// FigureByID looks up one experiment ("fig07" … "fig20", "overhead",
// "ttlsweep", "pqsweep", "dynmult", "ecthresh").
func FigureByID(id string) (Figure, error) { return experiment.FigureByID(id) }

// RunSweep executes a sweep along any axis.
func RunSweep(s Sweep) (*SweepResult, error) { return experiment.Run(s) }

// Fig14Pair returns the two controlled-interval sweeps behind Fig. 14
// (max inter-encounter interval 400 s versus 2000 s).
func Fig14Pair() (short, long Sweep) { return experiment.Fig14Pair() }

// TableII computes the paper's Table II: load-averaged delivery rate,
// buffer occupancy and duplication rate for the six §V-B protocols under
// both mobility sources. workers bounds the worker pool as
// Sweep.Workers does: 0 means GOMAXPROCS(0), 1 runs sequentially.
// Results are identical for every worker count.
func TableII(baseSeed uint64, runs, workers int) ([]TableIIRow, error) {
	return experiment.TableII(baseSeed, runs, workers)
}

// RenderTableII renders Table II rows in the paper's layout.
func RenderTableII(rows []TableIIRow) string { return report.TableIIText(rows) }

// TableOf extracts one metric from a sweep result as a renderable table.
func TableOf(r *SweepResult, m Metric, title string) *ResultTable {
	return report.FromResult(r, m, title)
}

// DefaultLoads is the paper's load axis: 5, 10, …, 50.
func DefaultLoads() []int { return experiment.DefaultLoads() }

// AllMetrics lists the five default metrics in the harness's canonical order.
func AllMetrics() []Metric { return experiment.AllMetrics() }

// DropPolicies lists the registered buffer drop-policy names usable in
// Config.DropPolicy, Scenario "drop" keys and Sweep.DropPolicies.
func DropPolicies() []string { return buffer.DropPolicyNames() }

// BandwidthSweep is the trace-based bandwidth sweep the figures CLI runs
// with -only constrained: delivery/delay/drops versus contact bandwidth
// for pure epidemic and TTL under all three drop policies.
func BandwidthSweep() Sweep { return experiment.BandwidthSweep() }

// PopulationSweep is the 1k/5k/10k-node classic-RWP scale experiment
// over span simulated seconds per run; every run streams its mobility,
// so contact-plan memory stays O(nodes) at any population.
func PopulationSweep(span float64) Sweep { return experiment.PopulationSweep(span) }

// ScaleMobility is the population axis's default nodes→mobility-spec
// mapping (constant-density classic RWP).
func ScaleMobility(nodes int) string { return experiment.ScaleMobility(nodes) }

// Standard scenarios and protocol factories for sweeps.

// TraceScenario is the trace-based setup (synthetic Cambridge trace,
// fixed across runs).
func TraceScenario() ExperimentScenario { return experiment.TraceScenario() }

// RWPScenario is the subscriber-point RWP setup (regenerated per run).
func RWPScenario() ExperimentScenario { return experiment.RWPScenario() }

// IntervalScenario is the Fig. 14 controlled-interval setup.
func IntervalScenario(maxInterval float64) ExperimentScenario {
	return experiment.IntervalScenario(maxInterval)
}
