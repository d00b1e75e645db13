// Scale sweeps: the node-count axis the streaming contact pipeline
// opens. The paper's experiments stop at 96 nodes because a
// materialized contact plan is O(#contacts) memory and the classic-RWP
// detector O(nodes²) time; with mobility resolved to streaming sources
// (grid-indexed detection, O(nodes) working set) the same engine runs
// thousands of nodes, and the interesting question becomes how delivery
// ratio, delay and buffer occupancy scale with population (Rashidi et
// al.; Chen & Choon Chuah).

package experiment

import (
	"fmt"
	"math"
	"strconv"

	"dtnsim/internal/core"
	"dtnsim/internal/stats"
)

// ScaleSweep sweeps population size instead of load: one flow of Load
// bundles between a random pair, simulated at each node count over
// mobility resolved per run through a streaming source.
type ScaleSweep struct {
	Name string
	// Nodes is the population axis, e.g. 1000, 5000, 10000.
	Nodes []int
	// Mobility maps a population size to a mobility spec. Defaults to
	// ScaleMobility.
	Mobility func(nodes int) string
	// Protocols under test.
	Protocols []ProtocolFactory
	// Load is the bundles per flow; defaults to 30.
	Load int
	// Runs per point; defaults to 3.
	Runs int
	// Span overrides the simulated window (seconds) of the default
	// ScaleMobility mapping; 0 keeps the standard 50,000 s. A reduced
	// span is how the CI smoke and the 100k-node cell stay inside a
	// time budget without changing the constant-density geometry.
	// Ignored when Mobility is set explicitly.
	Span float64
	// BaseSeed anchors all derived randomness.
	BaseSeed uint64
	// Workers bounds concurrent runs (0 = GOMAXPROCS). Results are
	// bit-identical for every value: seeds derive from (BaseSeed,
	// nodes, run) and points fold in run order.
	Workers int
	// OnPoint, if set, reports progress after each (protocol, nodes)
	// point, from the calling goroutine in sweep order.
	OnPoint func(label string, nodes int)
}

// ScalePoint is one averaged (protocol, nodes) measurement.
type ScalePoint struct {
	Nodes int
	// Delivery is the mean delivery ratio, Delay the mean per-bundle
	// delivery delay over runs that delivered anything (NaN when none
	// did), Occupancy the mean buffer occupancy level.
	Delivery, Delay, Occupancy float64
	// Completed counts runs that delivered every bundle.
	Completed int
	Runs      int
}

// ScaleSeries is one protocol's curve across populations.
type ScaleSeries struct {
	Label  string
	Points []ScalePoint
}

// ScaleResult is a finished scale sweep.
type ScaleResult struct {
	Name   string
	Nodes  []int
	Series []ScaleSeries
}

// ScaleMobility is the default population→spec mapping: classic RWP at
// constant density (25 nodes/km², 100 m radio range), area side scaled
// with √nodes, a 50,000 s window sampled every 25 s. Density constant
// means per-node contact opportunity is roughly constant while the
// source→destination distance grows with the area — the regime where
// delivery ratio and delay degrade with N.
func ScaleMobility(nodes int) string {
	return ScaleMobilitySpan(nodes, 50000)
}

// ScaleMobilitySpan is ScaleMobility with an explicit simulated window:
// the same constant-density geometry over span seconds. Shorter spans
// keep huge populations (the 100k-node cell) and CI smoke runs inside a
// wall-clock budget. The span is spelled exactly, so a fractional one
// never rounds to 0, which the rwp model reads as its default window.
func ScaleMobilitySpan(nodes int, span float64) string {
	side := 1000 * math.Sqrt(float64(nodes)/25)
	return fmt.Sprintf("rwp:nodes=%d,area=%.0f,span=%s,range=100,dt=25",
		nodes, side, strconv.FormatFloat(span, 'f', -1, 64))
}

// DefaultScaleSweep is the scale experiment the figures CLI runs: pure
// epidemic and epidemic-with-TTL at 1k/5k/10k nodes.
func DefaultScaleSweep() ScaleSweep {
	return ScaleSweep{
		Name:      "scale",
		Nodes:     []int{1000, 5000, 10000},
		Protocols: []ProtocolFactory{Pure(), TTL300()},
	}
}

// RunScale executes the sweep on the shared grid runner (grid.go).
// Every run resolves its mobility spec to a streaming source, so
// contact-plan memory stays O(nodes) even at the populations a
// materialized schedule could not hold; the runner's in-flight window
// keeps the finished Results of a 100k-node grid from piling up behind
// a straggler.
func RunScale(sw ScaleSweep) (*ScaleResult, error) {
	if len(sw.Nodes) == 0 {
		return nil, fmt.Errorf("experiment: scale sweep has no node counts")
	}
	if len(sw.Protocols) == 0 {
		return nil, fmt.Errorf("experiment: scale sweep has no protocols")
	}
	if sw.Mobility == nil {
		span := sw.Span
		if span <= 0 {
			span = 50000
		}
		sw.Mobility = func(nodes int) string { return ScaleMobilitySpan(nodes, span) }
	}
	if sw.Load <= 0 {
		sw.Load = 30
	}
	if sw.Runs <= 0 {
		sw.Runs = 3
	}

	res := &ScaleResult{Name: sw.Name, Nodes: sw.Nodes}
	for _, pf := range sw.Protocols {
		res.Series = append(res.Series, ScaleSeries{Label: pf.Label})
	}
	err := runGrid(len(sw.Protocols), len(sw.Nodes), sw.Runs, sw.Workers,
		func(w *gridWorker, pi, ni, run int) runOutcome {
			pf, nodes := sw.Protocols[pi], sw.Nodes[ni]
			// One scenario per run requests its plan once (TestSweepSeedingRule),
			// so it streams the registry source and retains nothing.
			sc, err := streamedScenario(sw.Mobility(nodes))
			if err != nil {
				return runOutcome{err: fmt.Errorf("experiment: scale mobility for %d nodes: %w", nodes, err)}
			}
			res, err := sc.simulate(w, core.Config{Protocol: pf.New()},
				core.Flow{Count: sw.Load}, sw.BaseSeed, nodes, run)
			if err != nil {
				return runOutcome{err: fmt.Errorf("experiment: scale %s at %d nodes: %w", pf.Label, nodes, err)}
			}
			return runOutcome{res: res}
		},
		func(pi, ni int, outs []runOutcome) {
			var delivery, delay, occupancy stats.Welford
			completed := 0
			for _, out := range outs {
				r := out.res
				if r.Completed {
					completed++
				}
				delivery.Add(r.DeliveryRatio)
				occupancy.Add(r.MeanOccupancy)
				if r.Delivered > 0 {
					delay.Add(r.MeanDelay)
				}
			}
			pt := ScalePoint{
				Nodes:     sw.Nodes[ni],
				Delivery:  delivery.Mean(),
				Occupancy: occupancy.Mean(),
				Delay:     math.NaN(),
				Completed: completed,
				Runs:      sw.Runs,
			}
			if delay.N() > 0 {
				pt.Delay = delay.Mean()
			}
			s := &res.Series[pi]
			s.Points = append(s.Points, pt)
			if sw.OnPoint != nil {
				sw.OnPoint(s.Label, pt.Nodes)
			}
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}
