// Constrained sweeps: the resource axis the finite-bandwidth contact
// model opens (DESIGN.md §9). The paper's experiments treat every
// contact as an infinite-bandwidth instant exchange and every bundle as
// size-zero; with sized bundles, per-contact byte budgets and buffer
// byte capacities in the engine, the interesting questions become how
// delivery, delay and drops respond to link bandwidth at a fixed load
// (Chen et al.'s buffer-occupancy/delivery-reliability tradeoff) and
// how the drop policy shifts that tradeoff (drop-tail versus
// drop-oldest versus random, as DTN stacks like ns-3's must choose).

package experiment

import (
	"fmt"
	"math"

	"dtnsim/internal/buffer"
	"dtnsim/internal/core"
	"dtnsim/internal/stats"
)

// ConstrainedSweep sweeps contact bandwidth at a fixed load: one flow
// of Load sized bundles between a random pair, simulated at each
// bandwidth for every (protocol, drop policy) series.
type ConstrainedSweep struct {
	Name string
	// Scenario is the mobility substrate; its own resource knobs are
	// ignored — the sweep supplies them per point.
	Scenario Scenario
	// Bandwidths is the bytes/sec axis, ascending.
	Bandwidths []float64
	// Protocols under test.
	Protocols []ProtocolFactory
	// DropPolicies are compared as separate series per protocol;
	// empty means just the default droptail.
	DropPolicies []string
	// Load is the bundles per flow; defaults to 30.
	Load int
	// BundleSize is the payload bytes per bundle; defaults to 1 MB
	// (the paper speaks of bundles of hundreds of megabytes; 1 MB at
	// the default 100 s slot keeps the byte and slot budgets
	// commensurate).
	BundleSize int64
	// BufferBytes is the per-node byte capacity; defaults to
	// 5×BundleSize — deliberately below the 10-slot capacity's worth,
	// so byte pressure (not the slot count) is the binding constraint
	// and the drop policies differentiate.
	BufferBytes int64
	// Runs per point; defaults to 3.
	Runs int
	// BaseSeed anchors all derived randomness.
	BaseSeed uint64
	// Workers bounds concurrent runs (0 = GOMAXPROCS). Results are
	// bit-identical for every value: seeds derive from (BaseSeed,
	// point, run) and points fold in run order.
	Workers int
	// OnPoint, if set, reports progress after each (series, bandwidth)
	// point, from the calling goroutine in sweep order.
	OnPoint func(label string, bw float64)
}

// ConstrainedPoint is one averaged (series, bandwidth) measurement.
type ConstrainedPoint struct {
	Bandwidth float64
	// Delivery is the mean delivery ratio; Delay the mean per-bundle
	// delivery delay over runs that delivered anything (NaN when none
	// did); Drops the mean buffer-policy drops per run (refusals,
	// evictions, TTL expiries and byte-pressure drops combined);
	// ByteDropped and Refused split out the two drop kinds the byte
	// capacity drives.
	Delivery, Delay, Drops, ByteDropped, Refused float64
	// Completed counts runs that delivered every bundle.
	Completed int
	Runs      int
}

// ConstrainedSeries is one (protocol, drop policy) curve across
// bandwidths.
type ConstrainedSeries struct {
	Label    string
	Protocol string
	Policy   string
	Points   []ConstrainedPoint
}

// ConstrainedResult is a finished constrained sweep.
type ConstrainedResult struct {
	Name       string
	Bandwidths []float64
	Series     []ConstrainedSeries
}

// DefaultConstrainedSweep is the constrained experiment the figures CLI
// runs (`figures -only constrained`): pure epidemic and epidemic-with-
// TTL over the Cambridge trace, 1 MB bundles at load 30, bandwidths
// from starved (a 100 s contact carries a fraction of a bundle) to
// effectively unconstrained, under all three drop policies.
func DefaultConstrainedSweep() ConstrainedSweep {
	return ConstrainedSweep{
		Name:         "constrained",
		Scenario:     TraceScenario(),
		Bandwidths:   []float64{1e3, 3e3, 1e4, 3e4, 1e5},
		Protocols:    []ProtocolFactory{Pure(), TTL300()},
		DropPolicies: buffer.DropPolicyNames(),
	}
}

// RunConstrained executes the sweep: delivery/delay/drops versus
// bandwidth at fixed load, with one series per (protocol, drop policy).
func RunConstrained(sw ConstrainedSweep) (*ConstrainedResult, error) {
	if len(sw.Bandwidths) == 0 {
		return nil, fmt.Errorf("experiment: constrained sweep has no bandwidths")
	}
	for _, bw := range sw.Bandwidths {
		if !(bw > 0) || math.IsInf(bw, 0) {
			return nil, fmt.Errorf("experiment: constrained sweep bandwidth %v must be positive and finite", bw)
		}
	}
	if len(sw.Protocols) == 0 {
		return nil, fmt.Errorf("experiment: constrained sweep has no protocols")
	}
	if len(sw.DropPolicies) == 0 {
		sw.DropPolicies = []string{buffer.DefaultDropPolicy}
	}
	for _, p := range sw.DropPolicies {
		if !buffer.ValidDropPolicy(p) {
			return nil, fmt.Errorf("experiment: unknown drop policy %q", p)
		}
	}
	if sw.Load <= 0 {
		sw.Load = 30
	}
	if sw.BundleSize <= 0 {
		sw.BundleSize = 1 << 20
	}
	if sw.BufferBytes <= 0 {
		sw.BufferBytes = 5 * sw.BundleSize
	}
	if sw.Runs <= 0 {
		sw.Runs = 3
	}

	// One series per (protocol, policy); a single policy keeps the
	// plain protocol label so the output matches the other sweeps.
	res := &ConstrainedResult{Name: sw.Name, Bandwidths: sw.Bandwidths}
	for _, pf := range sw.Protocols {
		for _, policy := range sw.DropPolicies {
			label := pf.Label
			if len(sw.DropPolicies) > 1 {
				label += " / " + policy
			}
			res.Series = append(res.Series, ConstrainedSeries{Label: label, Protocol: pf.Label, Policy: policy})
		}
	}
	// Seeds depend only on (BaseSeed, bandwidth index, run) — like the
	// load sweep's (load, run) — so every series compares the same
	// mobility and pair draws at each point.
	err := runGrid(len(res.Series), len(sw.Bandwidths), sw.Runs, sw.Workers,
		func(w *core.Runner, si, bi, run int) runOutcome {
			nD := len(sw.DropPolicies)
			pf, bw := sw.Protocols[si/nD], sw.Bandwidths[bi]
			r, err := sw.Scenario.simulate(w, core.Config{
				Protocol:    pf.New(),
				Bandwidth:   bw,
				BufferBytes: sw.BufferBytes,
				DropPolicy:  sw.DropPolicies[si%nD],
			}, core.Flow{Count: sw.Load, Size: sw.BundleSize}, sw.BaseSeed, bi+1, run)
			if err != nil {
				err = fmt.Errorf("experiment: constrained %s/%s bw %g: %w", sw.Scenario.Name, pf.Label, bw, err)
			}
			return runOutcome{res: r, err: err}
		},
		func(si, bi int, outs []runOutcome) {
			var delivery, delay, drops, byteDropped, refused stats.Welford
			completed := 0
			for _, out := range outs {
				r := out.res
				if r.Completed {
					completed++
				}
				delivery.Add(r.DeliveryRatio)
				drops.Add(float64(r.Refused + r.Evicted + r.Expired + r.ByteDropped))
				byteDropped.Add(float64(r.ByteDropped))
				refused.Add(float64(r.Refused))
				if r.Delivered > 0 {
					delay.Add(r.MeanDelay)
				}
			}
			pt := ConstrainedPoint{
				Bandwidth:   sw.Bandwidths[bi],
				Delivery:    delivery.Mean(),
				Delay:       math.NaN(),
				Drops:       drops.Mean(),
				ByteDropped: byteDropped.Mean(),
				Refused:     refused.Mean(),
				Completed:   completed,
				Runs:        sw.Runs,
			}
			if delay.N() > 0 {
				pt.Delay = delay.Mean()
			}
			s := &res.Series[si]
			s.Points = append(s.Points, pt)
			if sw.OnPoint != nil {
				sw.OnPoint(s.Label, pt.Bandwidth)
			}
		})
	if err != nil {
		return nil, err
	}
	return res, nil
}
