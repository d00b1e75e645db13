package experiment

import (
	"reflect"
	"strings"
	"testing"
)

// smallConstrained is a fast two-bandwidth, one-protocol bandwidth
// sweep over the fixed Cambridge trace, with BandwidthSweep's 1 MB
// bundles and 5 MB buffers.
func smallConstrained() Sweep {
	sw := BandwidthSweep()
	sw.Axis.Bandwidths = []float64{1e3, 1e6}
	sw.Protocols = []ProtocolFactory{Pure()}
	sw.DropPolicies = nil
	sw.Loads = []int{30}
	sw.Runs = 2
	sw.BaseSeed = 2012
	return sw
}

// TestRunConstrainedStructure: a bandwidth sweep has one series per
// (protocol, drop policy), labelled with the policy when there are
// several, and one point per bandwidth, in axis order.
func TestRunConstrainedStructure(t *testing.T) {
	sw := smallConstrained()
	sw.DropPolicies = []string{"droptail", "dropfront"}
	var keys []int
	sw.OnPoint = func(_ string, key int) { keys = append(keys, key) }
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d, want 2 (1 protocol x 2 policies)", len(res.Series))
	}
	if !reflect.DeepEqual(res.Axis.Bandwidths, sw.Axis.Bandwidths) {
		t.Errorf("result axis %v, want %v", res.Axis.Bandwidths, sw.Axis.Bandwidths)
	}
	if want := []int{1, 1, 2, 2}; !reflect.DeepEqual(keys, want) {
		t.Errorf("OnPoint keys %v, want the 1-based bandwidth indices %v", keys, want)
	}
	for si, s := range res.Series {
		if !strings.Contains(s.Label, "/") {
			t.Errorf("multi-policy series label %q should carry the policy", s.Label)
		}
		if s.Protocol != "Pure epidemic" || s.Policy != sw.DropPolicies[si] {
			t.Errorf("series %q: protocol %q, policy %q", s.Label, s.Protocol, s.Policy)
		}
		if len(s.Points) != len(sw.Axis.Bandwidths) {
			t.Fatalf("series %q has %d points, want %d", s.Label, len(s.Points), len(sw.Axis.Bandwidths))
		}
		for _, p := range s.Points {
			if d := p.Values[MetricDelivery]; d < 0 || d > 1 {
				t.Errorf("delivery %v out of range", d)
			}
			if p.Runs != sw.Runs || p.Load != 30 {
				t.Errorf("point records %d runs at load %d, want %d at 30", p.Runs, p.Load, sw.Runs)
			}
		}
	}
}

// TestConstrainedBandwidthBinds: the starved point must deliver less
// than the effectively-unconstrained one, and the unconstrained one
// must see at least as many buffer drops (a starved link injects too
// few copies to create buffer pressure) — the tradeoff the sweep
// exists to expose.
func TestConstrainedBandwidthBinds(t *testing.T) {
	res, err := Run(smallConstrained())
	if err != nil {
		t.Fatal(err)
	}
	pts := res.Series[0].Points
	starved, free := pts[0].Values, pts[len(pts)-1].Values
	if !(starved[MetricDelivery] < free[MetricDelivery]) {
		t.Errorf("delivery at 1 kB/s (%v) should be below delivery at 1 MB/s (%v)",
			starved[MetricDelivery], free[MetricDelivery])
	}
	if free[MetricDrops] < starved[MetricDrops] {
		t.Errorf("drops at 1 MB/s (%v) should not be below drops at 1 kB/s (%v)",
			free[MetricDrops], starved[MetricDrops])
	}
}

func TestRunConstrainedDeterministicAcrossWorkers(t *testing.T) {
	seq := smallConstrained()
	seq.Workers = 1
	par := smallConstrained()
	par.Workers = 4
	a, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(a, b) {
		t.Fatalf("workers changed the result:\n1: %+v\n4: %+v", a, b)
	}
}

func TestRunConstrainedErrors(t *testing.T) {
	cases := []struct {
		name   string
		mutate func(*Sweep)
	}{
		{"no bandwidths", func(s *Sweep) { s.Axis.Bandwidths = nil }},
		{"negative bandwidth", func(s *Sweep) { s.Axis.Bandwidths = []float64{-1} }},
		{"zero bandwidth", func(s *Sweep) { s.Axis.Bandwidths = []float64{0} }},
		{"no protocols", func(s *Sweep) { s.Protocols = nil }},
		{"bad policy", func(s *Sweep) { s.DropPolicies = []string{"nosuch"} }},
		{"no generator", func(s *Sweep) { s.Scenario = Scenario{Name: "empty"} }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			sw := smallConstrained()
			tc.mutate(&sw)
			if _, err := Run(sw); err == nil {
				t.Fatal("expected an error")
			}
		})
	}
}

// TestDefaultConstrainedSweepRunsReduced: BandwidthSweep, the figures
// CLI's constrained experiment, runs at one run and one bandwidth.
func TestDefaultConstrainedSweepRunsReduced(t *testing.T) {
	if testing.Short() {
		t.Skip("full default constrained sweep is slow")
	}
	sw := BandwidthSweep()
	sw.Runs = 1
	sw.Axis.Bandwidths = []float64{1e4}
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	// 2 protocols x 3 registered policies.
	if len(res.Series) != 6 {
		t.Fatalf("default sweep produced %d series, want 6", len(res.Series))
	}
}
