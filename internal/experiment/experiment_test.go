package experiment

import (
	"fmt"
	"math"
	"testing"

	"dtnsim/internal/contact"
)

func tinySweep() Sweep {
	return Sweep{
		Scenario:  TraceScenario(),
		Protocols: []ProtocolFactory{TTL300(), EC()},
		Loads:     []int{5, 15},
		Runs:      2,
		BaseSeed:  4,
	}
}

// materialize drains the scenario's mobility stream for seed into a
// Schedule.
func materialize(t *testing.T, sc Scenario, seed uint64) *contact.Schedule {
	t.Helper()
	src, err := sc.Stream(seed)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	s, err := contact.Materialize(src)
	if err != nil {
		t.Fatalf("%s: %v", sc.Name, err)
	}
	return s
}

func TestRunSweepStructure(t *testing.T) {
	res, err := Run(tinySweep())
	if err != nil {
		t.Fatal(err)
	}
	if res.Scenario != "trace" {
		t.Errorf("Scenario = %q", res.Scenario)
	}
	if len(res.Series) != 2 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 2 {
			t.Fatalf("%s: points = %d", s.Label, len(s.Points))
		}
		for i, p := range s.Points {
			if p.Load != res.Loads[i] {
				t.Errorf("%s point %d: load %d, want %d", s.Label, i, p.Load, res.Loads[i])
			}
			if p.Runs != 2 {
				t.Errorf("Runs = %d", p.Runs)
			}
			if p.Completed < 0 || p.Completed > p.Runs {
				t.Errorf("Completed = %d of %d", p.Completed, p.Runs)
			}
			for _, m := range AllMetrics() {
				v, ok := p.Values[m]
				if !ok {
					t.Fatalf("metric %s missing", m)
				}
				if m != MetricDelay && (math.IsNaN(v) || v < 0) {
					t.Errorf("%s = %v", m, v)
				}
			}
		}
	}
}

func TestRunSweepDefaults(t *testing.T) {
	sw := tinySweep()
	sw.Loads = nil
	sw.Runs = 0
	sw.Metrics = []Metric{MetricDelivery}
	sw.Protocols = sw.Protocols[:1]
	sw.Runs = 1
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Loads) != 10 || res.Loads[0] != 5 || res.Loads[9] != 50 {
		t.Errorf("default loads = %v", res.Loads)
	}
}

func TestRunSweepErrors(t *testing.T) {
	sw := tinySweep()
	sw.Scenario.Stream = nil
	if _, err := Run(sw); err == nil {
		t.Error("nil stream accepted")
	}
	sw = tinySweep()
	sw.Protocols = nil
	if _, err := Run(sw); err == nil {
		t.Error("no protocols accepted")
	}
	sw = tinySweep()
	sw.Metrics = []Metric{"bogus"}
	if _, err := Run(sw); err == nil {
		t.Error("unknown metric accepted")
	}
	sw = tinySweep()
	sw.Scenario.Stream = func(uint64) (contact.Source, error) {
		return nil, fmt.Errorf("boom")
	}
	if _, err := Run(sw); err == nil {
		t.Error("stream error swallowed")
	}
}

// TestRunRefusesWhatItCannotHonour: a population below 2, a load below
// 1 or a negative run count on any axis is an error before any run
// starts, not a silent default. A population of 0 used to run the
// mobility model's default 12-node cell and report it at 0 nodes.
func TestRunRefusesWhatItCannotHonour(t *testing.T) {
	bandwidth := Axis{Kind: AxisBandwidth, Bandwidths: []float64{1e3}}
	population := func(nodes ...int) Axis {
		return Axis{Kind: AxisPopulation, Nodes: nodes, Mobility: func(n int) string {
			t.Errorf("population axis resolved mobility for %d nodes", n)
			return ScaleMobility(n)
		}}
	}
	for _, tc := range []struct {
		name  string
		axis  Axis
		loads []int
		runs  int
	}{
		{"population 0", population(0), nil, 1},
		{"population 1", population(100, 1), nil, 1},
		{"empty population axis", population(), nil, 1},
		{"negative load", Axis{}, []int{5, -1}, 1},
		{"zero load", Axis{}, []int{0}, 1},
		{"negative load on the bandwidth axis", bandwidth, []int{-30}, 1},
		{"negative load on the population axis", population(100), []int{-30}, 1},
		{"two loads on the bandwidth axis", bandwidth, []int{5, 10}, 1},
		{"NaN bandwidth", Axis{Kind: AxisBandwidth, Bandwidths: []float64{math.NaN()}}, nil, 1},
		{"infinite bandwidth", Axis{Kind: AxisBandwidth, Bandwidths: []float64{math.Inf(1)}}, nil, 1},
		{"negative runs", Axis{}, nil, -1},
		{"negative runs on the population axis", population(100), nil, -3},
		{"unknown axis", Axis{Kind: 7, Bandwidths: []float64{1e3}}, nil, 1},
	} {
		sw := tinySweep()
		sw.Scenario.Stream = func(uint64) (contact.Source, error) {
			t.Errorf("%s: a run started", tc.name)
			return nil, fmt.Errorf("unreachable")
		}
		sw.Axis, sw.Loads, sw.Runs = tc.axis, tc.loads, tc.runs
		if res, err := Run(sw); err == nil {
			t.Errorf("%s: accepted, result %+v", tc.name, res)
		}
	}
}

func TestSeedForIndependence(t *testing.T) {
	seen := map[uint64]bool{}
	for load := 5; load <= 50; load += 5 {
		for run := 0; run < 10; run++ {
			s := seedFor(1, load, run)
			if seen[s] {
				t.Fatalf("seed collision at load=%d run=%d", load, run)
			}
			seen[s] = true
		}
	}
	if seedFor(1, 5, 0) != seedFor(1, 5, 0) {
		t.Error("seedFor not deterministic")
	}
	if seedFor(1, 5, 0) == seedFor(2, 5, 0) {
		t.Error("base seed ignored")
	}
}

func TestPickPair(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		src, dst := pickPair(12, seed)
		if src == dst {
			t.Fatalf("seed %d: src == dst == %d", seed, src)
		}
		if src < 0 || src >= 12 || dst < 0 || dst >= 12 {
			t.Fatalf("seed %d: pair (%d,%d) out of range", seed, src, dst)
		}
	}
	// All destinations reachable, not just dst != src by off-by-one.
	hit := map[contact.NodeID]bool{}
	for seed := uint64(0); seed < 500; seed++ {
		_, dst := pickPair(4, seed)
		hit[dst] = true
	}
	if len(hit) != 4 {
		t.Errorf("only %d/4 destinations ever chosen", len(hit))
	}
}

func TestMeanOfIgnoresNaN(t *testing.T) {
	s := Series{Points: []Point{
		{Values: map[Metric]float64{MetricDelay: 10}},
		{Values: map[Metric]float64{MetricDelay: math.NaN()}},
		{Values: map[Metric]float64{MetricDelay: 30}},
	}}
	if got := MeanOf(s, MetricDelay); got != 20 {
		t.Errorf("MeanOf = %v, want 20", got)
	}
}

func TestFiguresRegistryComplete(t *testing.T) {
	want := []string{
		"fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
		"fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
		"overhead",
	}
	figs := Figures()
	if len(figs) != len(want) {
		t.Fatalf("%d figures, want %d", len(figs), len(want))
	}
	for i, id := range want {
		if figs[i].ID != id {
			t.Errorf("figure %d = %q, want %q", i, figs[i].ID, id)
		}
	}
	for _, f := range figs {
		if f.Sweep.Scenario.Stream == nil {
			t.Errorf("%s: no scenario stream", f.ID)
		}
		if f.Metric == "" {
			t.Errorf("%s: no metric", f.ID)
		}
	}
}

func TestFig14PairDiffersOnlyInInterval(t *testing.T) {
	short, long := Fig14Pair()
	g1 := contact.Analyze(materialize(t, short.Scenario, 3))
	g2 := contact.Analyze(materialize(t, long.Scenario, 3))
	if g2.MeanInterval <= g1.MeanInterval {
		t.Errorf("long scenario mean gap %.0f not above short %.0f",
			g2.MeanInterval, g1.MeanInterval)
	}
	if short.Scenario.TxTime != long.Scenario.TxTime {
		t.Error("scenario pair must share the link rate")
	}
}

func TestScenariosProduceValidSchedules(t *testing.T) {
	for _, sc := range []Scenario{TraceScenario(), RWPScenario(), IntervalScenario(400)} {
		s := materialize(t, sc, 9)
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", sc.Name, err)
		}
		if s.Horizon() <= 0 {
			t.Errorf("%s: empty horizon", sc.Name)
		}
	}
}

func TestTableIISmall(t *testing.T) {
	rows, err := TableII(5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6", len(rows))
	}
	for _, r := range rows {
		if r.Protocol == "" {
			t.Error("unnamed row")
		}
		for _, v := range []float64{r.DeliveryRWP, r.DeliveryTr, r.OccupancyRWP, r.OccupancyTr, r.DupRWP, r.DupTr} {
			if v < 0 || math.IsNaN(v) {
				t.Errorf("%s: bad cell %v", r.Protocol, v)
			}
		}
		if r.DeliveryRWP > 100 || r.DeliveryTr > 100 {
			t.Errorf("%s: delivery above 100%%", r.Protocol)
		}
	}
}

func TestOnPointCallback(t *testing.T) {
	sw := tinySweep()
	var calls []string
	sw.OnPoint = func(label string, load int) {
		calls = append(calls, fmt.Sprintf("%s/%d", label, load))
	}
	if _, err := Run(sw); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 4 { // 2 protocols × 2 loads
		t.Errorf("OnPoint called %d times, want 4: %v", len(calls), calls)
	}
}
