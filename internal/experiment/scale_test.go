package experiment

import (
	"fmt"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dtnsim/internal/core"
)

// tinyScale is a fast scale sweep over small populations (the axis
// mechanics are identical at any N; the big populations are exercised
// by the benchmarks and the CI smoke run).
func tinyScale() Sweep {
	return Sweep{
		Scenario: Scenario{Name: "tiny-scale"},
		Axis: Axis{Kind: AxisPopulation, Nodes: []int{12, 24},
			Mobility: func(nodes int) string {
				return fmt.Sprintf("rwp:nodes=%d,area=1500,span=40000,range=150,dt=25", nodes)
			}},
		Protocols: []ProtocolFactory{Pure()},
		Loads:     []int{10},
		Runs:      2,
		BaseSeed:  7,
		Metrics:   []Metric{MetricDelivery, MetricMeanDelay, MetricOccupancy},
	}
}

// TestRunScaleShape: a population sweep has one point per node count,
// in axis order, each reporting its node count to OnPoint.
func TestRunScaleShape(t *testing.T) {
	sw := tinyScale()
	var keys []int
	sw.OnPoint = func(_ string, key int) { keys = append(keys, key) }
	res, err := Run(sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 1 || len(res.Series[0].Points) != 2 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if !reflect.DeepEqual(keys, res.Axis.Nodes) || !reflect.DeepEqual(res.Axis.Nodes, sw.Axis.Nodes) {
		t.Errorf("points reported at %v nodes, result axis %v, want %v", keys, res.Axis.Nodes, sw.Axis.Nodes)
	}
	for i, p := range res.Series[0].Points {
		if d := p.Values[MetricDelivery]; d < 0 || d > 1 {
			t.Errorf("point %d delivery %v out of [0,1]", i, d)
		}
		if p.Runs != 2 || p.Load != 10 {
			t.Errorf("point %d: %d runs at load %d", i, p.Runs, p.Load)
		}
	}
}

// TestRunScaleDeterministicAcrossWorkers: the scale grid must fold to
// bit-identical results for every worker count, like the load sweeps.
func TestRunScaleDeterministicAcrossWorkers(t *testing.T) {
	seq := tinyScale()
	seq.Workers = 1
	a, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	par := tinyScale()
	par.Workers = 4
	b, err := Run(par)
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(a, b) {
		t.Errorf("worker counts diverge:\n1: %+v\n4: %+v", a, b)
	}
}

func TestRunScaleErrors(t *testing.T) {
	sw := tinyScale()
	sw.Axis.Nodes = nil
	if _, err := Run(sw); err == nil {
		t.Error("empty node axis accepted")
	}
	sw = tinyScale()
	sw.Protocols = nil
	if _, err := Run(sw); err == nil {
		t.Error("no protocols accepted")
	}
	sw = tinyScale()
	sw.Axis.Mobility = func(int) string { return "bogus:spec" }
	if _, err := Run(sw); err == nil {
		t.Error("bad mobility spec accepted")
	}
}

// scaleCellCost runs one constant-density scale cell (pure epidemic,
// one 30-bundle flow, Scenario.simulate over a ScenarioFromSpec
// scenario) and reports the bytes and heap objects it allocated.
func scaleCellCost(t *testing.T, nodes int) (bytes, objects uint64) {
	t.Helper()
	sc, err := ScenarioFromSpec(ScaleMobilitySpan(nodes, 2000))
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	res, err := sc.simulate(new(gridWorker), core.Config{Protocol: Pure().New()}, core.Flow{Count: 30}, 2012, nodes, 0)
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.FinalBuffered) != nodes {
		t.Fatalf("%d-node cell reported %d nodes", nodes, len(res.FinalBuffered))
	}
	return after.TotalAlloc - before.TotalAlloc, after.Mallocs - before.Mallocs
}

// TestScaleCellAllocationBudget: a run allocates for what is live, not
// per node. The mobility walks and the engine's nodes, stores and
// received sets are slabs, and the classic stream's close buckets are
// recycled chunks, so the 20k-node cell stays inside a budget that the
// per-node-pointer layout (52 MB, 142k objects) broke, and doubling the
// population from 10k adds under half an object per node (the chunks of
// a window that grows with it), not seven.
func TestScaleCellAllocationBudget(t *testing.T) {
	bytes20k, objects20k := scaleCellCost(t, 20000)
	t.Logf("20k cell: %.1f MB in %d objects", float64(bytes20k)/1e6, objects20k)
	if bytes20k > 32<<20 || objects20k > 25000 {
		t.Errorf("20k cell allocated %d bytes in %d objects; budget 32 MiB, 25k objects", bytes20k, objects20k)
	}
	_, objects10k := scaleCellCost(t, 10000)
	perNode := (float64(objects20k) - float64(objects10k)) / 10000
	t.Logf("10k cell: %d objects; %.3f more per added node", objects10k, perNode)
	if perNode > 0.5 {
		t.Errorf("doubling the population added %.2f objects per node (10k: %d, 20k: %d)", perNode, objects10k, objects20k)
	}
}

// TestScaleMobilitySpanSpelling: the span reaches the rwp spec exactly.
// Integer spans keep the spelling committed scale.csv runs used, and a
// fractional one is not rounded to 0, which the model would read as its
// default 50,000 s window.
func TestScaleMobilitySpanSpelling(t *testing.T) {
	for _, tc := range []struct {
		nodes int
		span  float64
		want  string
	}{
		{300, 5000, "rwp:nodes=300,area=3464,span=5000,range=100,dt=25"},
		{5000, 2000, "rwp:nodes=5000,area=14142,span=2000,range=100,dt=25"},
		{1000, 50000, "rwp:nodes=1000,area=6325,span=50000,range=100,dt=25"},
		{100, 0.4, "rwp:nodes=100,area=2000,span=0.4,range=100,dt=25"},
		{100, 1e21, "rwp:nodes=100,area=2000,span=1000000000000000000000,range=100,dt=25"},
	} {
		got := ScaleMobilitySpan(tc.nodes, tc.span)
		if got != tc.want {
			t.Errorf("ScaleMobilitySpan(%d, %g) = %q, want %q", tc.nodes, tc.span, got, tc.want)
		}
	}
	sc, err := ScenarioFromSpec(ScaleMobilitySpan(100, 0.4))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sc.Spec, ",span=0.4,") {
		t.Errorf("a 0.4 s span compiled to %q", sc.Spec)
	}
}
