package experiment

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"dtnsim/internal/contact"
)

// resultsEqual is reflect.DeepEqual for sweep Results except that two
// NaN metric values (delay with zero completed runs) compare equal. Any
// non-NaN value must match bit for bit.
func resultsEqual(a, b *Result) bool {
	if a.Scenario != b.Scenario || !reflect.DeepEqual(a.Loads, b.Loads) || len(a.Series) != len(b.Series) {
		return false
	}
	for i := range a.Series {
		sa, sb := a.Series[i], b.Series[i]
		if sa.Label != sb.Label || len(sa.Points) != len(sb.Points) {
			return false
		}
		for j := range sa.Points {
			pa, pb := sa.Points[j], sb.Points[j]
			if pa.Load != pb.Load || pa.Completed != pb.Completed || pa.Runs != pb.Runs || len(pa.Values) != len(pb.Values) {
				return false
			}
			for m, va := range pa.Values {
				vb, ok := pb.Values[m]
				if !ok {
					return false
				}
				if math.IsNaN(va) && math.IsNaN(vb) {
					continue
				}
				if va != vb {
					return false
				}
			}
		}
	}
	return true
}

// TestSweepParallelMatchesSequential is the determinism contract: a
// sweep run on 8 workers must produce a Result deep-equal — field for
// field, bit for bit — to the same sweep run sequentially, both for a
// shared-schedule scenario (trace) and a per-run-schedule scenario
// (RWP, regenerated inside worker goroutines).
func TestSweepParallelMatchesSequential(t *testing.T) {
	cases := []struct {
		name string
		sw   Sweep
	}{
		{"shared trace", Sweep{
			Scenario:  TraceScenario(),
			Protocols: []ProtocolFactory{TTL300(), CumImmunity()},
			Loads:     []int{5, 15, 25},
			Runs:      4,
			BaseSeed:  2012,
		}},
		{"per-run rwp", Sweep{
			Scenario:  RWPScenario(),
			Protocols: []ProtocolFactory{PQ11(), EC()},
			Loads:     []int{5, 10},
			Runs:      3,
			BaseSeed:  7,
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			seq := tc.sw
			seq.Workers = 1
			par := tc.sw
			par.Workers = 8

			want, err := Run(seq)
			if err != nil {
				t.Fatal(err)
			}
			got, err := Run(par)
			if err != nil {
				t.Fatal(err)
			}
			if !resultsEqual(want, got) {
				t.Errorf("parallel result differs from sequential:\nsequential: %+v\nparallel:   %+v", want, got)
			}
		})
	}
}

// TestSweepDefaultWorkersMatchesSequential covers the Workers: 0
// default (GOMAXPROCS), which is what every existing call site now gets.
func TestSweepDefaultWorkersMatchesSequential(t *testing.T) {
	sw := tinySweep()
	seq := sw
	seq.Workers = 1
	want, err := Run(seq)
	if err != nil {
		t.Fatal(err)
	}
	got, err := Run(sw) // Workers: 0
	if err != nil {
		t.Fatal(err)
	}
	if !resultsEqual(want, got) {
		t.Error("default-workers result differs from sequential")
	}
}

// TestOnPointOrderParallel: OnPoint must arrive from the calling
// goroutine in the exact point-major order — every series at one load,
// then the next load — even when runs execute out of order across 8
// workers, and at 1 and 2.
func TestOnPointOrderParallel(t *testing.T) {
	sw := Sweep{
		Scenario:  TraceScenario(),
		Protocols: []ProtocolFactory{TTL300(), EC(), PQ11()},
		Loads:     []int{5, 10, 15},
		Runs:      2,
		BaseSeed:  3,
		Workers:   8,
	}
	var want []string
	for _, load := range sw.Loads {
		for _, pf := range sw.Protocols {
			want = append(want, fmt.Sprintf("%s/%d", pf.Label, load))
		}
	}
	for _, workers := range []int{8, 1, 2} {
		var got []string
		sw.Workers = workers
		sw.OnPoint = func(label string, load int) {
			got = append(got, fmt.Sprintf("%s/%d", label, load))
		}
		if _, err := Run(sw); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(want, got) {
			t.Errorf("OnPoint order at %d workers:\n got %v\nwant %v", workers, got, want)
		}
	}
}

// TestSweepRejectsTinySchedules: a schedule with fewer than two nodes
// cannot host a source/destination pair; the sweep must fail cleanly
// instead of panicking inside pickPair, on both execution paths.
func TestSweepRejectsTinySchedules(t *testing.T) {
	for _, nodes := range []int{0, 1} {
		for _, workers := range []int{1, 8} {
			sw := Sweep{
				Scenario: Scenario{
					Name: "degenerate",
					Stream: func(uint64) (contact.Source, error) {
						return (&contact.Schedule{Nodes: nodes}).Stream(), nil
					},
				},
				Protocols: []ProtocolFactory{Pure()},
				Loads:     []int{5},
				Runs:      2,
				Workers:   workers,
			}
			_, err := Run(sw)
			if err == nil {
				t.Fatalf("nodes=%d workers=%d: sweep accepted a schedule without a node pair", nodes, workers)
			}
			if !strings.Contains(err.Error(), "node") {
				t.Errorf("nodes=%d workers=%d: error %q does not mention the node count", nodes, workers, err)
			}
		}
	}
}

// TestSweepParallelErrorPropagates: a failing stream inside worker
// goroutines must surface as a real error, not a skip marker, and not
// hang the pool.
func TestSweepParallelErrorPropagates(t *testing.T) {
	sw := Sweep{
		Scenario: Scenario{
			Name:           "boom",
			PerRunSchedule: true,
			Stream: func(uint64) (contact.Source, error) {
				return nil, fmt.Errorf("boom")
			},
		},
		Protocols: []ProtocolFactory{Pure()},
		Loads:     []int{5, 10},
		Runs:      3,
		Workers:   4,
	}
	_, err := Run(sw)
	if err == nil {
		t.Fatal("stream failure swallowed")
	}
	if !strings.Contains(err.Error(), "boom") {
		t.Errorf("err = %v, want the underlying stream failure", err)
	}
}
