package main

import (
	"regexp"
	"testing"
)

// TestSmoke runs two ops and a one-op traced pass of every workload —
// every decorator, probe and correctness check, including the pinned
// digests of expected.json — and holds BENCHMARK.json to what the run
// emitted. It asserts nothing about speed.
func TestSmoke(t *testing.T) {
	root, err := findRoot()
	if err != nil {
		t.Fatal(err)
	}
	spec, err := loadSpec(root)
	if err != nil {
		t.Fatal(err)
	}

	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	if n := len(spec.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads", n)
	}
	if n := len(spec.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics", n)
	}
	if n := len(spec.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics", n)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is malformed", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	for _, w := range spec.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 {
			t.Errorf("workload %s: why has %d characters", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), spec.EndToEnd...), spec.PerLayer...) {
		check("metric", m.Name)
		if !unit.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q is malformed", m.Name, m.Unit)
		}
		if m.Better != "lower" && m.Better != "higher" {
			t.Errorf("metric %s: better is %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower" && m.Bound > 0
		}
	}
	if !setup {
		t.Error("end_to_end lacks setup_s in s, lower is better, with a bound")
	}

	results, err := smoke(root, spec, defaultSeed)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2*len(spec.Workloads) {
		t.Fatalf("%d results for %d workloads", len(results), len(spec.Workloads))
	}
	measured := map[string]bool{}
	replayDigest := ""
	for _, res := range results {
		if !res.Trace {
			// report has checked that these are exactly spec.EndToEnd.
			for n, v := range res.Metrics {
				if !(v > 0) {
					t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", res.Workload, n, v)
				}
			}
			continue
		}
		for n := range res.Metrics {
			measured[n] = true
		}
		if r := res.Metrics["trace.overhead_ratio"]; !(r > 0) {
			t.Errorf("%s: trace.overhead_ratio is %v", res.Workload, r)
		}
		if constantOps[res.Workload] {
			if len(res.Digests) != 1 {
				t.Fatalf("%s: %d digests", res.Workload, len(res.Digests))
			}
			if replayDigest == "" {
				replayDigest = res.Digests[0]
			}
			if res.Digests[0] != replayDigest {
				t.Errorf("%s computed %s, replay_seq %s", res.Workload, res.Digests[0], replayDigest)
			}
		}
	}
	for _, m := range spec.PerLayer {
		if !measured[m.Name] {
			t.Errorf("per-layer metric %s is measured by no workload", m.Name)
		}
	}
}
