package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

func readResults(path string) (*resultFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f resultFile
	if err := json.Unmarshal(data, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &f, nil
}

func (f *resultFile) find(workload string, trace bool) *result {
	for _, r := range f.Results {
		if r.Workload == workload && r.Trace == trace {
			return r
		}
	}
	return nil
}

// compare prints one row per workload and end-to-end metric of two
// result files — A the reference, B the candidate — and fails when B is
// worse than A by more than the metric's bound, or computed something
// else. A row is "noisy", not "worse" or "ok", when either side's op
// times spread wider than the bound: the difference cannot be resolved.
func compare(spec *benchSpec, pathA, pathB string) error {
	a, err := readResults(pathA)
	if err != nil {
		return err
	}
	b, err := readResults(pathB)
	if err != nil {
		return err
	}
	fa, fb := a.Fingerprint, b.Fingerprint
	fa.Commit, fb.Commit = "", ""
	if fa != fb {
		fmt.Printf("WARNING: the files were measured under different conditions:\n  A %+v\n  B %+v\n", fa, fb)
	}
	worse := 0
	fmt.Printf("%-15s %-19s %14s %14s %8s %6s  %s\n", "workload", "metric", "A", "B", "delta", "bound", "verdict")
	for _, w := range spec.Workloads {
		ra, rb := a.find(w.Name, false), b.find(w.Name, false)
		if ra == nil || rb == nil {
			fmt.Printf("%-15s missing from one file\n", w.Name)
			worse++
			continue
		}
		spread := max(ra.OpIQR, rb.OpIQR)
		for _, m := range spec.EndToEnd {
			va, vb := ra.Metrics[m.Name], rb.Metrics[m.Name]
			delta := (vb - va) / va // positive: B is worse
			if m.Better == "higher" {
				delta = -delta
			}
			verdict := "ok"
			switch {
			case delta > m.Bound && spread > m.Bound:
				verdict = "noisy"
			case delta > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-19s %14.6g %14.6g %+7.1f%% %5.0f%%  %s\n", w.Name, m.Name, va, vb, 100*delta, 100*m.Bound, verdict)
		}
		if !ra.Correct || !rb.Correct {
			fmt.Printf("%-15s failed its checks in one file\n", w.Name)
			worse++
		}
		if ra.Seed == rb.Seed {
			for i := 0; i < len(ra.Digests) && i < len(rb.Digests); i++ {
				if ra.Digests[i] != rb.Digests[i] {
					fmt.Printf("%-15s op %d computed %s in A and %s in B\n", w.Name, i, ra.Digests[i], rb.Digests[i])
					worse++
				}
			}
		}
	}
	if worse > 0 {
		return errors.New("B is worse than A")
	}
	return nil
}
