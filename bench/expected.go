package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// expectedFile is bench/expected.json: for the default seed, the digests
// of the first ops of every workload and the exact per-op counts of the
// workloads whose ops all do the same work. A normal run of the default
// seed fails when it computes anything else; other seeds keep the
// cross-executor and conservation checks only.
type expectedFile struct {
	Seed      uint64                   `json:"seed"`
	Workloads map[string]expectedEntry `json:"workloads"`
}

type expectedEntry struct {
	// Digests of ops 0, 1, 2, … (result JSON, series CSV and events CSV
	// of a replay op; the sweep results of a paper_sweep op; …).
	Digests []string `json:"digests"`
	// PerOp pins exact per-op counts by their per-layer metric name.
	PerOp map[string]float64 `json:"per_op,omitempty"`
}

// constantOps are the workloads whose ops are all the same run.
var constantOps = map[string]bool{"replay_seq": true, "replay_shard": true, "replay_dist": true}

// perOp computes the pinned per-op counts a result carries.
func perOp(res *result) map[string]float64 {
	if !constantOps[res.Workload] || res.Ops == 0 {
		return nil
	}
	n := float64(res.Ops)
	out := map[string]float64{
		"mobility.contacts":  float64(res.Contacts) / n,
		"core.transmissions": float64(res.Counters.Transmissions) / n,
		"core.deliveries":    float64(res.Counters.Deliveries) / n,
		"core.drops":         float64(res.Counters.Drops) / n,
	}
	if v, ok := res.Metrics["dist.frames_out"]; ok && res.Trace {
		out["dist.frames_out"] = v
	}
	return out
}

func expectedPath(root string) string { return filepath.Join(root, "bench", "expected.json") }

// checkExpected compares a default-seed result with what is pinned.
func checkExpected(root string, res *result) error {
	if res.Seed != defaultSeed {
		return nil
	}
	data, err := os.ReadFile(expectedPath(root))
	if err != nil {
		return err
	}
	var exp expectedFile
	if err := json.Unmarshal(data, &exp); err != nil {
		return fmt.Errorf("expected.json: %w", err)
	}
	want, ok := exp.Workloads[res.Workload]
	if !ok || exp.Seed != defaultSeed {
		return fmt.Errorf("expected.json pins nothing for %s at seed %d; run bench -update-expected", res.Workload, defaultSeed)
	}
	for i, d := range res.Digests {
		if i < len(want.Digests) && d != want.Digests[i] {
			return fmt.Errorf("%s op %d: digest %s, expected.json pins %s", res.Workload, i, d, want.Digests[i])
		}
	}
	for name, got := range perOp(res) {
		if w, ok := want.PerOp[name]; ok && got != w {
			return fmt.Errorf("%s: %s is %v per op, expected.json pins %v", res.Workload, name, got, w)
		}
	}
	return nil
}

// updateExpected measures the default seed afresh and rewrites
// expected.json.
func updateExpected(root string, spec *benchSpec) error {
	exp := expectedFile{Seed: defaultSeed, Workloads: map[string]expectedEntry{}}
	for _, w := range spec.Workloads {
		entry := expectedEntry{}
		for _, trace := range []bool{false, true} {
			res, err := runWorkload(w.Name, runOpts{root: root, seed: defaultSeed, ops: pinnedOps, trace: trace, setups: 1, unpinned: true})
			if err != nil {
				return fmt.Errorf("%s: %w", w.Name, err)
			}
			if !res.Correct {
				return fmt.Errorf("%s: %s", w.Name, res.Error)
			}
			if !trace {
				entry.Digests = res.Digests
			}
			for name, v := range perOp(res) {
				if entry.PerOp == nil {
					entry.PerOp = map[string]float64{}
				}
				entry.PerOp[name] = v
			}
		}
		exp.Workloads[w.Name] = entry
		fmt.Printf("%s: %d digests, %d per-op counts\n", w.Name, len(entry.Digests), len(entry.PerOp))
	}
	return writeJSON(expectedPath(root), exp)
}
