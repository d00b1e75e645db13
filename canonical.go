package dtnsim

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"dtnsim/internal/buffer"
	"dtnsim/internal/core"
)

// Canonical content keys for scenarios and sweeps.
//
// PR 2 made every Scenario and SweepSpec a canonical-JSON fixed point:
// parse → marshal is the identity on canonical files (proven by the
// PR-5 fuzzers), and Normalize maps every accepted spelling of a run to
// one canonical value. That canonical value is therefore a perfect
// content address: two specs share a key exactly when they describe the
// same deterministic computation, so a result computed once can be
// served forever (the dtnsimd result cache, DESIGN.md §11).
//
// The key covers everything that can influence the result bytes —
// registry specs in canonical form, every engine and resource knob, the
// workload, and the seed — and deliberately excludes pure execution
// knobs: SweepSpec.Workers changes how a sweep is scheduled across
// goroutines, never what it computes (bit-identical by the PR-1
// determinism contract), so it is zeroed before hashing.

// CanonicalKey returns the scenario's content address: the hex SHA-256
// of its normalized canonical JSON (which includes the seed). Two
// scenarios get the same key iff they normalize to the same value —
// invariant under JSON key order, whitespace, and spec-parameter
// spelling; distinct under any semantic field change. The scenario is
// validated first, so a key is only ever issued for a runnable spec.
func (s Scenario) CanonicalKey() (string, error) {
	src, fac, err := s.checked()
	if err != nil {
		return "", err
	}
	return hashJSON(s.respelled(src, fac))
}

// Normalize returns the sweep in canonical form: the form SweepSpecOf
// reconstructs from the compiled sweep — canonical registry specs, the
// effective engine knobs after scenario presets, label lists elided
// when they match the registry defaults — with the harness defaults
// (loads 5..50, 10 runs, all five metrics) and the engine defaults a
// template may set (buffer_cap, tx_time, drop) made explicit and the
// Workers execution knob cleared. Template fields the sweep harness
// ignores (Protocol, Flows, RunToHorizon) are dropped, so every
// spelling of the same experiment normalizes to one value. Normalize is
// idempotent.
func (s SweepSpec) Normalize() (SweepSpec, error) {
	sw, err := s.Compile()
	if err != nil {
		return SweepSpec{}, err
	}
	norm, err := SweepSpecOf(s.Name, sw)
	if err != nil {
		return SweepSpec{}, err
	}
	if len(norm.Loads) == 0 {
		norm.Loads = DefaultLoads()
	}
	if norm.Runs == 0 {
		norm.Runs = 10
	}
	if len(norm.Metrics) == 0 {
		norm.Metrics = AllMetrics()
	}
	// A zero knob and the engine's default run identically. (Templates
	// refuse the other two engine knobs, so they are never spelled.)
	tmpl := &norm.Scenario
	tmpl.BufferCap = cmp.Or(tmpl.BufferCap, core.DefaultBufferCap)
	tmpl.TxTime = cmp.Or(tmpl.TxTime, core.DefaultTxTime)
	tmpl.DropPolicy = cmp.Or(tmpl.DropPolicy, buffer.DefaultDropPolicy)
	// Workers only schedules the grid, and the template's "shards" key
	// is inert; neither changes a byte of output.
	norm.Workers = 0
	norm.Scenario.Shards = 0
	return norm, nil
}

// CanonicalKey returns the sweep's content address: the hex SHA-256 of
// its normalized canonical JSON (which includes the template's seed).
// Worker count does not enter the key — a sweep's results are
// bit-identical for every Workers value — so re-submitting the same
// experiment with different parallelism hits the same cache entry.
func (s SweepSpec) CanonicalKey() (string, error) {
	norm, err := s.Normalize()
	if err != nil {
		return "", err
	}
	return hashJSON(norm)
}

// hashJSON hashes a normalized spec's compact JSON encoding.
func hashJSON(v any) (string, error) {
	data, err := json.Marshal(v)
	if err != nil {
		return "", fmt.Errorf("%w: %v", ErrScenario, err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:]), nil
}
