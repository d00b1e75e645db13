// Package core is the unified DTN simulation engine — the paper's
// central artifact. It replays a contact schedule through a routing
// protocol under the paper's §IV semantics: anti-entropy control
// sessions at contact start, half-duplex links with a fixed per-bundle
// transmission time and lower-ID-sends-first arbitration, 10-bundle
// relay buffers with pinned source bundles, periodic metric sampling,
// and early termination once every flow completes.
package core

import (
	"context"
	"errors"
	"fmt"
	"math"

	"dtnsim/internal/buffer"
	"dtnsim/internal/contact"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// Defaults from the paper's §IV methodology.
const (
	// DefaultBufferCap is the per-node buffer size in bundles ("we set
	// each node to hold 10 bundles").
	DefaultBufferCap = 10
	// DefaultTxTime is the per-bundle transmission time in seconds ("we
	// fix the transmission time to 100 seconds").
	DefaultTxTime = 100
	// DefaultSampleEvery is the metric sampling period in seconds.
	DefaultSampleEvery = 1000
	// DefaultRecordsPerSlot is how many control records fit in one
	// bundle-slot time: anti-packets are small relative to the paper's
	// hundreds-of-megabytes bundles, but not free.
	DefaultRecordsPerSlot = 10
)

// Flow is one source→destination stream of Count bundles created at
// StartAt. The paper's workload is a single flow of k ∈ {5..50} bundles
// created at t=0.
// The JSON field names are part of the public Scenario file format.
type Flow struct {
	Src     contact.NodeID `json:"src"`
	Dst     contact.NodeID `json:"dst"`
	Count   int            `json:"count"`
	StartAt sim.Time       `json:"start_at,omitempty"`
	// Size is the payload size in bytes of every bundle in this flow;
	// zero keeps the legacy size-less model in which transfers consume
	// only link slots (DESIGN.md §9).
	Size int64 `json:"size,omitempty"`
}

// Config describes one simulation run.
type Config struct {
	// Schedule is a materialized contact plan to replay. Exactly one of
	// Schedule and Source must be set; a Schedule is adapted to the
	// streaming engine via contact.Schedule.Stream, so existing callers
	// are unaffected by the pull-based contact pipeline.
	Schedule *contact.Schedule
	// Source is a streaming contact plan: the engine pulls one contact
	// at a time, keeping contact-plan memory at the source's working
	// set (O(nodes) for the built-in mobility models) instead of
	// O(#contacts). A Source is consumed by the run — build a fresh one
	// per Run. Contacts are validated incrementally as they are pulled.
	Source contact.Source
	// Protocol is the routing policy under test. Required.
	Protocol protocol.Protocol
	// Flows is the workload. Required, non-empty. A source node may
	// appear in several flows (e.g. bursts with different start times or
	// destinations); each flow takes the next contiguous block of the
	// source's sequence numbers in declaration order.
	Flows []Flow
	// BufferCap is the per-node buffer capacity in bundles.
	BufferCap int
	// TxTime is the seconds needed to transmit one bundle.
	TxTime float64
	// RecordsPerSlot scales the control-record budget of a contact.
	RecordsPerSlot int
	// SampleEvery is the metric sampling period in seconds.
	SampleEvery float64
	// Horizon caps the run; zero means the schedule's horizon.
	Horizon sim.Time
	// Seed drives the protocol's random choices (P-Q draws).
	Seed uint64
	// Bandwidth is the contact link capacity in bytes per second,
	// applied to every contact that does not carry its own
	// Contact.Bandwidth. Zero means unconstrained (the legacy
	// slots-only model): a contact of duration D at bandwidth B
	// transfers at most ⌊D·B⌋ payload bytes, consumed in the protocol's
	// Wants order; a bundle the remaining budget cannot carry whole is
	// not transferred at all (DESIGN.md §9).
	Bandwidth float64
	// BufferBytes is the per-node buffer byte capacity alongside the
	// BufferCap slot count; zero means unbounded bytes. Under byte
	// pressure the store consults DropPolicy.
	BufferBytes int64
	// DropPolicy names the buffer.DropPolicy consulted when an incoming
	// sized bundle does not fit BufferBytes: "droptail" (default),
	// "dropfront", or "droprandom". Ignored while BufferBytes is zero.
	DropPolicy string
	// ControlBytes is the signaling cost in bytes of one control record
	// (summary-vector entry, immunity record, anti-packet), charged
	// against a bandwidth-constrained contact's byte budget before data
	// transfers — the §V-C overhead as a first-class resource. Zero
	// keeps signaling free; it has no effect on unconstrained contacts.
	ControlBytes float64
	// RunToHorizon disables early termination when all flows complete,
	// so buffer/duplication dynamics can be observed afterwards.
	RunToHorizon bool
	// Shards is how many kernels the in-tree executor (pool.go) runs
	// the epoch loop's items on (DESIGN.md §12): 0 and 1 are the
	// sequential engine — one kernel on the calling goroutine, each item
	// executed as it is collected; K >= 2 splits every window of up to
	// WindowItems items into node-disjoint lists run on K goroutines.
	// More kernels than a window has components could never all have
	// work, so the run builds min(Shards, nodes, WindowItems). Purely
	// an execution knob — results are bit-identical for every value.
	// No command, sweep or scenario file sets it: a file's "shards" key
	// is inert, so only Go callers reach K >= 2: the benchmark's
	// replay_shard workload, the sharded root benchmarks and this
	// package's shard tests.
	Shards int
	// Backend, when non-nil, delegates epoch execution to an external
	// executor (worker processes — internal/dist) through the seam in
	// backend.go, up to WindowItems items at a time: the engine still
	// collects items, merges effects and samples metrics, but items
	// execute on the backend's authoritative node state. Like Shards
	// this is purely an execution knob — results are bit-identical with
	// and without one, and it never enters a scenario's canonical key.
	Backend EpochBackend
	// Context, when non-nil, lets the caller abort the run: the engine
	// polls it at every epoch boundary and every interruptEvery
	// collected items (so a cancel or deadline lands within
	// microseconds of item processing, plus the one window in flight
	// on several kernels or a backend) and Run returns an
	// error wrapping the context's error instead of a Result. Nil costs
	// a nil check per poll — results are bit-identical with and without
	// a never-cancelled context (benchguard pair "cancel-overhead" gates
	// the overhead).
	// Cancellation is a runtime knob, not part of the scenario: it never
	// enters the canonical key.
	Context context.Context
	// Observers receive engine events (generation, transmission,
	// delivery, drops, periodic samples) as the run progresses, after
	// the built-in metrics collector. Hooks run on the simulation
	// goroutine in virtual-time order.
	Observers []Observer
}

// ErrConfig wraps configuration validation failures.
var ErrConfig = errors.New("core: invalid config")

// withDefaults returns cfg with zero fields replaced by the paper's
// defaults.
func (cfg Config) withDefaults() Config {
	if cfg.BufferCap == 0 {
		cfg.BufferCap = DefaultBufferCap
	}
	if cfg.TxTime == 0 {
		cfg.TxTime = DefaultTxTime
	}
	if cfg.RecordsPerSlot == 0 {
		cfg.RecordsPerSlot = DefaultRecordsPerSlot
	}
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = DefaultSampleEvery
	}
	return cfg
}

// nodeCount returns the node population of whichever contact plan is
// set, or zero when neither is.
func (cfg Config) nodeCount() int {
	switch {
	case cfg.Schedule != nil:
		return cfg.Schedule.Nodes
	case cfg.Source != nil:
		return cfg.Source.Nodes()
	}
	return 0
}

// horizonCap resolves the run's horizon after validation: the explicit
// Config.Horizon when set, otherwise the extent src reports — src being
// the contact plan as the run streams it, whose Horizon is cached, so a
// materialized Schedule is scanned once per run (by Stream), not once
// per question. adaptive reports that the cap is an upper bound from a
// streaming source (its span), which the engine tightens to the true
// latest contact end once the source is exhausted — reproducing exactly
// the horizon a materialized Schedule would have reported up front.
func (cfg Config) horizonCap(src contact.Source) (cap sim.Time, adaptive bool) {
	if cfg.Horizon != 0 {
		return cfg.Horizon, false
	}
	return src.Horizon(), cfg.Schedule == nil
}

// plan returns the contact plan as the run streams it: Config.Source,
// or Config.Schedule checked in the one pass that also finds its
// horizon, which the run then trusts contact by contact.
func (cfg Config) plan() (contact.Source, error) {
	if cfg.Schedule == nil && cfg.Source == nil {
		return nil, fmt.Errorf("%w: no contact plan (set Schedule or Source)", ErrConfig)
	}
	if cfg.Schedule != nil && cfg.Source != nil {
		return nil, fmt.Errorf("%w: both Schedule and Source set; pick one", ErrConfig)
	}
	if cfg.Source != nil {
		if n := cfg.Source.Nodes(); n < 2 {
			return nil, fmt.Errorf("%w: contact source reports %d node(s); need >=2", ErrConfig, n)
		}
		return cfg.Source, nil
	}
	src, err := cfg.Schedule.Checked()
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrConfig, err)
	}
	return src, nil
}

// validate checks the rest of the configuration after defaulting, for
// the contact plan src that plan returned.
func (cfg Config) validate(src contact.Source) error {
	// Zero means "the plan's own extent". The `!(>= 0)` form also
	// refuses NaN, which passes `< 0` and would crash the epoch loop; an
	// infinite horizon never ends a RunToHorizon run.
	if !(cfg.Horizon >= 0) || math.IsInf(float64(cfg.Horizon), 0) {
		return fmt.Errorf("%w: horizon %v must be finite and non-negative", ErrConfig, cfg.Horizon)
	}
	// A run must know when to stop. A validated schedule does: it is
	// non-empty and every contact has End > Start >= 0, so its horizon
	// is positive. A streaming source may not know its extent (an
	// unbounded generator); refusing here beats the old failure mode of
	// silently running to t=0 on an empty horizon.
	cap, _ := cfg.horizonCap(src)
	if cap <= 0 {
		return fmt.Errorf("%w: no horizon: set Config.Horizon or use a source that reports one", ErrConfig)
	}
	if cfg.Protocol == nil {
		return fmt.Errorf("%w: nil protocol", ErrConfig)
	}
	if len(cfg.Flows) == 0 {
		return fmt.Errorf("%w: no flows", ErrConfig)
	}
	if cfg.BufferCap < 1 {
		return fmt.Errorf("%w: buffer capacity %d", ErrConfig, cfg.BufferCap)
	}
	// The `!(x > 0)` form also rejects NaN, which passes `x <= 0`.
	if !(cfg.TxTime > 0) || math.IsInf(cfg.TxTime, 0) {
		return fmt.Errorf("%w: tx time %v", ErrConfig, cfg.TxTime)
	}
	// withDefaults only replaces exact zeros, so negative (and
	// non-finite) values reach this point; they would silently corrupt
	// sampling and control budgets rather than fail.
	if !(cfg.SampleEvery > 0) || math.IsInf(cfg.SampleEvery, 0) {
		return fmt.Errorf("%w: sample period %v", ErrConfig, cfg.SampleEvery)
	}
	if cfg.RecordsPerSlot < 0 {
		return fmt.Errorf("%w: records per slot %d", ErrConfig, cfg.RecordsPerSlot)
	}
	if cfg.Shards < 0 {
		return fmt.Errorf("%w: shards %d", ErrConfig, cfg.Shards)
	}
	// Resource-model knobs: zero disables each one, so only negative and
	// non-finite values (and unknown policy names) can be invalid.
	if cfg.Bandwidth < 0 || math.IsNaN(cfg.Bandwidth) || math.IsInf(cfg.Bandwidth, 0) {
		return fmt.Errorf("%w: bandwidth %v", ErrConfig, cfg.Bandwidth)
	}
	if cfg.BufferBytes < 0 {
		return fmt.Errorf("%w: buffer bytes %d", ErrConfig, cfg.BufferBytes)
	}
	if cfg.ControlBytes < 0 || math.IsNaN(cfg.ControlBytes) || math.IsInf(cfg.ControlBytes, 0) {
		return fmt.Errorf("%w: control bytes %v", ErrConfig, cfg.ControlBytes)
	}
	if err := buffer.CheckDropPolicy(cfg.DropPolicy); err != nil {
		return fmt.Errorf("%w: %v", ErrConfig, err)
	}
	for i, f := range cfg.Flows {
		if f.Count <= 0 {
			return fmt.Errorf("%w: flow %d has count %d", ErrConfig, i, f.Count)
		}
		if f.Size < 0 {
			return fmt.Errorf("%w: flow %d has bundle size %d", ErrConfig, i, f.Size)
		}
		if f.Src == f.Dst {
			return fmt.Errorf("%w: flow %d is a self-loop on node %d", ErrConfig, i, f.Src)
		}
		// The `!(x >= 0)` form also refuses NaN, which passes `x < 0`
		// and would never start.
		if !(f.StartAt >= 0) || math.IsInf(float64(f.StartAt), 0) {
			return fmt.Errorf("%w: flow %d starts at %v", ErrConfig, i, f.StartAt)
		}
		n := contact.NodeID(cfg.nodeCount())
		if f.Src < 0 || f.Src >= n || f.Dst < 0 || f.Dst >= n {
			return fmt.Errorf("%w: flow %d endpoints (%d,%d) outside [0,%d)", ErrConfig, i, f.Src, f.Dst, n)
		}
	}
	return cfg.checkTicks(cap)
}

// maxTicks bounds the sampling ticks a run may ask for, the way
// mobility.MaxNodes bounds populations: every tick samples every node,
// so a horizon far past the contacts — or a sample period far below
// them — would sample for hours while nothing happens. The largest
// shipped scenario, the 600000 s RWP and subscriber default span at the
// default 1000 s period, takes 600 ticks; the bound is over 1700 times
// that.
const maxTicks = 1 << 20

// checkTicks refuses a run whose first flow start and horizon cap are
// more than maxTicks sampling periods apart. validate calls it once the
// flows and the period are known to be valid.
func (cfg Config) checkTicks(cap sim.Time) error {
	first := sim.Infinity
	for _, f := range cfg.Flows {
		first = min(first, f.StartAt)
	}
	// Written so that a NaN tick count fails it too.
	if ticks := float64(cap-first) / cfg.SampleEvery; !(ticks <= maxTicks) {
		return fmt.Errorf("%w: %v s from the first flow start to horizon %v at one sample every %v s is %.3g ticks, over the bound of %d",
			ErrConfig, float64(cap-first), float64(cap), cfg.SampleEvery, ticks, maxTicks)
	}
	return nil
}
