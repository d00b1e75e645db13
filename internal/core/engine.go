package core

import (
	"context"
	"errors"
	"fmt"
	"io"
	"sort"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
	"dtnsim/internal/stats"
)

// Result summarizes one run.
type Result struct {
	// Protocol is the display name of the protocol under test.
	Protocol string
	// Generated and Delivered count workload bundles.
	Generated, Delivered int
	// DeliveryRatio is Delivered/Generated: the paper's delivery ratio.
	DeliveryRatio float64
	// Completed reports whether every flow delivered all bundles before
	// the horizon. Failed runs record no delay (§IV).
	Completed bool
	// Makespan is the paper's delay metric: seconds from the earliest
	// flow start until the last bundle arrived. Valid only if Completed.
	Makespan float64
	// MeanDelay is the mean per-bundle delivery delay of the bundles
	// that did arrive (an auxiliary metric, defined even for failed
	// runs with at least one delivery).
	MeanDelay float64
	// DelayP50 and DelayP95 are per-bundle delay quantiles over the
	// delivered bundles; zero when nothing was delivered.
	DelayP50, DelayP95 float64
	// MeanOccupancy is the time- and node-averaged buffer occupancy.
	MeanOccupancy float64
	// MeanDuplication is the time- and bundle-averaged duplication rate.
	MeanDuplication float64
	// ControlRecords is the total signaling overhead in records.
	ControlRecords int64
	// DataTransmissions counts bundle transmissions.
	DataTransmissions int64
	// Refused, Evicted and Expired aggregate buffer-policy events.
	Refused, Evicted, Expired int64
	// ByteDropped aggregates copies shed by the buffer DropPolicy under
	// byte pressure; always zero in the unconstrained default model.
	ByteDropped int64
	// FinishedAt is the virtual time the run ended.
	FinishedAt sim.Time
	// DeliveryTimes maps each delivered bundle to its arrival time.
	DeliveryTimes map[bundle.ID]sim.Time
	// FinalOccupancy is each node's buffer occupancy when the run
	// ended, indexed by node ID.
	FinalOccupancy []float64
	// FinalBuffered is the number of copies each node held at the end.
	FinalBuffered []int
}

// ErrCancelled wraps run abortions triggered through Config.Context
// (explicit cancel or per-run deadline). The context's own error is
// wrapped alongside it, so errors.Is works against ErrCancelled,
// context.Canceled and context.DeadlineExceeded alike.
var ErrCancelled = errors.New("core: run cancelled")

// interruptEvery is how many collected items separate consecutive
// Context polls: small enough that a cancel lands within microseconds
// of real work, large enough that ctx.Err()'s lock never shows up in
// the contact hot path.
const interruptEvery = 64

// engine is the per-run state.
type engine struct {
	cfg   Config
	nodes []*node.Node
	coll  *metrics.Collector
	// obs is every observer of this run: the built-in collector first,
	// then Config.Observers in order.
	obs []Observer
	// holders maintains per-bundle holder counts incrementally from the
	// merged store/drop effects (in creation order, replacing the old
	// tracked-bundle scan), making each sampling tick O(nodes + tracked)
	// instead of O(nodes × tracked).
	holders *metrics.HolderTracker
	// src streams the contact plan; a materialized Config.Schedule is
	// adapted via Stream, so the engine has a single pull-based path.
	src contact.Source
	// cap is the run's horizon bound; adaptiveCap marks it as a
	// source-reported upper bound (the generator's span) that settle
	// tightens to the true latest contact end at source exhaustion,
	// reproducing a materialized schedule's horizon exactly.
	cap         sim.Time
	adaptiveCap bool
	srcDone     bool
	// Incremental stream validation: contacts must arrive in canonical
	// start order with in-range endpoints.
	prevStart sim.Time
	maxEnd    sim.Time
	pulled    int
	// err truncates the run: the first stream failure (or a cancel seen
	// mid-epoch) stops collection and is returned from Run.
	err error

	remaining   int
	deliveredAt map[bundle.ID]sim.Time
	// delays accumulates per-bundle delivery delays, measured from each
	// bundle's own CreatedAt (bundles from late-starting flows must not
	// inherit another flow's start time).
	delays      []float64
	firstStart  sim.Time
	lastArrival sim.Time
}

// Run executes one simulation and returns its result.
func Run(cfg Config) (*Result, error) {
	if closer, ok := cfg.Source.(io.Closer); ok {
		// A file-backed source must be released however the run ends:
		// validation failure, early termination, explicit horizon.
		defer closer.Close()
	}
	cfg = cfg.withDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	src := cfg.Source
	if cfg.Schedule != nil {
		src = cfg.Schedule.Stream()
	}
	cap, adaptive := cfg.horizonCap()
	e := &engine{
		cfg:         cfg,
		holders:     metrics.NewHolderTracker(),
		src:         src,
		cap:         cap,
		adaptiveCap: adaptive,
		deliveredAt: make(map[bundle.ID]sim.Time),
		firstStart:  sim.Infinity,
	}
	e.coll = metrics.NewCollector()
	e.obs = append([]Observer{e.coll}, cfg.Observers...)
	e.nodes = make([]*node.Node, cfg.nodeCount())
	for i := range e.nodes {
		n := node.New(contact.NodeID(i), cfg.BufferCap)
		if cfg.BufferBytes > 0 {
			n.Store.SetByteCap(cfg.BufferBytes)
		}
		cfg.Protocol.Init(n)
		e.nodes[i] = n
	}
	return e.run()
}

// cancelled reports a cancelled or expired Config.Context as the run's
// error. A run truncated by cancellation has no meaningful Result: the
// error says where it stopped and why, wrapping both ErrCancelled and
// the context's error so callers can errors.Is against either
// (context.Canceled, context.DeadlineExceeded).
func (e *engine) cancelled(at sim.Time) error {
	ctx := e.cfg.Context
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w at t=%v: %w", ErrCancelled, at, context.Cause(ctx))
}

// flowPlan assigns each flow its per-source sequence block and the
// first-sequence anchor of its (src, dst) pair. Sequence numbers are
// 1-based per source, matching the paper's "bundles 1 to k"; when
// several flows share a source, each flow takes the next contiguous
// block in flow-declaration order so IDs never collide. The anchor is
// the lowest block base among the flows sharing a bundle's (Src, Dst)
// pair: cumulative immunity keys its tables by that pair, so an
// acknowledgement anchored any higher could falsely cover another block
// of the same pair.
func flowPlan(flows []Flow) (bases, firsts []int) {
	type pair struct{ src, dst contact.NodeID }
	nextSeq := make(map[contact.NodeID]int)
	firstSeq := make(map[pair]int)
	bases = make([]int, len(flows))
	for i, f := range flows {
		bases[i] = nextSeq[f.Src] + 1
		nextSeq[f.Src] += f.Count
		key := pair{f.Src, f.Dst}
		if fs, ok := firstSeq[key]; !ok || bases[i] < fs {
			firstSeq[key] = bases[i]
		}
	}
	firsts = make([]int, len(flows))
	for i, f := range flows {
		firsts[i] = firstSeq[pair{f.Src, f.Dst}]
	}
	return bases, firsts
}

// checkStreamed validates one pulled contact against the stream
// invariants a materialized schedule would have been checked for up
// front.
func (e *engine) checkStreamed(c contact.Contact) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("core: streamed contact %d: %w", e.pulled, err)
	}
	if int(c.B) >= len(e.nodes) {
		return fmt.Errorf("core: streamed contact %d: node %d out of range [0,%d)", e.pulled, c.B, len(e.nodes))
	}
	if c.Start < e.prevStart {
		return fmt.Errorf("core: streamed contact %d: start %v before previous start %v (stream not sorted)",
			e.pulled, c.Start, e.prevStart)
	}
	return nil
}

func (e *engine) result(end sim.Time) *Result {
	generated := 0
	for _, f := range e.cfg.Flows {
		generated += f.Count
	}
	delivered := len(e.deliveredAt)
	r := &Result{
		Protocol:          e.cfg.Protocol.Name(),
		Generated:         generated,
		Delivered:         delivered,
		DeliveryRatio:     float64(delivered) / float64(generated),
		Completed:         delivered == generated,
		Makespan:          -1,
		MeanOccupancy:     e.coll.MeanOccupancy(),
		MeanDuplication:   e.coll.MeanDuplication(),
		ControlRecords:    metrics.Overhead(e.nodes),
		DataTransmissions: metrics.DataTransmissions(e.nodes),
		FinishedAt:        end,
		DeliveryTimes:     e.deliveredAt,
	}
	if r.Completed {
		r.Makespan = float64(e.lastArrival - e.firstStart)
	}
	if delivered > 0 {
		sort.Float64s(e.delays)
		r.MeanDelay = stats.Mean(e.delays)
		r.DelayP50 = stats.Quantile(e.delays, 0.5)
		r.DelayP95 = stats.Quantile(e.delays, 0.95)
	}
	r.FinalOccupancy = make([]float64, len(e.nodes))
	r.FinalBuffered = make([]int, len(e.nodes))
	for i, n := range e.nodes {
		r.Refused += n.Refused
		r.Evicted += n.Evicted
		r.Expired += n.Expired
		r.ByteDropped += n.ByteDropped
		r.FinalOccupancy[i] = n.Store.Occupancy()
		r.FinalBuffered[i] = n.Store.Len()
	}
	return r
}
