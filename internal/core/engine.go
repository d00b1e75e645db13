package core

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"slices"
	"sort"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
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

// Runner executes runs one after another and keeps each run's working
// memory for the next (DESIGN.md §12): the node slab with its stores
// and received sets, the protocol state slab, the pool with its
// kernels, the window with its effect buffers, the holder tracker, and
// the delivery, delay, flow and observer slices. A sweep worker owns
// one (experiment's runGrid), so its runs after the first build no
// population and grow no store, protocol table, offer scratch or effect
// buffer they have grown before. Reuse is
// invisible: a run on a warmed Runner returns what a fresh one would,
// bit for bit, and no Result shares memory with the Runner.
//
// Between runs a Runner holds those slabs and nothing else — no
// Config, source, protocol, observer or bundle. The zero Runner is
// ready and allocates what a one-shot run needs, so Run is
// new(Runner).Run. A Runner belongs to one goroutine: its runs may not
// overlap.
type Runner struct{ r run }

// slabs is the part of a run that outlives it in its Runner. Every
// field is sized for the run in start, through the constructor that
// built it, and emptied by release.
type slabs struct {
	nodes []*node.Node
	// ext holds every node's protocol state by value; Init points each
	// node's Ext into it.
	ext protocol.Slab
	// holders maintains per-bundle holder counts incrementally from the
	// merged store/drop effects (in creation order, replacing the old
	// tracked-bundle scan), making each sampling tick O(nodes + tracked)
	// instead of O(nodes × tracked).
	holders metrics.HolderTracker
	// pool is the in-tree executor, kept while the kernel count matches
	// (chooseExecutor); a Config.Backend run leaves it idle.
	pool *pool
	// window holds the collected, not yet executed items in canonical
	// order. Its capacity is the window size chooseExecutor derived;
	// the slots and their effect buffers are reused for the whole run
	// and the Runner's later ones.
	window Epoch
	// deliveredAt is each bundle's arrival time by its dense index (the
	// holder tracker's creation order), zero until it arrives: an arrival
	// completes a transmission after a contact start >= 0, so it is never
	// at 0. result turns it into Result.DeliveryTimes once.
	deliveredAt []sim.Time
	// delays accumulates per-bundle delivery delays, measured from each
	// bundle's own CreatedAt (bundles from late-starting flows must not
	// inherit another flow's start time). It is sized from the flow plan:
	// a run delivers each bundle at most once.
	delays []float64
	// flows is the workload sorted by (StartAt, declaration order): the
	// canonical order of generation items.
	flows []flow
	// obs is every observer of the run: the built-in collector first,
	// then Config.Observers in order.
	obs []Observer
}

// run is one run: its state and its loop (loop.go).
type run struct {
	slabs
	cfg  Config
	coll metrics.Collector
	// exec executes the items; occupancy is its NodeOccupancy, bound
	// once (a method value built per tick would allocate per tick): the
	// pool's when it was built, a Config.Backend's per run.
	exec      EpochBackend
	occupancy func(int) float64
	// src streams the contact plan; a materialized Config.Schedule is
	// adapted via Stream, so the run has a single pull-based path.
	src contact.Source
	// cap is the run's horizon bound; adaptiveCap marks it as a
	// source-reported upper bound (the generator's span) that settle
	// tightens to the true latest contact end at source exhaustion,
	// reproducing a materialized schedule's horizon exactly. horizon is
	// the effective bound: cap until settle lowers it.
	cap         sim.Time
	adaptiveCap bool
	srcDone     bool
	horizon     sim.Time
	// Incremental stream validation: contacts must arrive in canonical
	// start order with in-range endpoints. checked marks a
	// Config.Schedule, whose contacts plan already checked, so pull does
	// not check them again.
	checked   bool
	prevStart sim.Time
	maxEnd    sim.Time
	pulled    int
	// err truncates the run: the first stream failure (or a cancel seen
	// mid-epoch) stops collection and is returned from Run.
	err error

	nextFlow int
	// pending buffers the one contact pulled past the current epoch
	// boundary (the stream is start-sorted, so one suffices).
	pending    contact.Contact
	hasPending bool
	// collected counts items across epochs, pacing the Context poll.
	collected int

	remaining   int
	firstStart  sim.Time
	lastArrival sim.Time
	// sample is the last tick's observation; quiet marks that no item
	// has executed since it was taken.
	sample metrics.Sample
	quiet  bool
}

type flow struct {
	f              Flow
	base, firstSeq int
}

// Run executes one simulation on a fresh Runner and returns its result.
func Run(cfg Config) (*Result, error) { return new(Runner).Run(cfg) }

// Run executes one simulation and returns its result: the engine's one
// entry. The run reuses what the Runner's earlier runs left and leaves
// the Runner holding only that memory, however it ends.
func (w *Runner) Run(cfg Config) (*Result, error) {
	if closer, ok := cfg.Source.(io.Closer); ok {
		// A file-backed source must be released however the run ends:
		// validation failure, early termination, explicit horizon.
		defer closer.Close()
	}
	cfg = cfg.withDefaults()
	src, err := cfg.plan()
	if err != nil {
		return nil, err
	}
	if err := cfg.validate(src); err != nil {
		return nil, err
	}
	r := &w.r
	defer r.release()
	r.start(cfg, src)
	if err := r.chooseExecutor(); err != nil {
		return nil, err
	}
	// Prime the stream: an immediately-exhausted source is rejected
	// here, like Schedule.Validate's empty-schedule error on the
	// materialized path.
	r.pull()
	if r.err != nil {
		return nil, r.err
	}
	if r.pulled == 0 {
		return nil, fmt.Errorf("%w: %v", ErrConfig, contact.ErrEmptySchedule)
	}
	end, err := r.loop()
	if err != nil {
		return nil, err
	}
	if err := r.cancelled(end); err != nil {
		return nil, err
	}
	// A backend that executed elsewhere writes the final node states
	// back: Result's per-node columns (occupancy, buffered copies,
	// control overhead) read r.nodes.
	if err := r.exec.Finish(); err != nil {
		return nil, err
	}
	return r.result(end), nil
}

// start makes r the run of cfg over the contact plan src: the zero run
// but for the slabs, each sized for this run through the constructor
// that built it. Assigning the whole struct is the reset, so a field
// added later cannot leak from one run into the next.
func (r *run) start(cfg Config, src contact.Source) {
	cap, adaptive := cfg.horizonCap(src)
	*r = run{
		slabs:       r.slabs,
		cfg:         cfg,
		checked:     cfg.Schedule != nil,
		src:         src,
		cap:         cap,
		adaptiveCap: adaptive,
		horizon:     cap,
		firstStart:  sim.Infinity,
	}
	r.obs = append(append(r.obs[:0], &r.coll), cfg.Observers...)
	r.nodes = node.NewPopulation(r.nodes, cfg.nodeCount(), cfg.BufferCap)
	r.ext.Size(len(r.nodes))
	for _, n := range r.nodes {
		if cfg.BufferBytes > 0 {
			n.Store.SetByteCap(cfg.BufferBytes)
		}
		cfg.Protocol.Init(n, &r.ext)
	}
	r.flows = flowPlan(r.flows, cfg.Flows)
	for _, f := range cfg.Flows {
		if f.StartAt < r.firstStart {
			r.firstStart = f.StartAt
		}
		r.remaining += f.Count
	}
	r.holders.Clear()
	r.holders.Grow(r.remaining)
	r.deliveredAt = zeroed(r.deliveredAt, r.remaining)
	r.delays = slices.Grow(r.delays[:0], r.remaining)
	slices.SortStableFunc(r.flows, func(a, b flow) int { return cmp.Compare(a.f.StartAt, b.f.StartAt) })
}

// release empties r for the Runner's next run, however this one ended.
// The population and the pool are reset through the constructors start
// and chooseExecutor size them with, for an empty run, which drops every
// copy, protocol state, protocol, drop policy and node reference the
// run left in them; then the run itself is zeroed but for its slabs,
// which drops the executor and its bound NodeOccupancy. The protocol
// slab needs nothing: no node points into it any more, and the next
// run's Init resets what it hands out.
func (r *run) release() {
	r.nodes = node.NewPopulation(r.nodes, 0, r.cfg.BufferCap)
	if r.pool != nil {
		r.pool.release()
	}
	clear(r.obs)
	r.obs = r.obs[:0]
	*r = run{slabs: r.slabs}
}

// zeroed returns s resliced to n zero elements, reusing its array when
// it has room.
func zeroed[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	s = s[:n]
	clear(s)
	return s
}

// chooseExecutor is the one place the executor and its window size are
// decided: a configured Backend wins, otherwise the in-tree pool. The
// size is derived, never configured: WindowItems for an executor that
// can spread a window's node-disjoint parts; 1 when one kernel executes
// — nothing to schedule, and every extra slot is an effect buffer the
// sequential run would grow for nothing (512 of them cost the loaded
// 1000-node cell +18 % bytes, the paper grid +90 %). The pool gets
// poolKernels kernels.
func (r *run) chooseExecutor() error {
	size := WindowItems
	r.exec = r.cfg.Backend
	if r.exec == nil {
		k := poolKernels(r.cfg.Shards, len(r.nodes))
		if k == 1 {
			size = 1
		}
		if r.pool == nil || len(r.pool.kernels) != k {
			r.pool = newPool(k)
		}
		r.exec, r.occupancy = r.pool, r.pool.occupancy
	} else {
		r.occupancy = r.exec.NodeOccupancy
	}
	// The window's capacity is its size; slots past it, and their
	// effect buffers, wait for a run that needs them.
	if cap(r.window.items) < size {
		r.window.items = make([]EpochItem, 0, size)
	}
	r.window.items = r.window.items[:0:size]
	return r.exec.Start(RunEnv{Cfg: r.cfg, Nodes: r.nodes})
}

// poolKernels is how many kernels the pool builds for Shards on a
// population of nodes: min(Shards, nodes, WindowItems), at least one.
// A window's lists are node-disjoint and it holds at most WindowItems
// items, so it has at most min(nodes, WindowItems) components; a kernel
// past that could never get work, yet Split would deal across it for
// every component. Only Go callers set Shards (no scenario file or
// command reaches it), but an absurd value must still not size an
// allocation.
func poolKernels(shards, nodes int) int { return max(1, min(shards, nodes, WindowItems)) }

// cancelled reports a cancelled or expired Config.Context as the run's
// error. A run truncated by cancellation has no meaningful Result: the
// error says where it stopped and why, wrapping both ErrCancelled and
// the context's error so callers can errors.Is against either
// (context.Canceled, context.DeadlineExceeded).
func (r *run) cancelled(at sim.Time) error {
	ctx := r.cfg.Context
	if ctx == nil || ctx.Err() == nil {
		return nil
	}
	return fmt.Errorf("%w at t=%v: %w", ErrCancelled, at, context.Cause(ctx))
}

// flowPlan assigns each flow, in declaration order, its per-source
// sequence block and the first-sequence anchor of its (src, dst) pair.
// Sequence numbers are 1-based per source, matching the paper's
// "bundles 1 to k"; when several flows share a source, each flow takes
// the next contiguous block so IDs never collide. The anchor is
// the lowest block base among the flows sharing a bundle's (Src, Dst)
// pair: cumulative immunity keys its tables by that pair, so an
// acknowledgement anchored any higher could falsely cover another block
// of the same pair. The plan fills prev's array when it has room.
func flowPlan(prev []flow, flows []Flow) []flow {
	type pair struct{ src, dst contact.NodeID }
	nextSeq := make(map[contact.NodeID]int)
	firstSeq := make(map[pair]int)
	plan := zeroed(prev, len(flows))
	for i, f := range flows {
		base := nextSeq[f.Src] + 1
		nextSeq[f.Src] += f.Count
		key := pair{f.Src, f.Dst}
		if fs, ok := firstSeq[key]; !ok || base < fs {
			firstSeq[key] = base
		}
		plan[i] = flow{f: f, base: base}
	}
	for i, f := range flows {
		plan[i].firstSeq = firstSeq[pair{f.Src, f.Dst}]
	}
	return plan
}

// checkStreamed validates one pulled contact against the stream
// invariants a materialized schedule would have been checked for up
// front.
func (r *run) checkStreamed(c contact.Contact) error {
	if err := c.Validate(); err != nil {
		return fmt.Errorf("core: streamed contact %d: %w", r.pulled, err)
	}
	if int(c.B) >= len(r.nodes) {
		return fmt.Errorf("core: streamed contact %d: node %d out of range [0,%d)", r.pulled, c.B, len(r.nodes))
	}
	if c.Start < r.prevStart {
		return fmt.Errorf("core: streamed contact %d: start %v before previous start %v (stream not sorted)",
			r.pulled, c.Start, r.prevStart)
	}
	return nil
}

func (r *run) result(end sim.Time) *Result {
	generated := len(r.deliveredAt)
	delivered := generated - r.remaining
	times := make(map[bundle.ID]sim.Time, delivered)
	for _, fl := range r.flows {
		for i := 0; i < fl.f.Count; i++ {
			id := bundle.ID{Src: fl.f.Src, Seq: fl.base + i}
			if x := r.holders.Index(id); x >= 0 && r.deliveredAt[x] > 0 {
				times[id] = r.deliveredAt[x]
			}
		}
	}
	res := &Result{
		Protocol:          r.cfg.Protocol.Name(),
		Generated:         generated,
		Delivered:         delivered,
		DeliveryRatio:     float64(delivered) / float64(generated),
		Completed:         delivered == generated,
		Makespan:          -1,
		MeanOccupancy:     r.coll.MeanOccupancy(),
		MeanDuplication:   r.coll.MeanDuplication(),
		ControlRecords:    r.coll.Records(),
		DataTransmissions: r.coll.Transmissions(),
		Refused:           r.coll.DropsByReason(node.DropRefused),
		Evicted:           r.coll.DropsByReason(node.DropEvicted),
		Expired:           r.coll.DropsByReason(node.DropExpired),
		ByteDropped:       r.coll.DropsByReason(node.DropBytePressure),
		FinishedAt:        end,
		DeliveryTimes:     times,
	}
	if res.Completed {
		res.Makespan = float64(r.lastArrival - r.firstStart)
	}
	if delivered > 0 {
		sort.Float64s(r.delays)
		res.MeanDelay = stats.Mean(r.delays)
		res.DelayP50 = stats.Quantile(r.delays, 0.5)
		res.DelayP95 = stats.Quantile(r.delays, 0.95)
	}
	res.FinalOccupancy = make([]float64, len(r.nodes))
	res.FinalBuffered = make([]int, len(r.nodes))
	for i, n := range r.nodes {
		res.FinalOccupancy[i] = n.Store.Occupancy()
		res.FinalBuffered[i] = n.Store.Len()
	}
	return res
}
