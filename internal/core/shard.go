package core

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// This file is the engine's one loop (DESIGN.md §12). Every run —
// whatever executes its items — is the same sequence of epochs, and
// Results and observer event streams are bit-identical for every
// executor and every shard count.
//
// The design in one paragraph: virtual time is cut into epochs at the
// sampling ticks (the only events that read global state). Within an
// epoch, flow generations and contacts are collected in canonical
// order — by time, generations before contacts at equal times, each in
// its own declaration or stream order — and each item is ready to
// execute as soon as the previous item touching either of its nodes has
// finished (per-node dependency chains). An item executes in a Kernel
// (kernel.go), mutating only the states of its own two nodes and
// recording its global side effects (observer events, holder-count and
// delivery bookkeeping) into a per-item effect buffer; a single merger
// replays the buffers in canonical item order, so everything
// order-sensitive — observer CSV streams, delay accumulation,
// duplication metrics — is the same whoever executed the item. Random
// draws inside a contact come from a per-kernel stream reseeded from
// sim.EncounterSeed, so the draw sequence is a function of the
// encounter, not of the executor.
//
// Three executors share the loop. Shards == 0 executes and merges each
// item on the calling goroutine as it is collected, so the epoch is
// never materialized (the 5k-node streaming cell would otherwise pay
// ~2× the bytes). Shards >= 1 materializes the epoch, dispatches it to
// K worker goroutines along the dependency chains and merges after the
// barrier. A Config.Backend (internal/dist) materializes the epoch too
// and replaces only runEpoch's dispatch — collection, merge and
// sampling stay on this loop (backend.go).

// EffectKind tags one recorded side effect.
type EffectKind uint8

const (
	EffectGenerate EffectKind = iota // a workload bundle was created at its source
	EffectTransmit                   // a bundle went on the air
	EffectDeliver                    // a bundle reached its destination
	EffectDrop                       // a node shed (or refused) a copy
	EffectStored                     // a relay stored a copy
)

// Effect is one deferred global side effect of an item, replayed by the
// merger in canonical order. Field use varies by kind; see merge.
type Effect struct {
	Kind   EffectKind
	From   contact.NodeID // transmit: sender; drop: the shedding node
	To     contact.NodeID // transmit: receiver; generate/deliver: destination
	ID     bundle.ID
	Reason node.DropReason // drop only
	At     sim.Time
	Delay  float64 // deliver only
}

// EffectBuf accumulates one item's effects in program order.
type EffectBuf struct{ fx []Effect }

//dtn:hotpath
func (b *EffectBuf) add(e Effect) { b.fx = append(b.fx, e) }

// Effects returns the recorded effects in program order. The slice is
// owned by the buffer; callers must not retain it across epochs.
func (b *EffectBuf) Effects() []Effect { return b.fx }

// Set replaces the buffer's contents — how a distributed backend
// installs a worker's replayed effects before the merge.
func (b *EffectBuf) Set(fx []Effect) { b.fx = append(b.fx[:0], fx...) }

// EpochItem is one unit of epoch work: a flow generation (Gen=true,
// endpoint A only) or a contact (endpoints A < B). deps counts
// unfinished predecessor items on its nodes' chains; next holds the
// successor on A's chain (slot 0) and B's chain (slot 1).
type EpochItem struct {
	T   sim.Time
	Gen bool
	A,
	B contact.NodeID
	C              contact.Contact
	Flow           Flow
	Base, FirstSeq int
	deps           int32
	next           [2]*EpochItem
	Fx             EffectBuf
}

// shardWorker is one executor goroutine's private state: a Kernel with
// its own reseedable encounter stream and drop-policy instance, so no
// random draw ever crosses a goroutine boundary.
type shardWorker struct {
	kern *Kernel
	mbox chan *EpochItem
}

// shardRun drives the epoch loop over an engine's state.
type shardRun struct {
	e *engine
	k int
	// horizon is the effective run bound: the engine's cap, lowered by
	// settle once an adaptive source's true extent is known.
	horizon sim.Time
	// flows is the workload sorted by (StartAt, declaration order): the
	// canonical order of generation items.
	flows    []shardFlow
	nextFlow int
	// pending buffers the one contact pulled past the current epoch
	// boundary (the stream is start-sorted, so one suffices).
	pending    contact.Contact
	hasPending bool
	// items is the current epoch's canonical-order item list, reused
	// across epochs (grown once, effect buffers keep their capacity).
	// The inline executor only ever holds the item in flight here.
	items []EpochItem
	// collected counts items across epochs, pacing the Context poll.
	collected int
	// tails/touched index the per-node chain heads during item linking.
	tails   []*EpochItem
	touched []contact.NodeID
	// workers are the in-process executors, one per shard (none under a
	// Backend). Shards == 0 has a single one whose kernel is inline:
	// collect runs and merges each item through it on the calling
	// goroutine instead of dispatching.
	workers []*shardWorker
	inline  *Kernel
}

type shardFlow struct {
	f              Flow
	base, firstSeq int
}

// run executes the run's epochs on the configured executor. It is called
// from Run after common setup (validation, node creation).
func (e *engine) run() (*Result, error) {
	r := &shardRun{
		e:       e,
		k:       e.cfg.Shards,
		horizon: e.cap,
		tails:   make([]*EpochItem, len(e.nodes)),
	}
	bases, firsts := flowPlan(e.cfg.Flows)
	r.flows = make([]shardFlow, len(e.cfg.Flows))
	for i, f := range e.cfg.Flows {
		r.flows[i] = shardFlow{f: f, base: bases[i], firstSeq: firsts[i]}
		if f.StartAt < e.firstStart {
			e.firstStart = f.StartAt
		}
		e.remaining += f.Count
	}
	sort.SliceStable(r.flows, func(i, j int) bool { return r.flows[i].f.StartAt < r.flows[j].f.StartAt })
	if b := e.cfg.Backend; b != nil {
		// Execution is delegated: items never run on this process's
		// nodes, so no local kernels (and no drop hooks) exist.
		if err := b.Start(RunEnv{Cfg: e.cfg, Nodes: e.nodes}); err != nil {
			return nil, err
		}
	} else {
		// hooks[n] is the effect buffer of the item currently executing
		// on node n. Only the kernel holding n's chain position touches
		// entry n, so writes are ordered by the chain's happens-before
		// edges.
		hooks := make([]*EffectBuf, len(e.nodes))
		r.workers = make([]*shardWorker, max(r.k, 1))
		for i := range r.workers {
			kern, err := NewKernel(&e.cfg, e.nodes, hooks)
			if err != nil {
				return nil, err
			}
			r.workers[i] = &shardWorker{kern: kern}
		}
		for _, n := range e.nodes {
			r.workers[0].kern.BindHook(n)
		}
		if r.k == 0 {
			r.inline = r.workers[0].kern
		}
	}
	// Prime the stream: an immediately-exhausted source is rejected
	// here, like Schedule.Validate's empty-schedule error on the
	// materialized path.
	r.pull()
	if e.err != nil {
		return nil, e.err
	}
	if e.pulled == 0 {
		return nil, fmt.Errorf("%w: %v", ErrConfig, contact.ErrEmptySchedule)
	}
	end, err := r.loop()
	if err != nil {
		return nil, err
	}
	if err := e.cancelled(end); err != nil {
		return nil, err
	}
	if b := e.cfg.Backend; b != nil {
		// Download the final node states: Result's per-node columns
		// (occupancy, buffered copies, overhead counters) read e.nodes.
		if err := b.Finish(); err != nil {
			return nil, err
		}
	}
	return e.result(end), nil
}

// loop runs epochs delimited by sampling ticks until the run completes
// (every flow delivered, observed at a tick) or the horizon is reached.
// The tick runs after the epoch's merge: among equal-time events a
// sample comes last.
func (r *shardRun) loop() (sim.Time, error) {
	e := r.e
	tickAt := e.firstStart
	last := sim.Time(math.Inf(-1)) // last completed epoch boundary
	for {
		if err := e.cancelled(last); err != nil {
			return 0, err
		}
		withTick := tickAt <= r.horizon
		boundary := tickAt
		if !withTick {
			boundary = r.horizon
		}
		r.collect(boundary)
		if e.err != nil {
			return 0, e.err
		}
		if r.horizon < boundary {
			// The stream settled mid-collection below the target
			// boundary, and collection stopped there: the tick at the
			// old boundary never fires (it is past the true horizon).
			boundary = r.horizon
			withTick = false
		}
		if err := r.runEpoch(); err != nil {
			return 0, err
		}
		r.merge()
		if !withTick {
			// Final partial epoch (lastTick, horizon]: the run ends at
			// the horizon, raised to the last arrival — deliveries
			// inside the final contact complete after its start.
			end := r.horizon
			if e.lastArrival > end {
				end = e.lastArrival
			}
			return end, nil
		}
		var s = r.sample(tickAt)
		for _, o := range e.obs {
			o.OnSample(s)
		}
		// Completion is detected here, not mid-contact: quantizing the
		// early stop to sampling ticks makes the set of processed items
		// a pure function of (config, seed) rather than of processing
		// order, which is what lets a whole inter-tick epoch run in
		// parallel and still stop at the same tick. The run then ends at
		// the final arrival; the tick's own timestamp is a detection
		// artifact, not an event.
		if e.remaining == 0 && !e.cfg.RunToHorizon {
			return e.lastArrival, nil
		}
		tickAt += sim.Time(e.cfg.SampleEvery)
		last = boundary
	}
}

// sample reads the tick's metrics: local node stores on the in-process
// executor, the backend's authoritative occupancy view when execution
// is delegated (this process's nodes are stale between epochs there).
// Duplication comes from the merge-maintained holder counts either way.
func (r *shardRun) sample(tickAt sim.Time) metrics.Sample {
	e := r.e
	if b := e.cfg.Backend; b != nil {
		return e.holders.SampleFunc(len(e.nodes), b.NodeOccupancy, tickAt)
	}
	return e.holders.Sample(e.nodes, tickAt)
}

// pull advances the contact stream by one into pending, validating the
// stream incrementally: contacts must be individually valid, in-range,
// and in canonical start order. Pulling stops at the first contact
// starting beyond the horizon (the stream is sorted, so the rest are
// out of range too).
func (r *shardRun) pull() {
	e := r.e
	if e.srcDone || r.hasPending {
		return
	}
	c, ok := e.src.Next()
	if !ok {
		e.srcDone = true
		if err := e.src.Err(); err != nil {
			e.err = fmt.Errorf("core: contact source failed after %d contacts: %w", e.pulled, err)
			return
		}
		r.settle()
		return
	}
	if err := e.checkStreamed(c); err != nil {
		e.srcDone = true
		e.err = err
		return
	}
	e.pulled++
	e.prevStart = c.Start
	if c.End > e.maxEnd {
		e.maxEnd = c.End
	}
	if c.Start > e.cap {
		e.srcDone = true
		r.settle()
		return
	}
	r.pending, r.hasPending = c, true
}

// settle tightens an adaptive (source-span) horizon to the true latest
// contact end once the stream is exhausted. Anything collected before
// this point is at or before the last contact's start, so lowering the
// bound here is indistinguishable from having known it up front.
func (r *shardRun) settle() {
	if !r.e.adaptiveCap {
		return
	}
	h := r.e.maxEnd
	if h > r.e.cap {
		h = r.e.cap
	}
	if h < r.horizon {
		r.horizon = h
	}
}

// collect gathers the epoch's items in canonical order: flow
// generations (declaration order) merged with contacts (stream order)
// by time, generations first at equal times, up to and including the
// boundary — or the horizon, should a pull settle it below the boundary
// on the way. The inline executor runs and merges each item here, so
// the list never grows; the others leave it materialized for runEpoch.
func (r *shardRun) collect(boundary sim.Time) {
	e := r.e
	r.items = r.items[:0]
	for {
		ft := sim.Infinity
		if r.nextFlow < len(r.flows) {
			ft = r.flows[r.nextFlow].f.StartAt
		}
		r.pull()
		if e.err != nil {
			return
		}
		ct := sim.Infinity
		if r.hasPending {
			ct = r.pending.Start
		}
		bound := min(boundary, r.horizon)
		if ft > bound && ct > bound {
			return
		}
		if r.collected++; r.collected%interruptEvery == 0 {
			// Amortized: ctx.Err() may take a lock, so one real check per
			// interruptEvery items keeps a cancellable run within noise
			// of a plain one while still reacting within a sliver of
			// wall time, however long the epoch.
			if e.err = e.cancelled(min(ft, ct)); e.err != nil {
				return
			}
		}
		it := r.nextItem()
		if ft <= ct {
			fl := r.flows[r.nextFlow]
			r.nextFlow++
			it.T, it.Gen = ft, true
			it.A, it.B = fl.f.Src, fl.f.Src
			it.Flow, it.Base, it.FirstSeq = fl.f, fl.base, fl.firstSeq
		} else {
			c := r.pending
			r.hasPending = false
			it.T, it.Gen = ct, false
			it.A, it.B = c.A, c.B
			it.C = c
		}
		if r.inline != nil {
			r.inline.Exec(it)
			r.merge()
			r.items = r.items[:0]
		}
	}
}

// nextItem extends the epoch item list by one reused slot. collect
// drops the pointer before its next call and chains are only linked
// after collection finishes, so append reallocation during growth is
// safe.
func (r *shardRun) nextItem() *EpochItem {
	if len(r.items) < cap(r.items) {
		r.items = r.items[:len(r.items)+1]
	} else {
		r.items = append(r.items, EpochItem{})
	}
	it := &r.items[len(r.items)-1]
	it.Fx.fx = it.Fx.fx[:0]
	it.next[0], it.next[1] = nil, nil
	it.deps = 0
	return it
}

// runEpoch executes the materialized items on K workers — or ships the
// whole epoch to the configured backend; the inline executor left it
// nothing to do. Dependency chains: an item is ready once every earlier
// item sharing one of its nodes has finished; readiness is tracked with
// an atomic countdown and ready items travel to their owner shard
// (lower endpoint mod K) over buffered channels, so sends never block
// and every channel receive gives the race detector the happens-before
// edge matching the chain.
func (r *shardRun) runEpoch() error {
	n := len(r.items)
	if n == 0 {
		return nil
	}
	if b := r.e.cfg.Backend; b != nil {
		// The backend owns node state and dependency scheduling; it must
		// leave each item's Fx holding the effects the in-process kernel
		// would have recorded, in the same program order.
		return b.RunEpoch(&Epoch{r: r})
	}
	for i := range r.items {
		it := &r.items[i]
		r.chain(it, it.A)
		if it.B != it.A {
			r.chain(it, it.B)
		}
	}
	var items sync.WaitGroup
	items.Add(n)
	for _, w := range r.workers {
		w.mbox = make(chan *EpochItem, n)
	}
	// Seed the roots before any worker starts: deps still holds the
	// chain builder's single-threaded value here, so "deps == 0" is
	// exactly the root set, and the buffered sends cannot block. Seeding
	// after spawn would race — a running worker's fanout can decrement a
	// successor to zero and enqueue it while the scan is still walking,
	// and the scan would then send that item a second time.
	for i := range r.items {
		it := &r.items[i]
		if it.deps == 0 {
			r.workers[int(it.A)%r.k].mbox <- it
		}
	}
	var done sync.WaitGroup
	for _, w := range r.workers {
		done.Add(1)
		go func(w *shardWorker) {
			defer done.Done()
			for it := range w.mbox {
				w.kern.Exec(it)
				r.fanout(it)
				items.Done()
			}
		}(w)
	}
	items.Wait()
	for _, w := range r.workers {
		close(w.mbox)
	}
	done.Wait()
	for _, nd := range r.touched {
		r.tails[nd] = nil
	}
	r.touched = r.touched[:0]
	return nil
}

// chain links it onto node nd's dependency chain.
func (r *shardRun) chain(it *EpochItem, nd contact.NodeID) {
	prev := r.tails[nd]
	if prev == nil {
		r.touched = append(r.touched, nd)
	} else {
		slot := 0
		if prev.A != nd {
			slot = 1
		}
		prev.next[slot] = it
		it.deps++
	}
	r.tails[nd] = it
}

// fanout releases it's chain successors, dispatching any that became
// ready to their owner shard's mailbox.
//
//dtn:hotpath
func (r *shardRun) fanout(it *EpochItem) {
	for s := 0; s < 2; s++ {
		nxt := it.next[s]
		if nxt != nil && atomic.AddInt32(&nxt.deps, -1) == 0 {
			r.workers[int(nxt.A)%r.k].mbox <- nxt
		}
	}
}

// merge replays the collected items' effect buffers in canonical item
// order on the loop's goroutine: the observer call sequence and the
// holder/delivery bookkeeping are the same whoever executed the items.
//
//dtn:hotpath
func (r *shardRun) merge() {
	e := r.e
	for i := range r.items {
		it := &r.items[i]
		for j := range it.Fx.fx {
			fx := &it.Fx.fx[j]
			switch fx.Kind {
			case EffectGenerate:
				e.holders.Track(fx.ID)
				e.holders.Inc(fx.ID)
				for _, o := range e.obs {
					o.OnGenerate(fx.ID, fx.To, fx.At)
				}
			case EffectTransmit:
				for _, o := range e.obs {
					o.OnTransmit(fx.From, fx.To, fx.ID, fx.At)
				}
			case EffectDeliver:
				e.deliveredAt[fx.ID] = fx.At
				e.delays = append(e.delays, fx.Delay)
				for _, o := range e.obs {
					o.OnDeliver(fx.ID, fx.To, fx.Delay, fx.At)
				}
				if fx.At > e.lastArrival {
					e.lastArrival = fx.At
				}
				e.remaining--
			case EffectDrop:
				if fx.Reason != node.DropRefused {
					// Every non-refusal drop sheds a stored copy;
					// refusals never stored one.
					e.holders.Dec(fx.ID)
				}
				for _, o := range e.obs {
					o.OnDrop(fx.From, fx.ID, fx.Reason, fx.At)
				}
			case EffectStored:
				e.holders.Inc(fx.ID)
			}
		}
	}
}
