package core

import (
	"fmt"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// This file is the run's one loop (DESIGN.md §12). Every run — whatever
// executes its items — is the same sequence of epochs, and Results and
// observer event streams are bit-identical for every executor and every
// shard count.
//
// The design in one paragraph: virtual time is cut into epochs at the
// sampling ticks (the only events that read global state). Within an
// epoch, flow generations and contacts are collected in canonical
// order — by time, generations before contacts at equal times, each in
// its own declaration or stream order — and two items need ordering
// only when they share a node. An item executes in a Kernel
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
// There is one way to execute: collect fills a bounded window of items
// and flush hands it to the run's EpochBackend (backend.go) and merges
// what comes back — whenever the window is full and once at the epoch
// boundary, so no epoch is ever materialized. The backend is the
// in-tree pool of K kernels (pool.go; K = 1, the default, runs on the
// calling goroutine) or a Config.Backend (worker processes,
// internal/dist); chooseExecutor derives the window size from which.
// Collection, merge and sampling stay on this loop either way.

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
// endpoint A only, B == A) or a contact (endpoints A < B). Executing
// it fills Fx and, for a contact, Records: the control records its
// Exchange carried, which the merge counts (a generation carries 0).
type EpochItem struct {
	T   sim.Time
	Gen bool
	A,
	B contact.NodeID
	C              contact.Contact
	Flow           Flow
	Base, FirstSeq int
	Records        int
	Fx             EffectBuf
}

// loop runs epochs delimited by sampling ticks until the run completes
// (every flow delivered, observed at a tick) or the horizon is reached.
// The tick runs after the epoch's merge: among equal-time events a
// sample comes last.
func (r *run) loop() (sim.Time, error) {
	tickAt := r.firstStart
	// last is the last completed epoch boundary — where a cancel seen
	// between epochs says the run stopped. Before the first epoch that
	// is the first flow start: nothing earlier exists to have run.
	last := r.firstStart
	for {
		if err := r.cancelled(last); err != nil {
			return 0, err
		}
		withTick := tickAt <= r.horizon
		boundary := tickAt
		if !withTick {
			boundary = r.horizon
		}
		r.collect(boundary)
		if r.err != nil {
			return 0, r.err
		}
		if r.horizon < boundary {
			// The stream settled mid-collection below the target
			// boundary, and collection stopped there: the tick at the
			// old boundary never fires (it is past the true horizon).
			boundary = r.horizon
			withTick = false
		}
		if !withTick {
			// Final partial epoch (lastTick, horizon]: the run ends at
			// the horizon, raised to the last arrival — deliveries
			// inside the final contact complete after its start.
			end := r.horizon
			if r.lastArrival > end {
				end = r.lastArrival
			}
			return end, nil
		}
		// The executor's occupancy view, not r.nodes: a backend that
		// executes elsewhere leaves this process's nodes stale until
		// Finish. Duplication comes from the merge-maintained counts.
		// Only items change node state and holder counts, so a tick
		// after an epoch that executed none observes the last sample
		// at its own time.
		if !r.quiet {
			r.sample, r.quiet = r.holders.SampleFunc(len(r.nodes), r.occupancy, tickAt), true
		}
		r.sample.Now = tickAt
		for _, o := range r.obs {
			o.OnSample(r.sample)
		}
		// Completion is detected here, not mid-contact: quantizing the
		// early stop to sampling ticks makes the set of processed items
		// a pure function of (config, seed) rather than of processing
		// order, which is what lets a whole inter-tick epoch run in
		// parallel and still stop at the same tick. The run then ends at
		// the final arrival; the tick's own timestamp is a detection
		// artifact, not an event.
		if r.remaining == 0 && !r.cfg.RunToHorizon {
			return r.lastArrival, nil
		}
		tickAt += sim.Time(r.cfg.SampleEvery)
		last = boundary
	}
}

// pull advances the contact stream by one into pending, validating the
// stream incrementally: contacts must be individually valid, in-range,
// and in canonical start order. Pulling stops at the first contact
// starting beyond the horizon (the stream is sorted, so the rest are
// out of range too).
func (r *run) pull() {
	if r.srcDone || r.hasPending {
		return
	}
	c, ok := r.src.Next()
	if !ok {
		r.srcDone = true
		if err := r.src.Err(); err != nil {
			r.err = fmt.Errorf("core: contact source failed after %d contacts: %w", r.pulled, err)
			return
		}
		r.settle()
		return
	}
	if !r.checked {
		if err := r.checkStreamed(c); err != nil {
			r.srcDone = true
			r.err = err
			return
		}
	}
	r.pulled++
	r.prevStart = c.Start
	if c.End > r.maxEnd {
		r.maxEnd = c.End
	}
	if c.Start > r.cap {
		r.srcDone = true
		r.settle()
		return
	}
	r.pending, r.hasPending = c, true
}

// settle tightens an adaptive (source-span) horizon to the true latest
// contact end once the stream is exhausted. Anything collected before
// this point is at or before the last contact's start, so lowering the
// bound here is indistinguishable from having known it up front.
func (r *run) settle() {
	if !r.adaptiveCap {
		return
	}
	h := r.maxEnd
	if h > r.cap {
		h = r.cap
	}
	if h < r.horizon {
		r.horizon = h
	}
}

// collect gathers the epoch's items in canonical order: flow
// generations (declaration order) merged with contacts (stream order)
// by time, generations first at equal times, up to and including the
// boundary — or the horizon, should a pull settle it below the boundary
// on the way. Items go to the executor a window at a time, from inside
// this loop: returning to the caller per window costs the 12-node runs
// 5–8 % (measured), so the sequential hot path stays in one function.
func (r *run) collect(boundary sim.Time) {
	for {
		ft := sim.Infinity
		if r.nextFlow < len(r.flows) {
			ft = r.flows[r.nextFlow].f.StartAt
		}
		r.pull()
		if r.err != nil {
			return
		}
		ct := sim.Infinity
		if r.hasPending {
			ct = r.pending.Start
		}
		bound := min(boundary, r.horizon)
		if ft > bound && ct > bound {
			r.flush()
			return
		}
		if r.collected++; r.collected%interruptEvery == 0 {
			// Amortized: ctx.Err() may take a lock, so one real check per
			// interruptEvery items keeps a cancellable run within noise
			// of a plain one while still reacting within a sliver of
			// wall time, however long the epoch.
			if r.err = r.cancelled(min(ft, ct)); r.err != nil {
				return
			}
		}
		// One more window slot, reused: flush keeps the window inside
		// its capacity, and the slot's effect buffer keeps its own.
		w := &r.window
		w.items = w.items[:len(w.items)+1]
		it := &w.items[len(w.items)-1]
		it.Fx.fx, it.Records = it.Fx.fx[:0], 0
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
		if len(w.items) == cap(w.items) {
			if r.flush(); r.err != nil {
				return
			}
		}
	}
}

// flush hands the window to the executor — which leaves each item's Fx
// holding exactly what Kernel.Exec records, in program order — merges
// it and empties it. An executor failure becomes the run's error.
//
//dtn:hotpath
func (r *run) flush() {
	if len(r.window.items) == 0 {
		return
	}
	r.quiet = false
	if r.err = r.exec.RunEpoch(&r.window); r.err != nil {
		return
	}
	r.merge()
	r.window.items = r.window.items[:0]
}

// merge replays the window's effect buffers in canonical item order on
// the loop's goroutine: the observer call sequence and the
// holder/delivery bookkeeping are the same whoever executed the items.
//
//dtn:hotpath
func (r *run) merge() {
	for i := range r.window.items {
		it := &r.window.items[i]
		r.coll.AddRecords(it.Records)
		for j := range it.Fx.fx {
			fx := &it.Fx.fx[j]
			switch fx.Kind {
			case EffectGenerate:
				r.holders.Track(fx.ID)
				r.holders.Inc(fx.ID)
				for _, o := range r.obs {
					o.OnGenerate(fx.ID, fx.To, fx.At)
				}
			case EffectTransmit:
				for _, o := range r.obs {
					o.OnTransmit(fx.From, fx.To, fx.ID, fx.At)
				}
			case EffectDeliver:
				r.deliveredAt[r.holders.Index(fx.ID)] = fx.At
				r.delays = append(r.delays, fx.Delay)
				for _, o := range r.obs {
					o.OnDeliver(fx.ID, fx.To, fx.Delay, fx.At)
				}
				if fx.At > r.lastArrival {
					r.lastArrival = fx.At
				}
				r.remaining--
			case EffectDrop:
				if fx.Reason != node.DropRefused {
					// Every non-refusal drop sheds a stored copy;
					// refusals never stored one.
					r.holders.Dec(fx.ID)
				}
				for _, o := range r.obs {
					o.OnDrop(fx.From, fx.ID, fx.Reason, fx.At)
				}
			case EffectStored:
				r.holders.Inc(fx.ID)
			}
		}
	}
}
