package core

import (
	"fmt"
	"math"

	"dtnsim/internal/buffer"
	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// Kernel is the per-item execution state machine: the only
// implementation of the paper's §IV contact semantics. Every executor
// runs it — the pool's kernels (pool.go: the calling goroutine and a
// goroutine per further list of a window) or a worker *process*
// (internal/dist) over restored node state. Exec mutates only the
// item's two endpoint nodes and records every global side effect into
// the item's EffectBuf; nothing here reads or writes run-global state:
// an item's execution location — goroutine or process — is unobservable.
//
// A Kernel belongs to one executor thread: RNG and Policy are private
// streams (reseeded per encounter from sim.EncounterSeed, so the draw
// sequence is a function of the encounter, not of the executor), and
// Hooks is the shared hook-target table every kernel of a run aims
// drop hooks through.
type Kernel struct {
	// Nodes is the node population Exec indexes into. In-process
	// kernels share the engine's slice; a worker process holds its own
	// restored instances.
	Nodes []*node.Node
	// Hooks[n] is the effect buffer of the item currently executing on
	// node n; BindHook points a node's DropHook through it.
	Hooks []*EffectBuf
	// Protocol, Seed, TxTime, RecordsPerSlot, Bandwidth and
	// ControlBytes mirror the run Config fields of the same names
	// (after defaulting).
	Protocol       protocol.Protocol
	Seed           uint64
	TxTime         float64
	RecordsPerSlot int
	Bandwidth      float64
	ControlBytes   float64
	// RNG is this kernel's private reseedable encounter stream.
	RNG *sim.RNG
	// Policy is this kernel's private byte-pressure drop policy; nil
	// when the run has no byte capacity.
	Policy buffer.DropPolicy
	// drop is the one drop hook BindHook gives every node.
	drop node.DropHook
	// rcpt is the copy a generation or transmission fills for the hooks
	// that decide its fate (OnGenerate; admitBytes, Admit, OnTransmit).
	// A store takes it by value only once it is admitted, so a copy that
	// is refused, delivered or stored costs no heap object.
	rcpt bundle.Copy
	// offer is the working memory every Wants call of this kernel
	// fills: one per executor thread rather than one per node, so a
	// population's size costs no offer buffers, and the list Wants
	// returns stays valid until this kernel's next Wants.
	offer protocol.Scratch
}

// NewKernel builds one executor thread's Kernel over nodes and the
// hook-target table a run's kernels share, from the run's Config after
// defaulting (the scalar fields Kernel mirrors, plus BufferBytes and
// DropPolicy): a private encounter stream and, under a byte capacity, a
// private drop-policy instance — same name and derived seed on every
// thread, in this process or a worker's.
//
// prev is a kernel an earlier call returned, or nil. A non-nil prev is
// rebuilt in place for this run and returned: it keeps its encounter
// stream (reseeded before every draw), its drop hook and its offer
// scratch, its only working memory, and nothing else of its last run.
func NewKernel(prev *Kernel, cfg *Config, nodes []*node.Node, hooks []*EffectBuf) (*Kernel, error) {
	k := prev
	if k == nil {
		k = &Kernel{RNG: sim.NewReseedable()}
		k.drop = k.recordDrop
	}
	*k = Kernel{
		Nodes:          nodes,
		Hooks:          hooks,
		Protocol:       cfg.Protocol,
		Seed:           cfg.Seed,
		TxTime:         cfg.TxTime,
		RecordsPerSlot: cfg.RecordsPerSlot,
		Bandwidth:      cfg.Bandwidth,
		ControlBytes:   cfg.ControlBytes,
		RNG:            k.RNG,
		drop:           k.drop,
		offer:          k.offer,
	}
	if cfg.BufferBytes > 0 {
		name := cfg.DropPolicy
		if name == "" {
			name = buffer.DefaultDropPolicy
		}
		pol, err := buffer.NewDropPolicy(name, cfg.Seed^0xb17ed70b5eed)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrConfig, err)
		}
		// Randomized policies draw from the encounter stream: victim
		// choices then depend only on the contact being processed, never
		// on drops in unrelated contacts — required for executor-
		// independent replay (DESIGN.md §12).
		if sp, ok := pol.(buffer.StreamPolicy); ok {
			sp.SetStream(k.RNG)
		}
		k.Policy = pol
	}
	return k, nil
}

// BindHook aims n's drop hook at whichever item is executing on n, so
// evictions and refusals land in that item's effect buffer and the
// merger replays them where they happened. Hooks is shared by a run's
// kernels, so binding through any one of them serves all: the
// in-process executors bind every node once at setup, a worker process
// each node it materializes. Every node gets the kernel's one hook,
// which the node calls with its own ID.
func (k *Kernel) BindHook(n *node.Node) { n.DropHook = k.drop }

func (k *Kernel) recordDrop(at contact.NodeID, id bundle.ID, reason node.DropReason, now sim.Time) {
	k.Hooks[at].add(Effect{Kind: EffectDrop, From: at, ID: id, Reason: reason, At: now})
}

// Exec runs one item, first aiming the item's nodes' drop hooks at its
// effect buffer.
//
//dtn:hotpath
func (k *Kernel) Exec(it *EpochItem) {
	k.Hooks[it.A] = &it.Fx
	if it.Gen {
		k.generate(it)
		return
	}
	k.Hooks[it.B] = &it.Fx
	k.contact(it)
}

// generate creates a flow's bundles at their source, pinned (§IV: a
// source never drops its own bundles). The item's Count Bundles — the
// immutable identities every copy shares — live in one slab, so a flow
// costs one heap object however many bundles it carries; the copies
// themselves are stored by value.
//
//dtn:hotpath
func (k *Kernel) generate(it *EpochItem) {
	src := k.Nodes[it.Flow.Src]
	now := it.T
	slab := newBundles(it.Flow.Count)
	for i := range slab {
		b := &slab[i]
		*b = bundle.Bundle{
			ID:        bundle.ID{Src: it.Flow.Src, Seq: it.Base + i},
			Dst:       it.Flow.Dst,
			CreatedAt: now,
			Meta:      bundle.Meta{Size: it.Flow.Size},
			FirstSeq:  it.FirstSeq,
		}
		k.rcpt = bundle.Copy{Bundle: b, StoredAt: now, Pinned: true, Expiry: sim.Infinity}
		k.Protocol.OnGenerate(src, &k.rcpt, now)
		if err := src.Store.Put(&k.rcpt); err != nil {
			// Pinned puts bypass capacity; failure means a duplicate ID,
			// which per-source block allocation rules out.
			panic(fmt.Sprintf("core: generating %v: %v", b.ID, err))
		}
		it.Fx.add(Effect{Kind: EffectGenerate, To: b.Dst, ID: b.ID, At: now})
	}
}

// newBundles is generation's one allocation: the slab holding a flow
// item's bundle identities, which outlive the item in the copies that
// point into it.
func newBundles(count int) []bundle.Bundle { return make([]bundle.Bundle, count) }

// contact processes one encounter per DESIGN.md §5: purge, control
// exchange, then budgeted half-duplex transmissions, lower ID first —
// drawing from this kernel's stream reseeded for the encounter. With a
// finite bandwidth in effect (the contact's own, else the run's), the
// encounter additionally carries at most ⌊D·B⌋ payload bytes across
// both directions, with the control exchange optionally charged
// ControlBytes per record first (DESIGN.md §9).
//
//dtn:hotpath
func (k *Kernel) contact(it *EpochItem) {
	c := it.C
	k.RNG.Reseed(sim.EncounterSeed(k.Seed, uint64(c.A), uint64(c.B), c.Start))
	now := c.Start
	a, b := k.Nodes[c.A], k.Nodes[c.B]
	a.PurgeExpired(now)
	b.PurgeExpired(now)
	a.ObserveEncounter(now)
	b.ObserveEncounter(now)

	dur := float64(c.Duration())
	recordBudget := int(dur / k.TxTime * float64(k.RecordsPerSlot))
	bw := c.Bandwidth
	if bw == 0 {
		bw = k.Bandwidth
	}
	limited := bw > 0
	var bytesLeft int64
	if limited {
		// ⌊D·B⌋, clamped: an out-of-range float→int64 conversion is
		// implementation-defined (a huge bandwidth must mean "effectively
		// unbounded", not a negative budget).
		if budget := math.Floor(dur * bw); budget >= math.MaxInt64 {
			bytesLeft = math.MaxInt64
		} else {
			bytesLeft = int64(budget)
		}
	}
	it.Records = k.Protocol.Exchange(a, b, now, recordBudget)
	if limited && k.ControlBytes > 0 {
		// Signaling shares the link: the records the exchange carried
		// are charged against the contact's byte budget before data.
		bytesLeft -= int64(float64(it.Records) * k.ControlBytes)
		if bytesLeft < 0 {
			bytesLeft = 0
		}
	}

	slots := int(dur / k.TxTime)
	if slots <= 0 {
		return
	}
	// Lower-ID node sends first (§IV collision avoidance); the peer uses
	// whatever slot and byte budget remains.
	used, bytesLeft := k.transmitBatch(it, a, b, now, slots, 0, limited, bytesLeft)
	k.transmitBatch(it, b, a, now, slots, used, limited, bytesLeft)
}

// transmitBatch sends the sender's wanted bundles while slots — and,
// when the contact is bandwidth-limited, payload bytes — remain. used
// is the number of slots already consumed in this contact; the return
// values are the updated slot count and byte budget. Transmission i
// completes at start + (i+1)·TxTime.
//
// Partial-transfer semantics: a bundle the remaining byte budget cannot
// carry whole ends the batch — it is not transmitted, not mutated, and
// not marked carried by the receiver; budget is consumed strictly in
// the protocol's Wants order, so a large bundle is never skipped in
// favour of a smaller, lower-priority one.
//
//dtn:hotpath
func (k *Kernel) transmitBatch(it *EpochItem, sender, receiver *node.Node, start sim.Time, slots, used int, limited bool, bytesLeft int64) (int, int64) {
	if used >= slots {
		return used, bytesLeft
	}
	wants := k.Protocol.Wants(sender, receiver, start, k.RNG, &k.offer)
	for _, id := range wants {
		if used >= slots {
			break
		}
		cp := sender.Store.Get(id)
		if cp == nil {
			// Purged mid-contact (e.g. covered by a fresh immunity
			// table); the node would not put it on the air.
			continue
		}
		if receiver.Store.Has(id) || receiver.Received.Has(id) {
			continue
		}
		if limited {
			if cp.Bundle.Meta.Size > bytesLeft {
				break
			}
			bytesLeft -= cp.Bundle.Meta.Size
		}
		used++
		at := start + sim.Time(float64(used)*k.TxTime)
		k.transmit(it, sender, receiver, cp, at)
	}
	return used, bytesLeft
}

// transmit performs one bundle transmission. OnTransmit (EC increments,
// TTL renewal) applies only to transfers the receiver actually takes —
// delivered or stored. A refused transfer burns the slot and is counted,
// but mutates no copy state: a sender cannot renew a bundle's TTL by
// shouting into a full buffer.
//
// cp points into the sender's store, which nothing here mutates before
// OnTransmit has run. The receiver's copy shares cp's Bundle (identity
// is immutable), carries its EC and Expiry, is stamped with the arrival
// time and is never pinned.
//
//dtn:hotpath
func (k *Kernel) transmit(it *EpochItem, sender, receiver *node.Node, cp *bundle.Copy, at sim.Time) {
	it.Fx.add(Effect{Kind: EffectTransmit, From: sender.ID, To: receiver.ID, ID: cp.Bundle.ID, At: at})
	k.rcpt = bundle.Copy{Bundle: cp.Bundle, EC: cp.EC, Expiry: cp.Expiry, StoredAt: at}
	rcpt := &k.rcpt
	if cp.Bundle.Dst == receiver.ID {
		k.Protocol.OnTransmit(sender, receiver, cp, rcpt, at)
		k.deliver(it, sender, receiver, cp.Bundle, at)
		return
	}
	// Byte admission runs before the protocol's slot-count Admit:
	// Admit may evict destructively (EC sheds its highest-count copy),
	// and a byte refusal after that eviction would have drained a
	// buffered copy with nothing admitted in its place. The order is
	// safe the other way around — a byte-pressure eviction also frees
	// a slot, and a protocol eviction also frees bytes, so neither
	// stage can invalidate the other's admission.
	if !k.admitBytes(receiver, rcpt, at) {
		return
	}
	if k.Protocol.Admit(receiver, rcpt, at) {
		k.Protocol.OnTransmit(sender, receiver, cp, rcpt, at)
		if err := receiver.Store.Put(rcpt); err != nil {
			panic(fmt.Sprintf("core: admit promised room for %v at node %d: %v",
				cp.Bundle.ID, receiver.ID, err))
		}
		it.Fx.add(Effect{Kind: EffectStored, ID: rcpt.Bundle.ID, At: at})
	}
}

// admitBytes relieves byte pressure at the receiver for an incoming
// sized copy: victims chosen by this kernel's policy instance are shed
// (reported with the bytepressure drop reason), and the incoming copy
// is refused when room cannot be made; both reach the effect buffer
// through the node's drop hook. The store owns the pass-through:
// MakeByteRoom admits size-less copies and every copy into a store
// without a byte capacity before it consults the policy, and Policy is
// nil exactly when no store has one (NewKernel, Run).
//
//dtn:hotpath
func (k *Kernel) admitBytes(receiver *node.Node, rcpt *bundle.Copy, at sim.Time) bool {
	ok := receiver.Store.MakeByteRoom(rcpt.Bundle.Meta.Size, k.Policy, func(id bundle.ID) {
		receiver.NoteDrop(id, node.DropBytePressure, at)
	})
	if !ok {
		receiver.NoteDrop(rcpt.Bundle.ID, node.DropRefused, at)
		return false
	}
	return true
}

// deliver hands a bundle to its destination: destination state mutates
// here (the destination is one of the item's nodes); run-global
// delivery bookkeeping is deferred to the merger.
//
//dtn:hotpath
func (k *Kernel) deliver(it *EpochItem, sender, dst *node.Node, b *bundle.Bundle, at sim.Time) {
	if dst.Received.Has(b.ID) {
		return // duplicate delivery; Wants filtering should prevent this
	}
	dst.Received.Add(b.ID)
	it.Fx.add(Effect{
		Kind:  EffectDeliver,
		From:  sender.ID,
		To:    dst.ID,
		ID:    b.ID,
		At:    at,
		Delay: float64(at - b.CreatedAt),
	})
	k.Protocol.OnDelivered(dst, sender, b.ID, at)
}
