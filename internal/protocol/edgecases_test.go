package protocol

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// --- cross-protocol Wants properties ----------------------------------------

// TestWantsNeverOffersWhatReceiverHas: for every protocol, the offer
// list never contains a bundle the receiver stores or has consumed.
func TestWantsNeverOffersWhatReceiverHas(t *testing.T) {
	protos := []Protocol{
		NewPure(), NewPQ(1, 1), NewTTL(300), NewDynamicTTL(),
		NewEC(), NewECTTL(), NewImmunity(), NewCumulativeImmunity(),
	}
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 41))
		for _, p := range protos {
			a := mkNode(p, 0, 30)
			b := mkNode(p, 1, 30)
			for s := 1; s <= 20; s++ {
				cp := &bundle.Copy{
					Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: s}, Dst: 5},
					Expiry: sim.Infinity,
				}
				if err := a.Store.Put(cp); err != nil {
					return false
				}
				switch r.IntN(3) {
				case 0: // receiver holds a copy
					if err := b.Store.Put(cp); err != nil {
						return false
					}
				case 1: // receiver consumed it as destination
					b.Received.Add(cp.Bundle.ID)
				}
			}
			for _, id := range p.Wants(a, b, 0, sim.NewRNG(seed), new(Scratch)) {
				if b.Store.Has(id) || b.Received.Has(id) {
					t.Logf("%s offered %v the receiver already has", p.Name(), id)
					return false
				}
				if !a.Store.Has(id) {
					t.Logf("%s offered %v the sender does not hold", p.Name(), id)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestWantsNoDuplicates: offers are unique.
func TestWantsNoDuplicates(t *testing.T) {
	for _, p := range []Protocol{NewPure(), NewEC(), NewImmunity(), NewCumulativeImmunity()} {
		a := mkNode(p, 0, 40)
		b := mkNode(p, 1, 40)
		for s := 1; s <= 30; s++ {
			give(t, a, 9, s, 5, 0)
		}
		seen := map[bundle.ID]bool{}
		for _, id := range p.Wants(a, b, 0, sim.NewRNG(3), new(Scratch)) {
			if seen[id] {
				t.Fatalf("%s offered %v twice", p.Name(), id)
			}
			seen[id] = true
		}
	}
}

// TestRegistryWantsNeverOffersHeld owns the invariant that makes the
// kernel's per-transmission "receiver already holds it" check in
// transmitBatch (internal/core) redundant: no registered protocol
// offers a bundle the receiver stores or has consumed, nor one bundle
// twice. Every kind in Default.Names() (pq also with anti-packets and
// below-one probabilities) runs on random stores — random sources,
// destinations, encounter counts and pins, the receiver among the
// destinations — whose protocol state random earlier deliveries have
// fed, and Wants is asked in both directions after the contact's own
// Exchange, in the kernel's hook order.
func TestRegistryWantsNeverOffersHeld(t *testing.T) {
	const nodes = 5
	specs := append(Default.Names(), "pq:anti", "pq:p=0.5,q=0.7,anti")
	for _, spec := range specs {
		f, err := Parse(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		for seed := uint64(0); seed < 60; seed++ {
			r := rand.New(rand.NewPCG(seed, 43))
			p := f.New()
			var ns [nodes]*node.Node
			for i := range ns {
				ns[i] = mkNode(p, contact.NodeID(i), 64)
			}
			a, b := ns[0], ns[1]
			for i := 0; i < 40; i++ {
				src := contact.NodeID(r.IntN(nodes))
				dst := contact.NodeID((int(src) + 1 + r.IntN(nodes-1)) % nodes)
				cp := &bundle.Copy{
					Bundle: &bundle.Bundle{ID: bundle.ID{Src: src, Seq: 1 + r.IntN(8)}, Dst: dst},
					EC:     r.IntN(6),
					Expiry: sim.Infinity,
				}
				holder := ns[r.IntN(2)]
				switch {
				case holder.ID == dst:
					// The holder consumed it, delivered by a third node.
					if !holder.Received.Has(cp.Bundle.ID) {
						holder.Received.Add(cp.Bundle.ID)
						p.OnDelivered(holder, ns[2], cp.Bundle.ID, 0)
					}
				case holder.Store.Has(cp.Bundle.ID):
				default:
					cp.Pinned = holder.ID == src
					if err := holder.Store.Put(cp); err != nil {
						t.Fatalf("%s seed %d: %v", spec, seed, err)
					}
					if r.IntN(4) == 0 && dst != a.ID && dst != b.ID {
						// Delivered elsewhere by this holder: the
						// immunity variants learn a record.
						ns[dst].Received.Add(cp.Bundle.ID)
						p.OnDelivered(ns[dst], holder, cp.Bundle.ID, 0)
					}
				}
			}
			p.Exchange(a, b, 10, r.IntN(20))
			for _, dir := range [][2]*node.Node{{a, b}, {b, a}} {
				sender, receiver := dir[0], dir[1]
				seen := map[bundle.ID]bool{}
				for _, id := range p.Wants(sender, receiver, 10, sim.NewRNG(seed), new(Scratch)) {
					if receiver.Store.Has(id) || receiver.Received.Has(id) {
						t.Fatalf("%s seed %d: node %d offered %v that node %d already has",
							spec, seed, sender.ID, id, receiver.ID)
					}
					if seen[id] {
						t.Fatalf("%s seed %d: node %d offered %v twice", spec, seed, sender.ID, id)
					}
					seen[id] = true
				}
			}
		}
	}
}

// --- EC family ----------------------------------------------------------------

// TestECEvictionDeterministicTieBreak: equal ECs evict the oldest copy,
// then the smallest ID.
func TestECEvictionDeterministicTieBreak(t *testing.T) {
	p := NewEC()
	n := mkNode(p, 1, 3)
	c1 := give(t, n, 9, 1, 5, 2)
	c1.StoredAt = 100
	c2 := give(t, n, 9, 2, 5, 2)
	c2.StoredAt = 50 // oldest: the victim
	c3 := give(t, n, 9, 3, 5, 2)
	c3.StoredAt = 100
	in := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 4}, Dst: 5}}
	if !p.Admit(n, in, 200) {
		t.Fatal("refused")
	}
	if n.Store.Has(bundle.ID{Src: 9, Seq: 2}) {
		t.Error("oldest equal-EC copy not evicted")
	}
	// Next eviction: equal EC, equal StoredAt → smallest ID.
	if err := n.Store.Put(in); err != nil {
		t.Fatal(err)
	}
	in2 := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 5}, Dst: 5}}
	if !p.Admit(n, in2, 200) {
		t.Fatal("refused second")
	}
	if n.Store.Has(bundle.ID{Src: 9, Seq: 1}) {
		t.Error("smallest-ID copy not evicted on full tie")
	}
}

func TestECTTLSenderPinnedNeverAges(t *testing.T) {
	p := NewECTTL()
	src := mkNode(p, 0, 10)
	dst := mkNode(p, 1, 10)
	cp := &bundle.Copy{
		Bundle: &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: 1}, Dst: 1},
		Pinned: true, Expiry: sim.Infinity, EC: 20, // way past threshold
	}
	if err := src.Store.Put(cp); err != nil {
		t.Fatal(err)
	}
	rcpt := relayCopy(cp, 100)
	p.OnTransmit(src, dst, cp, rcpt, 100)
	if cp.Expiry != sim.Infinity {
		t.Error("pinned source copy aged by Algorithm 2")
	}
	if rcpt.Expiry == sim.Infinity {
		t.Error("receiver copy past threshold must age")
	}
}

// --- immunity family -----------------------------------------------------------

func TestImmunityControlLoadBlocksData(t *testing.T) {
	// A node whose i-list grows large loses usable buffer slots: the
	// §II-C congestion effect.
	p := NewImmunity() // 0.2 slots/record
	n := mkNode(p, 1, 10)
	for s := 1; s <= 40; s++ {
		ilistOf(n).Add(bundle.ID{Src: 9, Seq: s})
	}
	p.refreshControlLoad(n)
	// 40 records × 0.2 = 8 slots consumed; 2 left.
	if free := n.Store.Free(); free != 2 {
		t.Fatalf("Free = %d, want 2", free)
	}
	in := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 8, Seq: 1}, Dst: 5}}
	if !p.Admit(n, in, 0) {
		t.Fatal("should still admit with 2 free slots")
	}
	if err := n.Store.Put(in); err != nil {
		t.Fatal(err)
	}
	in2 := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 8, Seq: 2}, Dst: 5}}
	if err := n.Store.Put(in2); err != nil {
		t.Fatal(err)
	}
	in3 := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 8, Seq: 3}, Dst: 5}}
	if p.Admit(n, in3, 0) {
		t.Error("admitted into record-congested buffer")
	}
}

func TestImmunityExchangeSymmetric(t *testing.T) {
	p := NewImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	ilistOf(a).Add(bundle.ID{Src: 9, Seq: 1})
	ilistOf(b).Add(bundle.ID{Src: 9, Seq: 2})
	p.Exchange(a, b, 0, 100)
	if ilistOf(a).Len() != 2 || ilistOf(b).Len() != 2 {
		t.Error("i-lists not merged both ways")
	}
	// Blind retransmission: a second exchange costs overhead again.
	if sent := p.Exchange(a, b, 10, 100); sent != 4 {
		t.Errorf("second exchange sent %d records, want 4 (2 each way)", sent)
	}
}

func TestCumulativeMultiFlow(t *testing.T) {
	p := NewCumulativeImmunity()
	dst := mkNode(p, 1, 10)
	sender := mkNode(p, 0, 20)
	other := mkNode(p, 2, 10)
	// Two flows to different destinations; tables must not interfere.
	f1 := Flow{Src: 7, Dst: 1}
	f2 := Flow{Src: 8, Dst: 2}
	cp1 := give(t, sender, 7, 1, 1, 0)
	p.OnDelivered(dst, sender, cp1.Bundle.ID, 0)
	cp2 := give(t, sender, 8, 1, 2, 0)
	p.OnDelivered(other, sender, cp2.Bundle.ID, 0)
	if cumOf(dst).ackOf(f1) != 1 || cumOf(dst).ackOf(f2) != 0 {
		t.Error("flow-1 ack leaked into destination 2's table space")
	}
	if cumOf(other).ackOf(f2) != 1 || cumOf(other).ackOf(f1) != 0 {
		t.Error("flow-2 ack wrong")
	}
	if cumOf(sender).ackOf(f1) != 1 || cumOf(sender).ackOf(f2) != 1 {
		t.Errorf("sender tables: %+v", cumOf(sender).flows)
	}
	// Exchange propagates both tables for 2 records, and the third node
	// resends the two it learned blind.
	third := mkNode(p, 3, 10)
	if sent := p.Exchange(sender, third, 5, 100); sent != 4 {
		t.Errorf("sent %d records for two flows, want 4 (2 each way)", sent)
	}
	if cumOf(third).ackOf(f1) != 1 || cumOf(third).ackOf(f2) != 1 {
		t.Error("tables did not propagate")
	}
}

func TestCumulativePurgeOnMeetingDestination(t *testing.T) {
	p := NewCumulativeImmunity()
	dst := mkNode(p, 1, 10)
	holder := mkNode(p, 2, 10)
	// dst consumed seq 5 (out of order: prefix stuck at 0).
	dst.Received.Add(bundle.ID{Src: 7, Seq: 5})
	give(t, holder, 7, 5, 1, 0) // zombie copy at the holder
	give(t, holder, 7, 6, 1, 0) // undelivered: must survive
	p.Exchange(dst, holder, 0, 100)
	if holder.Store.Has(bundle.ID{Src: 7, Seq: 5}) {
		t.Error("copy the destination already consumed survived a direct contact")
	}
	if !holder.Store.Has(bundle.ID{Src: 7, Seq: 6}) {
		t.Error("undelivered copy purged")
	}
}

func TestCumulativeRecordBudgetRespected(t *testing.T) {
	p := NewCumulativeImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for i := 0; i < 5; i++ {
		cumOf(a).table(Flow{Src: contact.NodeID(10 + i), Dst: 5}).ack = i + 1
	}
	// A's five tables are cut to 2; B resends the 2 it learned.
	if sent := p.Exchange(a, b, 0, 2); sent != 4 {
		t.Errorf("sent %d records with budget 2 each way, want 4", sent)
	}
	if cumOf(b).acked() != 2 {
		t.Errorf("receiver learned %d tables, want 2", cumOf(b).acked())
	}
}

// --- P-Q family -----------------------------------------------------------------

func TestPQDrawsIndependentPerOffer(t *testing.T) {
	// With P=0.5 across many bundles, both inclusion and exclusion must
	// occur within a single Wants call.
	p := NewPQ(0.5, 0.5)
	a := mkNode(p, 0, 200)
	b := mkNode(p, 1, 200)
	for s := 1; s <= 100; s++ {
		give(t, a, 0, s, 6, 0)
	}
	got := p.Wants(a, b, 0, sim.NewRNG(5), new(Scratch))
	if len(got) == 0 || len(got) == 100 {
		t.Errorf("P=0.5 offered %d/100; draws not independent", len(got))
	}
}

func TestPQAntiPacketsControlLoad(t *testing.T) {
	p := NewPQ(1, 1).WithAntiPackets()
	a := mkNode(p, 0, 10)
	dst := mkNode(p, 1, 10)
	cp := give(t, a, 7, 1, 1, 0)
	p.OnDelivered(dst, a, cp.Bundle.ID, 0)
	if dst.Store.ControlLoad() == 0 {
		t.Error("anti-packet variant tracks no control load")
	}
}

// --- node-level dynamics ----------------------------------------------------------

func TestDynamicTTLRenewalTracksCurrentInterval(t *testing.T) {
	// Renewal must use the node's *current* interval, not the one at
	// store time: a node whose rhythm accelerates re-deadlines sooner.
	p := NewDynamicTTL()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	a.ObserveEncounter(0)
	a.ObserveEncounter(4000) // interval 4000
	cp := give(t, a, 9, 1, 5, 0)
	cp.Expiry = 4000 + 8000
	a.ObserveEncounter(4500) // interval now 500
	rcpt := relayCopy(cp, 4500)
	p.OnTransmit(a, b, cp, rcpt, 4500)
	if cp.Expiry != 4500+1000 {
		t.Errorf("sender renewal = %v, want 5500 (2×500)", cp.Expiry)
	}
}
