package protocol

import (
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// A store holds its copies by value, so a pointer it hands out names
// whatever copy occupies that slot after the next removal: the
// victim's successor in ID order. Each test below removes a copy that
// is not the last one in ID order, so a read moved after the removal
// names the wrong bundle and fails it.

// drop is one drop-hook event.
type drop struct {
	id     bundle.ID
	reason node.DropReason
}

// recordDrops makes n report its drops into *got.
func recordDrops(n *node.Node, got *[]drop) {
	n.DropHook = func(_ contact.NodeID, id bundle.ID, reason node.DropReason, _ sim.Time) {
		*got = append(*got, drop{id, reason})
	}
}

// TestECEvictionNamesVictim: EC reports the copy it evicted, not the
// copy after it.
func TestECEvictionNamesVictim(t *testing.T) {
	p := NewEC()
	n := mkNode(p, 1, 3)
	var got []drop
	recordDrops(n, &got)
	give(t, n, 9, 1, 5, 1)
	give(t, n, 9, 2, 5, 9) // highest EC: the victim
	give(t, n, 9, 3, 5, 2)
	in := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 4}, Dst: 5}}
	if !p.Admit(n, in, 0) {
		t.Fatal("EC refused a never-seen bundle")
	}
	victim := bundle.ID{Src: 9, Seq: 2}
	if len(got) != 1 || got[0] != (drop{victim, node.DropEvicted}) {
		t.Fatalf("drops = %v, want one eviction of %v", got, victim)
	}
	if n.Store.Has(victim) || !n.Store.Has(bundle.ID{Src: 9, Seq: 3}) {
		t.Errorf("store holds %v, want seq 2 gone and seq 3 kept", n.Store.AppendIDs(nil))
	}
}

// TestCumulativeOnDeliveredReadsCopyFirst: the delivered copy's flow
// and first sequence are read before the sender drops it. Its successor
// in ID order belongs to another flow of the same source (Dst 9,
// FirstSeq 4); read after the removal, the destination would learn
// nothing about flow 7→1.
func TestCumulativeOnDeliveredReadsCopyFirst(t *testing.T) {
	p := NewCumulativeImmunity()
	dst := mkNode(p, 1, 10)
	sender := mkNode(p, 0, 10)
	for _, b := range []*bundle.Bundle{
		{ID: bundle.ID{Src: 7, Seq: 3}, Dst: 1, FirstSeq: 3},
		{ID: bundle.ID{Src: 7, Seq: 4}, Dst: 9, FirstSeq: 4},
	} {
		if err := sender.Store.Put(&bundle.Copy{Bundle: b, Expiry: sim.Infinity}); err != nil {
			t.Fatal(err)
		}
	}
	id := bundle.ID{Src: 7, Seq: 3}
	dst.Received.Add(id)
	p.OnDelivered(dst, sender, id, 0)
	f := Flow{Src: 7, Dst: 1}
	if got := tableOf(dst, f); got.base != 3 || got.ack != 3 {
		t.Errorf("flow 7→1 at dst: base %d ack %d, want 3 and 3", got.base, got.ack)
	}
	if other := tableOf(dst, Flow{Src: 7, Dst: 9}); other.base != 0 || other.ack != 0 {
		t.Errorf("dst learned flow 7→9 from a delivery on flow 7→1: %+v", cumOf(dst).flows)
	}
	if sender.Store.Has(id) || !sender.Store.Has(bundle.ID{Src: 7, Seq: 4}) {
		t.Errorf("sender holds %v, want seq 3 gone and seq 4 kept", sender.Store.AppendIDs(nil))
	}
}

// TestImmunityOnDeliveredPurgesDeliveredCopy: the sender's purge names
// the delivered bundle and keeps its successor.
func TestImmunityOnDeliveredPurgesDeliveredCopy(t *testing.T) {
	p := NewImmunity()
	sender := mkNode(p, 0, 10)
	dst := mkNode(p, 1, 10)
	var got []drop
	recordDrops(sender, &got)
	give(t, sender, 7, 1, 1, 0)
	give(t, sender, 7, 2, 1, 0)
	id := bundle.ID{Src: 7, Seq: 1}
	p.OnDelivered(dst, sender, id, 0)
	if len(got) != 1 || got[0] != (drop{id, node.DropPurged}) {
		t.Fatalf("drops = %v, want one purge of %v", got, id)
	}
	if sender.Store.Has(id) || !sender.Store.Has(bundle.ID{Src: 7, Seq: 2}) {
		t.Errorf("sender holds %v, want seq 1 gone and seq 2 kept", sender.Store.AppendIDs(nil))
	}
}

// TestImmunityPurgeAllocatesNothing: a purge that removes copies reports
// them through a callback and compacts the store in place, so on warmed
// state it allocates nothing.
func TestImmunityPurgeAllocatesNothing(t *testing.T) {
	p := NewImmunity()
	n := mkNode(p, 0, 10)
	purged := 0
	n.DropHook = func(contact.NodeID, bundle.ID, node.DropReason, sim.Time) { purged++ }
	copies := make([]bundle.Copy, 3)
	for i := range copies {
		copies[i] = bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 7, Seq: i + 1}, Dst: 5}, Expiry: sim.Infinity}
		ilistOf(n).Add(copies[i].Bundle.ID)
	}
	runs := 0
	allocs := testing.AllocsPerRun(100, func() {
		runs++
		for i := range copies {
			if err := n.Store.Put(&copies[i]); err != nil {
				t.Fatal(err)
			}
		}
		purgeDead(n, 0)
	})
	if allocs != 0 {
		t.Errorf("purgeDead allocates %v objects per purge, want 0", allocs)
	}
	if n.Store.Len() != 0 || purged != 3*runs {
		t.Errorf("store holds %d, purged %d; want 0 and %d", n.Store.Len(), purged, 3*runs)
	}
}
