package node

import (
	"testing"
	"unsafe"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
)

func TestNewNode(t *testing.T) {
	n := New(3, 10)
	if n.ID != 3 || n.Store.Cap() != 10 {
		t.Fatalf("node misconstructed: %v", n)
	}
	if n.LastEncounterStart != -1 {
		t.Errorf("LastEncounterStart = %v, want -1", n.LastEncounterStart)
	}
	if n.LastInterval != 0 {
		t.Errorf("LastInterval = %v, want 0", n.LastInterval)
	}
	if n.Received.Len() != 0 {
		t.Error("Received not empty")
	}
}

func TestObserveEncounterIntervals(t *testing.T) {
	n := New(0, 10)
	n.ObserveEncounter(100)
	if n.LastInterval != 0 {
		t.Errorf("after first encounter LastInterval = %v, want 0 (no history)", n.LastInterval)
	}
	if n.LastEncounterStart != 100 {
		t.Errorf("LastEncounterStart = %v", n.LastEncounterStart)
	}
	n.ObserveEncounter(700)
	if n.LastInterval != 600 {
		t.Errorf("LastInterval = %v, want 600", n.LastInterval)
	}
	n.ObserveEncounter(800)
	if n.LastInterval != 100 {
		t.Errorf("LastInterval = %v, want 100", n.LastInterval)
	}
}

func TestObserveEncounterSimultaneous(t *testing.T) {
	// Two contacts starting at the same instant must not zero the
	// interval history.
	n := New(0, 10)
	n.ObserveEncounter(100)
	n.ObserveEncounter(700)
	n.ObserveEncounter(700)
	if n.LastInterval != 600 {
		t.Errorf("simultaneous encounter clobbered interval: %v", n.LastInterval)
	}
}

func TestNodeString(t *testing.T) {
	if New(1, 5).String() == "" {
		t.Error("empty String")
	}
}

// TestNewPopulation: a slab-built population is node for node what New
// builds, with stores and received sets that share nothing, in a fixed
// number of allocations whatever the count.
func TestNewPopulation(t *testing.T) {
	pop := NewPopulation(nil, 5, 10)
	checkFresh(t, pop, 10)
	pop[1].Received.Add(bundle.ID{Src: 1, Seq: 1})
	if pop[0].Received.Len() != 0 || pop[2].Received.Len() != 0 {
		t.Error("received sets share state")
	}
	small := testing.AllocsPerRun(10, func() { NewPopulation(nil, 10, 10) })
	large := testing.AllocsPerRun(10, func() { NewPopulation(nil, 10000, 10) })
	if small != large {
		t.Errorf("NewPopulation allocates %v times for 10 nodes, %v for 10000", small, large)
	}
}

// TestNewPopulationReuse: a population rebuilt from a used one, smaller
// or of the same size, is what a fresh call builds — every copy,
// encounter, counter and protocol state of the last use gone, the
// capacity the new one — and allocates nothing; only a larger one
// allocates. The nodes past a shrunk population are emptied too, so
// they pin none of the last use's bundles.
func TestNewPopulationReuse(t *testing.T) {
	pop := NewPopulation(nil, 6, 10)
	for i, n := range pop {
		b := &bundle.Bundle{ID: bundle.ID{Src: contact.NodeID(i), Seq: 1}, Dst: 0}
		if err := n.Store.Put(&bundle.Copy{Bundle: b, Expiry: 50}); err != nil {
			t.Fatal(err)
		}
		n.Received.Add(b.ID)
		n.ObserveEncounter(10)
		n.ObserveEncounter(20)
		n.NoteRefused(b.ID, 20)
		n.Store.SetControlLoad(2)
		n.Ext = "protocol state"
	}
	all := pop
	pop = NewPopulation(pop, 4, 3)
	checkFresh(t, pop, 3)
	for _, n := range all[4:] {
		if n.Store.Len() != 0 || n.Received.Len() != 0 || n.Ext != nil {
			t.Errorf("node %d past the shrunk population kept its state: %v", n.ID, n)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { pop = NewPopulation(pop, 6, 10) }); allocs != 0 {
		t.Errorf("regrowing within the slab allocates %v times", allocs)
	}
	checkFresh(t, pop, 10)
	if grown := NewPopulation(pop, 7, 10); len(grown) != 7 || &grown[0] == &pop[0] {
		t.Error("a larger population did not get a new slab")
	} else {
		checkFresh(t, grown, 10)
	}
}

// checkFresh fails unless every node of pop is what New(i, bufCap)
// builds.
func checkFresh(t *testing.T, pop []*Node, bufCap int) {
	t.Helper()
	for i, n := range pop {
		want := New(contact.NodeID(i), bufCap)
		if n.ID != want.ID || n.LastEncounterStart != want.LastEncounterStart || n.LastInterval != 0 ||
			n.Refused != 0 || n.Ext != nil || n.DropHook != nil || n.Store.Cap() != bufCap ||
			n.Store.Len() != 0 || n.Store.ControlLoad() != 0 || n.Received.Len() != 0 {
			t.Errorf("node %d: %v, want %v", i, n, want)
		}
	}
}

// TestDropReasonIndex: Index numbers DropReasons() in order and refuses
// anything else.
func TestDropReasonIndex(t *testing.T) {
	for i, r := range DropReasons() {
		if r.Index() != i || !r.Valid() {
			t.Errorf("%q: Index %d, Valid %v; want %d, true", r, r.Index(), r.Valid(), i)
		}
	}
	if r := DropReason("lost"); r.Index() != -1 || r.Valid() {
		t.Errorf("undeclared reason: Index %d, Valid %v", r.Index(), r.Valid())
	}
}

// TestNodeSize pins a node's footprint on 64-bit platforms: every node of
// a population pays it, active or not (the 1M-node scale cell pays it a
// million times). Working memory a node only needs while it sends
// belongs to the executor, not here.
func TestNodeSize(t *testing.T) {
	if unsafe.Sizeof(uintptr(0)) != 8 {
		t.Skip("sizes pinned for 64-bit platforms")
	}
	if got := unsafe.Sizeof(Node{}); got != 112 {
		t.Errorf("node.Node is %d bytes, want 112", got)
	}
}
