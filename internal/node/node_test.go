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
	pop := NewPopulation(5, 10)
	for i, n := range pop {
		want := New(contact.NodeID(i), 10)
		if n.ID != want.ID || n.LastEncounterStart != want.LastEncounterStart ||
			n.Store.Cap() != want.Store.Cap() || n.Store.Len() != 0 || n.Received.Len() != 0 {
			t.Errorf("node %d: %v, want %v", i, n, want)
		}
	}
	pop[1].Received.Add(bundle.ID{Src: 1, Seq: 1})
	if pop[0].Received.Len() != 0 || pop[2].Received.Len() != 0 {
		t.Error("received sets share state")
	}
	small := testing.AllocsPerRun(10, func() { NewPopulation(10, 10) })
	large := testing.AllocsPerRun(10, func() { NewPopulation(10000, 10) })
	if small != large {
		t.Errorf("NewPopulation allocates %v times for 10 nodes, %v for 10000", small, large)
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
