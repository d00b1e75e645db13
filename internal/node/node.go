// Package node defines the per-node state a DTN participant carries:
// its bundle store, the encounter history that drives dynamic TTL
// (Algorithm 1 in the paper) and delivery bookkeeping. It counts no
// event: every transmission and drop reaches the run's observers
// through the engine's effects and DropHook, and the run's
// metrics.Collector counts them, along with the control records each
// exchange reports. Protocol-specific state (immunity lists, cumulative
// ack tables) hangs off the Ext field, attached by the protocol's Init.
package node

import (
	"fmt"

	"dtnsim/internal/buffer"
	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// Node is one DTN participant.
type Node struct {
	ID    contact.NodeID
	Store *buffer.Store

	// Received records bundles this node has consumed as their
	// destination; a destination never re-accepts a received bundle.
	Received *bundle.SummaryVector

	// LastEncounterStart is the start time of this node's most recent
	// encounter, or -1 before the first.
	LastEncounterStart sim.Time
	// LastInterval is the gap in seconds between the starts of the last
	// two encounters; 0 until the node has seen two encounters. This is
	// GetLastInterval from the paper's Algorithm 1.
	LastInterval float64

	// Ext holds protocol-specific state, attached by Protocol.Init.
	Ext any

	// DropHook, when non-nil, observes every copy this node sheds or
	// refuses, called with the node's own ID: one hook serves a whole
	// population. The engine sets it to fan events out to core.Observer
	// implementations; protocols report drops through NoteDrop and
	// PurgeExpired and never call it directly.
	DropHook DropHook
}

// DropHook observes one drop at node at.
type DropHook func(at contact.NodeID, id bundle.ID, reason DropReason, now sim.Time)

// DropReason classifies one dropped copy for observers. The constants
// below are the complete enum: every drop the engine reports carries
// one of them (Valid), and metrics.Collector accounts drops strictly by
// this taxonomy — a drop with an unlisted reason is a bookkeeping bug,
// not a new category.
type DropReason string

// The five ways a node sheds a bundle copy.
const (
	// DropRefused: an incoming copy was declined (buffer full, no
	// evictable victim).
	DropRefused DropReason = "refused"
	// DropEvicted: a stored copy was removed to make room (a protocol's
	// slot-count buffer policy, e.g. EC's highest-count eviction).
	DropEvicted DropReason = "evicted"
	// DropExpired: a stored copy's TTL lapsed.
	DropExpired DropReason = "expired"
	// DropPurged: a stored copy was shed because an immunity table or
	// anti-packet marked it delivered — protocol bookkeeping, not a
	// buffer-policy failure, so no Result count reports it.
	DropPurged DropReason = "purged"
	// DropBytePressure: a stored copy was shed by the buffer's
	// DropPolicy to fit an incoming sized bundle under a byte capacity
	// (DESIGN.md §9).
	DropBytePressure DropReason = "bytepressure"
)

// DropReasons returns the complete reason enum in a fixed order.
func DropReasons() []DropReason {
	return []DropReason{DropRefused, DropEvicted, DropExpired, DropPurged, DropBytePressure}
}

// Index returns r's position in DropReasons(), or -1 when r is not a
// declared reason: a dense index for per-reason counters.
func (r DropReason) Index() int {
	switch r {
	case DropRefused:
		return 0
	case DropEvicted:
		return 1
	case DropExpired:
		return 2
	case DropPurged:
		return 3
	case DropBytePressure:
		return 4
	}
	return -1
}

// Valid reports whether r is one of the declared drop reasons.
func (r DropReason) Valid() bool { return r.Index() >= 0 }

// New returns a node with an empty store of the given capacity.
func New(id contact.NodeID, bufCap int) *Node {
	return &Node{
		ID:                 id,
		Store:              buffer.New(bufCap),
		Received:           bundle.NewSummaryVector(),
		LastEncounterStart: -1,
	}
}

// NewPopulation returns nodes 0..count-1 as New would build them, in a
// fixed number of allocations whatever the count: the nodes, their
// stores and their received sets each live by value in one slab.
//
// prev is a population an earlier call returned, or nil. When its slab
// holds count nodes it is reused and nothing is allocated: every node
// of the slab, including those past count, is reset to what New builds
// — its copies and protocol state dropped, its store's and received
// set's slabs kept — so a sweep worker's runs grow no store twice and a
// shrinking population pins nothing of the last run. prev must not be
// used after the call.
func NewPopulation(prev []*Node, count, bufCap int) []*Node {
	if cap(prev) < count {
		nodes := make([]Node, count)
		stores := make([]buffer.Store, count)
		received := make([]bundle.SummaryVector, count)
		prev = make([]*Node, count)
		for i := range nodes {
			nodes[i] = Node{Store: &stores[i], Received: &received[i]}
			prev[i] = &nodes[i]
		}
	}
	for i, n := range prev[:cap(prev)] {
		n.Store.Init(bufCap)
		n.Received.Clear()
		*n = Node{
			ID:                 contact.NodeID(i),
			Store:              n.Store,
			Received:           n.Received,
			LastEncounterStart: -1,
		}
	}
	return prev[:count]
}

// ObserveEncounter updates the node's encounter history at the start of a
// contact. Per Algorithm 1, the interval is measured between the starts
// of the last two encounters.
func (n *Node) ObserveEncounter(start sim.Time) {
	if n.LastEncounterStart >= 0 && start > n.LastEncounterStart {
		n.LastInterval = float64(start - n.LastEncounterStart)
	}
	n.LastEncounterStart = start
}

// PurgeExpired removes lapsed copies and reports each as a
// DropExpired drop.
//
//dtn:hotpath
func (n *Node) PurgeExpired(now sim.Time) {
	n.Store.PurgeExpired(now, func(id bundle.ID) { n.NoteDrop(id, DropExpired, now) })
}

// NoteDrop reports one copy this node shed (already removed from its
// store) or refused to its drop hook, if it has one.
//
//dtn:hotpath
func (n *Node) NoteDrop(id bundle.ID, reason DropReason, now sim.Time) {
	if n.DropHook != nil {
		n.DropHook(n.ID, id, reason, now)
	}
}

func (n *Node) String() string {
	return fmt.Sprintf("node(%d, %d/%d buffered)", n.ID, n.Store.Len(), n.Store.Cap())
}
