// Package node defines the per-node state a DTN participant carries:
// its bundle store, the encounter history that drives dynamic TTL
// (Algorithm 1 in the paper), delivery bookkeeping, and overhead
// counters. Protocol-specific state (immunity lists, cumulative ack
// tables) hangs off the Ext field, attached by the protocol's Init.
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

	// ControlSent counts control records (immunity tables, anti-packets,
	// cumulative acks) this node has transmitted: the paper's signaling
	// overhead metric.
	ControlSent int64
	// DataSent counts bundle transmissions originated by this node.
	DataSent int64
	// Refused counts incoming bundles this node declined (buffer full
	// and no evictable victim).
	Refused int64
	// Expired counts copies this node dropped to TTL expiry.
	Expired int64
	// Evicted counts copies this node dropped to make room (the
	// protocols' slot-count policies).
	Evicted int64
	// ByteDropped counts copies this node shed to relieve byte pressure
	// (the buffer's DropPolicy making room under a byte capacity).
	ByteDropped int64

	// Ext holds protocol-specific state, attached by Protocol.Init.
	Ext any

	// DropHook, when non-nil, observes every buffer-policy drop this
	// node records (refusals, evictions, TTL expiries), called with the
	// node's own ID: one hook serves a whole population. The engine
	// sets it to fan events out to core.Observer implementations;
	// protocols report drops through NoteRefused/NoteEvicted/PurgeExpired
	// and never call it directly.
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
	// buffer-policy failure, so it increments no failure counter.
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

// Valid reports whether r is one of the declared drop reasons.
func (r DropReason) Valid() bool {
	switch r {
	case DropRefused, DropEvicted, DropExpired, DropPurged, DropBytePressure:
		return true
	}
	return false
}

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
func NewPopulation(count, bufCap int) []*Node {
	nodes := make([]Node, count)
	stores := buffer.NewStores(count, bufCap)
	received := make([]bundle.SummaryVector, count)
	out := make([]*Node, count)
	for i := range nodes {
		nodes[i] = Node{
			ID:                 contact.NodeID(i),
			Store:              &stores[i],
			Received:           &received[i],
			LastEncounterStart: -1,
		}
		out[i] = &nodes[i]
	}
	return out
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

// PurgeExpired removes lapsed copies and accounts for them.
//
//dtn:hotpath
func (n *Node) PurgeExpired(now sim.Time) {
	n.Store.PurgeExpired(now, func(id bundle.ID) {
		n.Expired++
		if n.DropHook != nil {
			n.DropHook(n.ID, id, DropExpired, now)
		}
	})
}

// NoteRefused accounts one refused incoming copy. Protocols call it
// from Admit instead of incrementing Refused directly so observers see
// the drop.
func (n *Node) NoteRefused(id bundle.ID, now sim.Time) {
	n.Refused++
	if n.DropHook != nil {
		n.DropHook(n.ID, id, DropRefused, now)
	}
}

// NoteEvicted accounts one evicted copy (already removed from the
// store); the buffer-policy counterpart of NoteRefused.
func (n *Node) NoteEvicted(id bundle.ID, now sim.Time) {
	n.Evicted++
	if n.DropHook != nil {
		n.DropHook(n.ID, id, DropEvicted, now)
	}
}

// NoteByteDropped accounts one copy the buffer's DropPolicy shed
// (already removed from the store) to fit an incoming sized bundle
// under the byte capacity.
func (n *Node) NoteByteDropped(id bundle.ID, now sim.Time) {
	n.ByteDropped++
	if n.DropHook != nil {
		n.DropHook(n.ID, id, DropBytePressure, now)
	}
}

// NotePurged reports one protocol-purged copy (already removed from
// the store) to observers. Purging delivered copies is the immunity
// mechanism working as designed, so unlike the other drops it
// increments no counter.
func (n *Node) NotePurged(id bundle.ID, now sim.Time) {
	if n.DropHook != nil {
		n.DropHook(n.ID, id, DropPurged, now)
	}
}

func (n *Node) String() string {
	return fmt.Sprintf("node(%d, %d/%d buffered)", n.ID, n.Store.Len(), n.Store.Cap())
}
