package core

import (
	"dtnsim/internal/node"
)

// This file is the executor seam (DESIGN.md §12, §13): the narrow
// interface through which the epoch loop (loop.go) hands every window
// of items to whatever executes them — the kernel pool in pool.go,
// worker processes in internal/dist, remote hosts tomorrow. Everything
// order-sensitive stays on this side of the seam: item collection, the
// canonical-order merge, sampling, and the Result assembly all run on
// the coordinating goroutine, so a backend only has to execute items
// faithfully (via Kernel) to inherit the executor-independence proofs
// wholesale.

// RunEnv is the run context handed to a backend at Start: the defaulted
// Config (protocol instance included) and the run's nodes, freshly
// constructed and protocol-initialized. A backend either executes on
// Nodes in place (the pool): they are the authoritative state,
// NodeOccupancy reads them and Finish is a no-op; or owns the state
// elsewhere (dist): Nodes stay pristine for the whole run, NodeOccupancy
// answers from the backend's own view, and Finish writes the final
// states back into Nodes, where Result reads control overhead and
// stores. The loop cannot tell which.
type RunEnv struct {
	Cfg   Config
	Nodes []*node.Node
}

// Epoch is one window of an epoch (the name predates the windows): at
// most WindowItems consecutive items of the canonical-order list
// between two sampling ticks. Items expose their endpoints and payloads
// for shipping; the backend must leave each item's Fx holding exactly
// the effects Kernel.Exec would have recorded, in the same program
// order — merge replays them assuming so.
type Epoch struct {
	items []EpochItem
}

// Len returns the number of items in the window.
func (ep *Epoch) Len() int { return len(ep.items) }

// Item returns the i-th item in canonical order. The pointer is valid
// until RunEpoch returns: the loop reuses the slots for the next window.
func (ep *Epoch) Item(i int) *EpochItem { return &ep.items[i] }

// EpochBackend executes windows of items on behalf of the epoch loop.
// Implementations must respect the per-node dependency order: two items
// sharing an endpoint execute in item-index order, with the later one
// observing all node mutations of the earlier — within a window and
// across windows. Items not sharing a node may run concurrently,
// anywhere; Partitioner.Split finds them.
type EpochBackend interface {
	// Start begins a run. The backend captures what it needs from the
	// environment (config scalars, protocol spec, population) and
	// prepares its executors.
	Start(env RunEnv) error
	// RunEpoch executes every item of one window and fills the items'
	// effect buffers. It may be called several times per epoch, never
	// with an empty window.
	RunEpoch(ep *Epoch) error
	// NodeOccupancy returns node i's current buffer occupancy — the
	// value nodes[i].Store.Occupancy() would return on the
	// authoritative state — read for every node in turn at the first
	// sampling tick and at each tick that follows a RunEpoch call:
	// between RunEpoch calls, and never twice for the same state.
	NodeOccupancy(i int) float64
	// Finish ends the run, leaving the authoritative final node states
	// in the Start environment's Nodes so Result assembly reads them
	// locally. Called once, only on successful runs: never after a
	// failed RunEpoch or a cancelled run.
	Finish() error
}
