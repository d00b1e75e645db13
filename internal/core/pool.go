package core

import (
	"sync"

	"dtnsim/internal/node"
)

// This file is the in-process EpochBackend (DESIGN.md §12): K kernels
// over the run's own nodes, entered by the loop through the same seam
// (backend.go) as a distributed backend. It executes on the nodes in
// place, so NodeOccupancy reads them and Finish has nothing to restore.
// K = 1 is the sequential engine: the one kernel runs every window in
// item order on the calling goroutine.

// pool executes each window on its kernels: one per list the
// Partitioner can hand out. A Kernel carries its own reseedable
// encounter stream and drop-policy instance, so no random draw ever
// crosses a goroutine boundary.
//
// A Runner keeps its pool from run to run while the kernel count
// matches: Start rebuilds the kernels in place, and release empties
// them between runs.
type pool struct {
	nodes   []*node.Node
	kernels []*Kernel
	// hooks[n] is the effect buffer of the item currently executing on
	// node n. Within a window only the kernel running n's list touches
	// entry n, and windows are separated by RunEpoch's join.
	hooks []*EffectBuf
	part  Partitioner
	// occupancy is NodeOccupancy, bound once when the pool is built, so
	// a run that reuses the pool binds nothing.
	occupancy func(int) float64
}

func newPool(k int) *pool {
	p := &pool{kernels: make([]*Kernel, k)}
	p.occupancy = p.NodeOccupancy
	return p
}

// Start builds the kernels over the run's nodes, reusing the ones an
// earlier Start built, and binds every node's drop hook.
func (p *pool) Start(env RunEnv) error {
	p.nodes = env.Nodes
	p.hooks = zeroed(p.hooks, len(env.Nodes))
	for i, prev := range p.kernels {
		kern, err := NewKernel(prev, &env.Cfg, env.Nodes, p.hooks)
		if err != nil {
			return err
		}
		p.kernels[i] = kern
	}
	for _, n := range env.Nodes {
		p.kernels[0].BindHook(n)
	}
	return nil
}

// release starts the pool on the empty run: no nodes, and a zero Config,
// which builds no drop policy and so cannot fail. The kernels keep their
// working memory and drop the run's protocol, policy and last copy.
func (p *pool) release() { _ = p.Start(RunEnv{}) }

// RunEpoch splits the window into node-disjoint lists and runs each
// start to finish on its own kernel — list 0 on the caller, the others
// on a goroutine each, joined before returning. Disjoint lists share no
// node state and the join orders this window's writes before any later
// window's reads; that is the whole synchronization argument. The
// goroutines live for one window, so there is no worker lifecycle to
// manage and a cancelled run cannot leak one.
func (p *pool) RunEpoch(ep *Epoch) error {
	if len(p.kernels) == 1 {
		for i := range ep.items {
			p.kernels[0].Exec(&ep.items[i])
		}
		return nil
	}
	lists := p.part.Split(ep, len(p.nodes), 0, len(ep.items), len(p.kernels))
	var wg sync.WaitGroup
	for w := 1; w < len(lists); w++ {
		if len(lists[w]) == 0 {
			continue
		}
		wg.Add(1)
		go func(kern *Kernel, idxs []int) {
			defer wg.Done()
			execList(kern, ep, idxs)
		}(p.kernels[w], lists[w])
	}
	execList(p.kernels[0], ep, lists[0])
	wg.Wait()
	return nil
}

func execList(kern *Kernel, ep *Epoch, idxs []int) {
	for _, i := range idxs {
		kern.Exec(&ep.items[i])
	}
}

func (p *pool) NodeOccupancy(i int) float64 { return p.nodes[i].Store.Occupancy() }

func (p *pool) Finish() error { return nil }
