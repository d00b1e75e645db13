package core

import (
	"sync"
	"sync/atomic"

	"dtnsim/internal/contact"
	"dtnsim/internal/node"
)

// This file is the in-process EpochBackend (DESIGN.md §12): Shards = K
// runs every epoch on K goroutines, entered by the loop through the same
// seam (backend.go) as a distributed backend. It executes on the run's
// own nodes in place, so NodeOccupancy reads them and Finish has nothing
// to restore.

// worker is one executor goroutine's private state: a Kernel with its
// own reseedable encounter stream and drop-policy instance, so no
// random draw ever crosses a goroutine boundary.
type worker struct {
	kern *Kernel
	mbox chan *EpochItem
}

// pool dispatches an epoch's items to its workers along the per-node
// dependency chains.
type pool struct {
	nodes   []*node.Node
	workers []*worker
	// tails/touched index the per-node chain heads during item linking.
	tails   []*EpochItem
	touched []contact.NodeID
}

var _ EpochBackend = (*pool)(nil)

func newPool(k int) *pool { return &pool{workers: make([]*worker, k)} }

// Start builds one kernel per worker over the run's nodes and binds
// every node's drop hook.
func (p *pool) Start(env RunEnv) error {
	p.nodes = env.Nodes
	p.tails = make([]*EpochItem, len(env.Nodes))
	// hooks[n] is the effect buffer of the item currently executing on
	// node n. Only the kernel holding n's chain position touches entry
	// n, so writes are ordered by the chain's happens-before edges.
	hooks := make([]*EffectBuf, len(env.Nodes))
	for i := range p.workers {
		kern, err := NewKernel(&env.Cfg, env.Nodes, hooks)
		if err != nil {
			return err
		}
		p.workers[i] = &worker{kern: kern}
	}
	for _, n := range env.Nodes {
		p.workers[0].kern.BindHook(n)
	}
	return nil
}

// RunEpoch executes the epoch's items on the workers. Dependency
// chains: an item is ready once every earlier item sharing one of its
// nodes has finished; readiness is tracked with an atomic countdown and
// ready items travel to their owner worker (lower endpoint mod K) over
// buffered channels, so sends never block and every channel receive
// gives the race detector the happens-before edge matching the chain.
func (p *pool) RunEpoch(ep *Epoch) error {
	n := len(ep.items)
	for i := range ep.items {
		it := &ep.items[i]
		p.chain(it, it.A)
		if it.B != it.A {
			p.chain(it, it.B)
		}
	}
	var items sync.WaitGroup
	items.Add(n)
	for _, w := range p.workers {
		w.mbox = make(chan *EpochItem, n)
	}
	// Seed the roots before any worker starts: deps still holds the
	// chain builder's single-threaded value here, so "deps == 0" is
	// exactly the root set, and the buffered sends cannot block. Seeding
	// after spawn would race — a running worker's fanout can decrement a
	// successor to zero and enqueue it while the scan is still walking,
	// and the scan would then send that item a second time.
	for i := range ep.items {
		it := &ep.items[i]
		if it.deps == 0 {
			p.workers[int(it.A)%len(p.workers)].mbox <- it
		}
	}
	var done sync.WaitGroup
	for _, w := range p.workers {
		done.Add(1)
		go func(w *worker) {
			defer done.Done()
			for it := range w.mbox {
				w.kern.Exec(it)
				p.fanout(it)
				items.Done()
			}
		}(w)
	}
	items.Wait()
	for _, w := range p.workers {
		close(w.mbox)
	}
	done.Wait()
	for _, nd := range p.touched {
		p.tails[nd] = nil
	}
	p.touched = p.touched[:0]
	return nil
}

func (p *pool) NodeOccupancy(i int) float64 { return p.nodes[i].Store.Occupancy() }

func (p *pool) Finish() error { return nil }

// chain links it onto node nd's dependency chain.
func (p *pool) chain(it *EpochItem, nd contact.NodeID) {
	prev := p.tails[nd]
	if prev == nil {
		p.touched = append(p.touched, nd)
	} else {
		slot := 0
		if prev.A != nd {
			slot = 1
		}
		prev.next[slot] = it
		it.deps++
	}
	p.tails[nd] = it
}

// fanout releases it's chain successors, dispatching any that became
// ready to their owner worker's mailbox.
//
//dtn:hotpath
func (p *pool) fanout(it *EpochItem) {
	for s := 0; s < 2; s++ {
		nxt := it.next[s]
		if nxt != nil && atomic.AddInt32(&nxt.deps, -1) == 0 {
			p.workers[int(nxt.A)%len(p.workers)].mbox <- nxt
		}
	}
}
