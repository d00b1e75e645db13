package core

import "slices"

// WindowItems is the most items the loop hands an executor that can
// schedule them (a pool of two or more kernels, a Config.Backend) in
// one RunEpoch call. A whole epoch's contact graph is usually one giant
// component; a window's rarely is, so a bounded window is what exposes
// parallelism on dense contact plans — and what keeps a run from
// materializing an epoch's thousands of effect buffers.
const WindowItems = 512

// Partitioner is the one scheduler (DESIGN.md §12): it splits a window
// of items into node-disjoint lists, one per executor, so each list can
// run start to finish with no coordination — on a goroutine (pool.go)
// or a worker process (internal/dist). The rule is wire-visible (it
// decides which worker is shipped which item) and a pure function of
// the window: connected components of the items' endpoint graph,
// numbered in first-item order, are dealt by size descending, first
// item ascending, each to the least-loaded executor, ties to the lowest
// index; every list is ascending.
//
// The zero value is ready. Scratch is reused, so a steady-state Split
// allocates nothing; the returned lists are valid until the next call.
type Partitioner struct {
	// parent is a union-find forest over node IDs, -1 where the current
	// window has not touched the node; touched lists the rest, so reset
	// undoes only what a window used.
	parent  []int32
	touched []int32
	// comp[root] is the component number of the tree rooted at root,
	// -1 until the numbering pass reaches one of its items.
	comp []int32
	// of[i] is the component number of the window's i-th item, kept
	// from the numbering pass so dealing needs no find.
	of []int32
	// size[c] is how many of the window's items component c holds.
	size []int32
	// at[s] counts the components of size s, then becomes where the
	// next one goes in deal, the components in dealing order.
	at    []int32
	deal  []int32
	owner []int32 // owner[c] is the executor component c was dealt to
	loads []int   // items dealt to each executor so far
	lists [][]int
}

// Split partitions items [lo, hi) of ep, whose endpoints lie in
// [0, nodes), into k lists of ascending item indexes. Two items sharing
// a node land in one list; lists may be empty, and list 0 never is
// while the range is not.
func (p *Partitioner) Split(ep *Epoch, nodes, lo, hi, k int) [][]int {
	p.reset(nodes)
	items := ep.items[lo:hi]
	for i := range items {
		// Join the endpoints' trees (a generation item has A == B). The
		// smaller root wins: deterministic, and good enough without
		// ranks at window sizes.
		ra, rb := p.find(int(items[i].A)), p.find(int(items[i].B))
		p.parent[max(ra, rb)] = int32(min(ra, rb))
	}
	p.of = slices.Grow(p.of[:0], len(items))[:len(items)]
	size := p.size[:0]
	for i := range items {
		root := p.find(int(items[i].A))
		if p.comp[root] < 0 {
			p.comp[root] = int32(len(size))
			size = append(size, 0)
		}
		p.of[i] = p.comp[root]
		size[p.comp[root]]++
	}
	p.size = size
	// Deal by size descending, number ascending — numbers follow
	// first-item order, so the lower number is the earlier first item.
	// Sizes are at most the window's item count, so a counting pass
	// orders them: at[s] becomes the first slot of size s, and
	// placing the components in number order keeps equal sizes
	// ascending.
	at := slices.Grow(p.at[:0], len(items)+1)[:len(items)+1]
	clear(at)
	for _, n := range size {
		at[n]++
	}
	next := int32(0)
	for n := len(items); n > 0; n-- {
		at[n], next = next, next+at[n]
	}
	p.at = at
	deal := slices.Grow(p.deal[:0], len(size))[:len(size)]
	for c, n := range size {
		deal[at[n]] = int32(c)
		at[n]++
	}
	p.deal = deal
	for len(p.lists) < k {
		p.lists = append(p.lists, nil)
		p.loads = append(p.loads, 0)
	}
	lists, loads := p.lists[:k], p.loads[:k]
	clear(loads)
	for w := range lists {
		lists[w] = lists[w][:0]
	}
	p.owner = slices.Grow(p.owner[:0], len(size))[:len(size)]
	for _, c := range deal {
		best := 0
		for w := 1; w < k; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		loads[best] += int(size[c])
		p.owner[c] = int32(best)
	}
	// One ordered pass deals the items: ascending lists for free, and
	// interleaving a list's components is harmless — they share no node.
	for i, c := range p.of {
		w := p.owner[c]
		lists[w] = append(lists[w], lo+i)
	}
	return lists
}

func (p *Partitioner) reset(nodes int) {
	for _, i := range p.touched {
		p.parent[i] = -1
	}
	p.touched = p.touched[:0]
	for len(p.parent) < nodes {
		p.parent, p.comp = append(p.parent, -1), append(p.comp, -1)
	}
}

// find returns x's root, compressing the path; a node's first find in
// a window makes it a singleton tree with no component number yet.
func (p *Partitioner) find(x int) int {
	if p.parent[x] == -1 {
		p.parent[x], p.comp[x] = int32(x), -1
		p.touched = append(p.touched, int32(x))
	}
	root := x
	for int(p.parent[root]) != root {
		root = int(p.parent[root])
	}
	for int(p.parent[x]) != root {
		x, p.parent[x] = int(p.parent[x]), int32(root)
	}
	return root
}
