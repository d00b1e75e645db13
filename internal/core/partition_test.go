package core

import (
	"math/rand/v2"
	"reflect"
	"sort"
	"testing"

	"dtnsim/internal/contact"
)

// referenceSplit is the scheduling rule as internal/dist implemented it
// before the Partitioner existed (components, then assign): per-
// component item lists found through maps, a sort.Slice by (size
// descending, first item ascending), largest-first dealing to the
// least-loaded executor, a sort.Ints per list. The rule decides which
// worker process is shipped which item, so Split must reproduce it
// exactly, not merely produce some valid partition.
func referenceSplit(items []EpochItem, lo, hi, k int) [][]int {
	parent := map[int]int{}
	var find func(x int) int
	find = func(x int) int {
		if p, ok := parent[x]; ok && p != x {
			parent[x] = find(p)
		} else {
			parent[x] = x
		}
		return parent[x]
	}
	for i := lo; i < hi; i++ {
		if a, b := find(int(items[i].A)), find(int(items[i].B)); a != b {
			parent[max(a, b)] = min(a, b)
		}
	}
	compOf := map[int]int{}
	var comps [][]int
	for i := lo; i < hi; i++ {
		root := find(int(items[i].A))
		ci, ok := compOf[root]
		if !ok {
			ci = len(comps)
			compOf[root] = ci
			comps = append(comps, nil)
		}
		comps[ci] = append(comps[ci], i)
	}
	sort.Slice(comps, func(x, y int) bool {
		if len(comps[x]) != len(comps[y]) {
			return len(comps[x]) > len(comps[y])
		}
		return comps[x][0] < comps[y][0]
	})
	lists, loads := make([][]int, k), make([]int, k)
	for _, c := range comps {
		best := 0
		for w := 1; w < k; w++ {
			if loads[w] < loads[best] {
				best = w
			}
		}
		loads[best] += len(c)
		lists[best] = append(lists[best], c...)
	}
	for w := range lists {
		sort.Ints(lists[w])
	}
	return lists
}

// cloneLists copies a Split result out of the Partitioner's scratch,
// normalizing empty lists so DeepEqual compares contents only.
func cloneLists(lists [][]int) [][]int {
	out := make([][]int, len(lists))
	for w, l := range lists {
		out[w] = append([]int{}, l...)
	}
	return out
}

// checkSplit holds one window to everything Split promises.
func checkSplit(t *testing.T, items []EpochItem, nodes, lo, hi, k int) {
	t.Helper()
	ep := &Epoch{items: items}
	var p Partitioner
	got := cloneLists(p.Split(ep, nodes, lo, hi, k))
	if len(got) != k {
		t.Fatalf("%d lists for k=%d", len(got), k)
	}
	seen := make(map[int]bool)
	owner := make(map[contact.NodeID]int)
	for w, list := range got {
		for j, idx := range list {
			if idx < lo || idx >= hi || seen[idx] {
				t.Fatalf("list %d holds index %d: outside [%d,%d) or dealt twice", w, idx, lo, hi)
			}
			seen[idx] = true
			if j > 0 && list[j-1] >= idx {
				t.Fatalf("list %d not ascending: %v", w, list)
			}
			for _, nd := range [2]contact.NodeID{items[idx].A, items[idx].B} {
				if prev, ok := owner[nd]; ok && prev != w {
					t.Fatalf("node %d is in lists %d and %d", nd, prev, w)
				}
				owner[nd] = w
			}
		}
	}
	if len(seen) != hi-lo {
		t.Fatalf("%d of %d items dealt", len(seen), hi-lo)
	}
	if hi > lo && len(got[0]) == 0 {
		t.Fatal("list 0 (the caller's) is empty on a non-empty window")
	}
	if want := cloneLists(referenceSplit(items, lo, hi, k)); !reflect.DeepEqual(got, want) {
		t.Fatalf("Split diverged from the reference rule\n got: %v\nwant: %v", got, want)
	}
	if again := cloneLists(p.Split(ep, nodes, lo, hi, k)); !reflect.DeepEqual(got, again) {
		t.Fatalf("second call differs\n got: %v\nwant: %v", again, got)
	}
	// A Partitioner that has seen other windows — wider, other k, the
	// whole list — must not remember them.
	var used Partitioner
	used.Split(ep, nodes, 0, len(items), k+3)
	used.Split(ep, nodes, lo, hi, 1)
	if after := cloneLists(used.Split(ep, nodes, lo, hi, k)); !reflect.DeepEqual(got, after) {
		t.Fatalf("a reused Partitioner differs from a fresh one\n got: %v\nwant: %v", after, got)
	}
}

// fuzzWindow decodes a window from fuzz bytes: population, executor
// count, the [lo, hi) range inside the list, then one item per byte
// pair — a generation item when the two endpoints coincide.
func fuzzWindow(data []byte) (items []EpochItem, nodes, lo, hi, k int) {
	if len(data) < 4 {
		return nil, 2, 0, 0, 1
	}
	nodes = 2 + int(data[0])%40
	k = []int{1, 2, 3, 8, 64}[int(data[1])%5]
	for i := 4; i+1 < len(data); i += 2 {
		a, b := contact.NodeID(int(data[i])%nodes), contact.NodeID(int(data[i+1])%nodes)
		if a > b {
			a, b = b, a
		}
		items = append(items, EpochItem{A: a, B: b, Gen: a == b})
	}
	lo = int(data[2]) % (len(items) + 1)
	hi = lo + int(data[3])%(len(items)-lo+1)
	return items, nodes, lo, hi, k
}

func FuzzPartitioner(f *testing.F) {
	f.Add([]byte{10, 1, 0, 255, 0, 1, 2, 3, 4, 5, 6, 7})                // all disjoint
	f.Add([]byte{10, 2, 0, 255, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5})          // one chain: a giant component
	f.Add([]byte{10, 3, 0, 255, 0, 1, 0, 1, 0, 1, 5, 5, 5, 5, 2, 3})    // repeated pairs, generation items
	f.Add([]byte{6, 4, 1, 4, 0, 1, 2, 3, 4, 5, 0, 5, 1, 1, 2, 4, 3, 3}) // k > components, a sub-range
	f.Add([]byte{3, 0, 0, 0, 0, 1})                                     // empty range
	f.Fuzz(func(t *testing.T, data []byte) {
		items, nodes, lo, hi, k := fuzzWindow(data)
		checkSplit(t, items, nodes, lo, hi, k)
	})
}

// TestPartitionerShapes drives the same checks over seeded random
// windows of the shapes the loop produces at scale — WindowItems items
// over populations from denser-than-the-window to sparser — for every
// executor count the suites use.
func TestPartitionerShapes(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 1))
	for _, nodes := range []int{2, 12, 300, 5000} {
		for _, k := range []int{1, 2, 3, 8, 600} {
			items := make([]EpochItem, WindowItems)
			for i := range items {
				a, b := r.IntN(nodes), r.IntN(nodes)
				items[i] = EpochItem{A: contact.NodeID(min(a, b)), B: contact.NodeID(max(a, b)), Gen: a == b}
			}
			checkSplit(t, items, nodes, 0, len(items), k)
			checkSplit(t, items, nodes, 100, 101, k)
		}
	}
}

// TestPartitionerSteadyStateAllocs: Split runs once per window on the
// K >= 2 and distributed paths; after the first window it must reuse
// its scratch.
func TestPartitionerSteadyStateAllocs(t *testing.T) {
	r := rand.New(rand.NewPCG(23, 2))
	items := make([]EpochItem, WindowItems)
	for i := range items {
		a := r.IntN(999)
		items[i] = EpochItem{A: contact.NodeID(a), B: contact.NodeID(a + 1 + r.IntN(999-a))}
	}
	ep := &Epoch{items: items}
	var p Partitioner
	p.Split(ep, 1000, 0, len(items), 4)
	if allocs := testing.AllocsPerRun(50, func() { p.Split(ep, 1000, 0, len(items), 4) }); allocs != 0 {
		t.Errorf("steady-state Split allocates %v/op, want 0", allocs)
	}
}
