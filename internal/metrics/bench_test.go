package metrics

// Hot-path benchmarks for the periodic sampling tick. BenchmarkSnapshot
// times the reference full-scan computation (O(nodes × tracked) for the
// duplication term); the paired incremental-tracker benchmark times the
// engine's indexed path over identical state. cmd/benchguard compares
// the pair's speedup against the baseline in BENCH_hotpath.json.

import (
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
)

// benchPopulation builds a deterministic population: nNodes nodes with
// 10-slot buffers and nTracked bundles whose copies are spread over the
// stores in a fixed pattern (~37% of node×bundle pairs hold a copy,
// capped by buffer capacity; every 7th bundle has no holder at all).
func benchPopulation(b testing.TB, nNodes, nTracked int) ([]*node.Node, []*bundle.Bundle) {
	b.Helper()
	nodes := make([]*node.Node, nNodes)
	for i := range nodes {
		nodes[i] = node.New(contact.NodeID(i), 10)
	}
	tracked := make([]*bundle.Bundle, nTracked)
	for j := range tracked {
		tracked[j] = &bundle.Bundle{
			ID:  bundle.ID{Src: contact.NodeID(j % nNodes), Seq: j + 1},
			Dst: contact.NodeID((j + 1) % nNodes),
		}
	}
	for i, n := range nodes {
		for j, bb := range tracked {
			if j%7 == 0 || (i*31+j*17)%8 >= 3 {
				continue
			}
			if n.Store.Free() == 0 {
				break
			}
			cp := &bundle.Copy{Bundle: bb, Expiry: 1 << 40}
			if err := n.Store.Put(cp); err != nil {
				b.Fatal(err)
			}
		}
	}
	return nodes, tracked
}

// BenchmarkSnapshot times the reference full-scan sample computation.
func BenchmarkSnapshot(b *testing.B) {
	nodes, tracked := benchPopulation(b, 100, 400)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := Snapshot(nodes, tracked, 1000)
		if s.Tracked != len(tracked) {
			b.Fatal("bad sample")
		}
	}
}

// BenchmarkSnapshotIncremental times the engine's sampling path: the
// same observation computed from incrementally maintained holder
// counts. Its speedup over BenchmarkSnapshot is what cmd/benchguard
// tracks against BENCH_hotpath.json (pair "snapshot", default 20%
// tolerance): the committed 260x is a conservative floor, about half the
// measured ratio, so hardware variance cannot flake the gate while a
// reintroduced per-bundle store scan collapses it. The floor was 800x
// while Store.Has hashed: the reference scan is 40,000 Has calls, and
// PR 19's bisected store made each about four times cheaper (870 -> 210
// us/op) with this benchmark's own ns/op unmoved — the ratio's base
// moved, not the fast path. Since PR 23 every executor is sampled
// through SampleFunc's occupancy accessor (the node-slice copy, Sample,
// is gone), so this benchmark goes through it too: one indirect call per
// node, 475-700 ns/op against ~430 before on the same box, the pair at
// 600-700x. Also in 'zero_alloc'.
func BenchmarkSnapshotIncremental(b *testing.B) {
	nodes, tracked := benchPopulation(b, 100, 400)
	tr := NewHolderTracker()
	for _, bb := range tracked {
		tr.Track(bb.ID)
	}
	for _, n := range nodes {
		n.Store.Range(func(cp *bundle.Copy) bool {
			tr.Inc(cp.Bundle.ID)
			return true
		})
	}
	occ := func(i int) float64 { return nodes[i].Store.Occupancy() }
	// The incremental path must agree with the reference scan exactly.
	if tr.SampleFunc(len(nodes), occ, 1000) != Snapshot(nodes, tracked, 1000) {
		b.Fatal("incremental sample diverges from scan")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := tr.SampleFunc(len(nodes), occ, 1000)
		if s.Tracked != len(tracked) {
			b.Fatal("bad sample")
		}
	}
}
