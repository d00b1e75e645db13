package metrics

import (
	"math"
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// sample snapshots the population and folds the observation into c,
// replicating the engine's sampling tick.
func sample(c *Collector, nodes []*node.Node, tracked []*bundle.Bundle, now sim.Time) {
	c.OnSample(Snapshot(nodes, tracked, now))
}

func TestCollectorOccupancy(t *testing.T) {
	nodes := []*node.Node{node.New(0, 10), node.New(1, 10)}
	c := NewCollector()
	put := func(n *node.Node, seq int) {
		cp := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: seq}, Dst: 1}, Expiry: sim.Infinity}
		if err := n.Store.Put(cp); err != nil {
			t.Fatal(err)
		}
	}
	put(nodes[0], 1)
	put(nodes[0], 2)
	// Node0: 2/10, node1: 0/10 → mean 0.1.
	sample(c, nodes, nil, 0)
	if got := c.MeanOccupancy(); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("occupancy = %v, want 0.1", got)
	}
	put(nodes[1], 1)
	put(nodes[1], 2)
	// Second sample: (0.2+0.2)/2 = 0.2; time-average (0.1+0.2)/2 = 0.15.
	sample(c, nodes, nil, 1000)
	if got := c.MeanOccupancy(); math.Abs(got-0.15) > 1e-12 {
		t.Errorf("occupancy after 2 samples = %v, want 0.15", got)
	}
	if c.Samples() != 2 {
		t.Errorf("Samples = %d", c.Samples())
	}
}

func TestCollectorDuplication(t *testing.T) {
	nodes := []*node.Node{node.New(0, 10), node.New(1, 10), node.New(2, 10), node.New(3, 10)}
	c := NewCollector()
	b1 := &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: 1}, Dst: 3}
	b2 := &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: 2}, Dst: 3}
	tracked := []*bundle.Bundle{b1, b2}
	store := func(n *node.Node, b *bundle.Bundle) {
		if err := n.Store.Put(&bundle.Copy{Bundle: b, Expiry: sim.Infinity}); err != nil {
			t.Fatal(err)
		}
	}
	// b1 at 2/4 nodes, b2 at 1/4 nodes → mean (0.5+0.25)/2 = 0.375.
	store(nodes[0], b1)
	store(nodes[1], b1)
	store(nodes[0], b2)
	sample(c, nodes, tracked, 0)
	if got := c.MeanDuplication(); math.Abs(got-0.375) > 1e-12 {
		t.Errorf("duplication = %v, want 0.375", got)
	}
}

func TestCollectorNoBundlesNoDuplicationSamples(t *testing.T) {
	c := NewCollector()
	sample(c, []*node.Node{node.New(0, 10)}, nil, 0)
	if c.MeanDuplication() != 0 {
		t.Error("duplication with no tracked bundles should be 0")
	}
}

// TestOverheadAndDataTotals: the collector sums the control records the
// engine adds per contact beside the transmissions its observer stream
// reports, and neither count leaks into the other.
func TestOverheadAndDataTotals(t *testing.T) {
	var c Collector
	c.AddRecords(7)
	c.AddRecords(0)
	c.AddRecords(5)
	c.OnTransmit(0, 1, bundle.ID{Src: 0, Seq: 1}, 10)
	if c.Records() != 12 || c.Transmissions() != 1 {
		t.Errorf("records %d, transmissions %d; want 12, 1", c.Records(), c.Transmissions())
	}
}

func TestCollectorDuplicationSkipsDeadBundles(t *testing.T) {
	nodes := []*node.Node{node.New(0, 10), node.New(1, 10)}
	c := NewCollector()
	alive := &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: 1}, Dst: 1}
	dead := &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: 2}, Dst: 1}
	tracked := []*bundle.Bundle{alive, dead}
	if err := nodes[0].Store.Put(&bundle.Copy{Bundle: alive, Expiry: sim.Infinity}); err != nil {
		t.Fatal(err)
	}
	// dead has zero holders: it must not drag the average down.
	sample(c, nodes, tracked, 0)
	if got := c.MeanDuplication(); got != 0.5 {
		t.Errorf("duplication = %v, want 0.5 (alive bundle at 1/2 nodes)", got)
	}
}

func TestCollectorAllDeadSkipsSample(t *testing.T) {
	c := NewCollector()
	tracked := []*bundle.Bundle{{ID: bundle.ID{Src: 0, Seq: 1}, Dst: 1}}
	// No holders anywhere: the sample contributes nothing.
	sample(c, []*node.Node{node.New(0, 10)}, tracked, 0)
	if c.MeanDuplication() != 0 {
		t.Error("all-dead sample counted")
	}
}

func TestCollectorEventCounts(t *testing.T) {
	c := NewCollector()
	id := bundle.ID{Src: 0, Seq: 1}
	c.OnGenerate(id, 1, 0)
	c.OnTransmit(0, 1, id, 100)
	c.OnTransmit(1, 2, id, 200)
	c.OnDeliver(id, 1, 300, 300)
	c.OnDrop(2, id, node.DropEvicted, 400)
	if c.Transmissions() != 2 || c.Drops() != 1 {
		t.Errorf("counts = %d/%d, want 2/1", c.Transmissions(), c.Drops())
	}
}

// TestHolderTrackerBasics covers Track/Inc/Dec bookkeeping and the
// panics guarding against silent drift.
func TestHolderTrackerBasics(t *testing.T) {
	tr := NewHolderTracker()
	id := bundle.ID{Src: 1, Seq: 1}
	tr.Track(id)
	if tr.Tracked() != 1 || tr.Holders(id) != 0 {
		t.Fatalf("fresh bundle: tracked=%d holders=%d", tr.Tracked(), tr.Holders(id))
	}
	tr.Inc(id)
	tr.Inc(id)
	tr.Dec(id)
	if tr.Holders(id) != 1 {
		t.Errorf("holders = %d, want 1", tr.Holders(id))
	}
	if tr.Holders(bundle.ID{Src: 9, Seq: 9}) != 0 {
		t.Error("untracked bundle should report zero holders")
	}
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		fn()
	}
	mustPanic("double Track", func() { tr.Track(id) })
	mustPanic("Inc untracked", func() { tr.Inc(bundle.ID{Src: 9, Seq: 9}) })
	mustPanic("Dec untracked", func() { tr.Dec(bundle.ID{Src: 9, Seq: 9}) })
	tr.Dec(id)
	mustPanic("Dec below zero", func() { tr.Dec(id) })
}

// TestHolderTrackerIndexIsCreationOrder: a bundle's dense index is its
// position in Track order, whether its ID extends a run, starts one
// between two others, or sits in a gap of a run tracked earlier; IDs
// next to tracked ones stay untracked.
func TestHolderTrackerIndexIsCreationOrder(t *testing.T) {
	tr := NewHolderTracker()
	tr.Grow(8)
	order := []bundle.ID{
		{Src: 1, Seq: 1}, {Src: 1, Seq: 2}, {Src: 0, Seq: 5}, {Src: 1, Seq: 4},
		{Src: 0, Seq: 6}, {Src: 2, Seq: 1}, {Src: 1, Seq: 3}, {Src: 1, Seq: 5},
	}
	for _, id := range order {
		tr.Track(id)
	}
	for i, id := range order {
		if got := tr.Index(id); got != i {
			t.Errorf("Index(%v) = %d, want %d", id, got, i)
		}
	}
	for _, id := range []bundle.ID{{Src: 0, Seq: 4}, {Src: 0, Seq: 7}, {Src: 1, Seq: 0}, {Src: 1, Seq: 6}, {Src: 2, Seq: 2}, {Src: 3, Seq: 1}} {
		if got := tr.Index(id); got != -1 {
			t.Errorf("Index(%v) = %d for an untracked ID, want -1", id, got)
		}
	}
	if tr.Tracked() != len(order) {
		t.Errorf("Tracked() = %d, want %d", tr.Tracked(), len(order))
	}
}

// TestHolderTrackerSampleMatchesSnapshot is the metric-level
// equivalence proof: under random store churn mirrored into a tracker,
// the incremental SampleFunc — reading the stores through the same
// occupancy accessor the engine's in-tree executor hands it — must
// equal the reference full-scan Snapshot bit-for-bit at every step.
func TestHolderTrackerSampleMatchesSnapshot(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 5))
		nNodes := 3 + int(seed%5)
		nodes := make([]*node.Node, nNodes)
		for i := range nodes {
			nodes[i] = node.New(contact.NodeID(i), 4)
		}
		occ := func(i int) float64 { return nodes[i].Store.Occupancy() }
		tr := NewHolderTracker()
		var tracked []*bundle.Bundle
		for step := 0; step < 150; step++ {
			switch r.IntN(4) {
			case 0: // generate a new tracked bundle
				b := &bundle.Bundle{
					ID:  bundle.ID{Src: contact.NodeID(r.IntN(nNodes)), Seq: len(tracked) + 1},
					Dst: contact.NodeID(r.IntN(nNodes)),
				}
				tracked = append(tracked, b)
				tr.Track(b.ID)
			case 1: // store a copy somewhere
				if len(tracked) == 0 {
					continue
				}
				b := tracked[r.IntN(len(tracked))]
				n := nodes[r.IntN(nNodes)]
				cp := &bundle.Copy{Bundle: b, Expiry: 1 << 40, Pinned: r.IntN(6) == 0}
				if err := n.Store.Put(cp); err == nil {
					tr.Inc(b.ID)
				}
			case 2: // drop a copy
				if len(tracked) == 0 {
					continue
				}
				b := tracked[r.IntN(len(tracked))]
				n := nodes[r.IntN(nNodes)]
				if n.Store.Remove(b.ID) {
					tr.Dec(b.ID)
				}
			case 3: // compare a sample
				now := sim.Time(step)
				if tr.SampleFunc(nNodes, occ, now) != Snapshot(nodes, tracked, now) {
					return false
				}
			}
		}
		return tr.SampleFunc(nNodes, occ, 999) == Snapshot(nodes, tracked, 999)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// TestHolderTrackerSampleZeroAlloc: the per-tick sampling path must not
// allocate.
func TestHolderTrackerSampleZeroAlloc(t *testing.T) {
	nodes, tracked := benchPopulation(t, 20, 50)
	tr := NewHolderTracker()
	for _, b := range tracked {
		tr.Track(b.ID)
	}
	for _, n := range nodes {
		n.Store.Range(func(cp *bundle.Copy) bool { tr.Inc(cp.Bundle.ID); return true })
	}
	occ := func(i int) float64 { return nodes[i].Store.Occupancy() }
	if allocs := testing.AllocsPerRun(100, func() { tr.SampleFunc(len(nodes), occ, 1000) }); allocs != 0 {
		t.Errorf("SampleFunc allocates %v/op, want 0", allocs)
	}
}

// TestCollectorDropsByReason checks the per-reason split sums to the
// total and lands in the right buckets.
func TestCollectorDropsByReason(t *testing.T) {
	c := NewCollector()
	id := bundle.ID{Src: 0, Seq: 1}
	c.OnDrop(0, id, node.DropRefused, 0)
	c.OnDrop(0, id, node.DropRefused, 0)
	c.OnDrop(0, id, node.DropEvicted, 0)
	c.OnDrop(0, id, node.DropExpired, 0)
	c.OnDrop(0, id, node.DropPurged, 0)
	if c.Drops() != 5 {
		t.Fatalf("Drops = %d, want 5", c.Drops())
	}
	want := map[node.DropReason]int64{
		node.DropRefused: 2, node.DropEvicted: 1, node.DropExpired: 1, node.DropPurged: 1,
	}
	var sum int64
	for reason, n := range want {
		if got := c.DropsByReason(reason); got != n {
			t.Errorf("DropsByReason(%s) = %d, want %d", reason, got, n)
		}
		sum += c.DropsByReason(reason)
	}
	if sum != c.Drops() {
		t.Errorf("per-reason sum %d != total %d", sum, c.Drops())
	}
	if c.DropsByReason("bogus") != 0 {
		t.Error("unknown reason should be zero")
	}
}
