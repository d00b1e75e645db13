// Package metrics implements the paper's four evaluation metrics (§IV):
//
//   - Buffer occupancy level: "the average buffer utilization of all
//     nodes" — sampled periodically, averaged over nodes then time.
//   - Bundle duplication rate: "the number of nodes in the network that
//     has a copy of a given bundle over the total number of nodes" —
//     averaged over bundles then time.
//   - Delivery ratio: received bundles over bundles sent.
//   - Delay: "the time taken for all bundles to arrive" (makespan),
//     recorded only for runs that complete.
//
// plus the signaling-overhead counter used by the §V-C comparison of
// immunity variants.
//
// The engine computes one Sample per sampling period via Snapshot and
// streams it — together with generate/transmit/deliver/drop events — to
// every core.Observer. Collector is the engine's built-in observer: it
// folds samples into the time-averaged occupancy and duplication the
// Result reports, and counts its transmissions, drops and control
// records. It satisfies core.Observer structurally, without importing
// core.
package metrics

import (
	"fmt"
	"slices"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
	"dtnsim/internal/stats"
)

// Sample is one periodic observation of the running simulation,
// computed by Snapshot at every sampling tick.
type Sample struct {
	// Now is the virtual time of the observation.
	Now sim.Time
	// Occupancy is the node-averaged buffer occupancy level.
	Occupancy float64
	// Duplication is the bundle-averaged duplication rate over the
	// Alive bundles; zero when none is alive.
	Duplication float64
	// Alive counts tracked bundles with at least one stored copy.
	// Duplication is conditioned on them: a bundle whose copies were
	// all purged (immunity) no longer has a duplication rate, rather
	// than dragging the average toward zero. This matches the paper's
	// reading, where effective purging and a high reported duplication
	// rate coexist (Fig. 9/10 vs §II-B).
	Alive int
	// Tracked counts workload bundles generated so far.
	Tracked int
}

// Snapshot computes one periodic observation over the population by
// full scan: O(nodes × tracked) for the duplication term. The engine's
// hot path uses HolderTracker.SampleFunc instead, which maintains the
// holder counts incrementally and reproduces this function's result
// bit-for-bit (the float accumulation order is identical); Snapshot is
// kept as the reference implementation the equivalence tests and the
// paired BenchmarkSnapshot* compare against.
func Snapshot(nodes []*node.Node, tracked []*bundle.Bundle, now sim.Time) Sample {
	s := Sample{Now: now, Tracked: len(tracked)}
	var occSum float64
	for _, n := range nodes {
		occSum += n.Store.Occupancy()
	}
	s.Occupancy = occSum / float64(len(nodes))

	var dupSum float64
	for _, b := range tracked {
		holders := 0
		for _, n := range nodes {
			if n.Store.Has(b.ID) {
				holders++
			}
		}
		if holders == 0 {
			continue
		}
		s.Alive++
		dupSum += float64(holders) / float64(len(nodes))
	}
	if s.Alive > 0 {
		s.Duplication = dupSum / float64(s.Alive)
	}
	return s
}

// HolderTracker maintains, for every tracked workload bundle, the
// number of node stores currently holding a copy of it — updated
// incrementally from the engine's store/drop/deliver bookkeeping
// instead of recomputed by scanning every store at every sampling tick.
// SampleFunc therefore costs O(nodes + tracked) rather than
// O(nodes × tracked).
//
// The engine is the single writer: Track on generation, Inc whenever a
// copy enters a store (the source's pinned Put, a relay's admission),
// Dec whenever a stored copy leaves one (eviction, TTL expiry, immunity
// purge — but not refusals, which never stored the copy). Bookkeeping
// bugs panic immediately rather than silently skewing the paper's
// duplication metric.
//
// Every tracked bundle has a dense index, its position in creation
// order (Index). IDs are found through runs, not a hash: a flow's
// bundles are consecutive sequence numbers of one source tracked one
// after another, so a run of Track calls extends one idRun, and a
// lookup binary-searches the few runs a workload has — one per flow.
type HolderTracker struct {
	// runs partition the tracked IDs into runs of consecutive
	// sequence numbers of one source, sorted by (src, seq).
	runs []idRun
	// counts[i] is the holder count of the i-th tracked bundle, in
	// creation order — the same order Snapshot scans, which keeps the
	// duplication sum's float accumulation bit-identical.
	counts []int
}

// idRun is the tracked IDs (src, seq) … (src, seq+n-1), whose dense
// indices are at … at+n-1.
type idRun struct {
	src    contact.NodeID
	seq, n int
	at     int
}

// NewHolderTracker returns an empty tracker.
func NewHolderTracker() *HolderTracker { return &HolderTracker{} }

// Clear empties t and keeps its slabs, so a tracker reused from run to
// run grows them once. One assignment resets the whole tracker.
func (t *HolderTracker) Clear() { *t = HolderTracker{runs: t.runs[:0], counts: t.counts[:0]} }

// Grow makes room for n more tracked bundles, for a caller that knows
// its workload's size: counts then never grow one append at a time.
func (t *HolderTracker) Grow(n int) { t.counts = slices.Grow(t.counts, n) }

// find returns the position of the last run starting at or before id,
// or -1 when none does.
//
//dtn:hotpath
func (t *HolderTracker) find(id bundle.ID) int {
	lo, hi := 0, len(t.runs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r := &t.runs[mid]; r.src < id.Src || r.src == id.Src && r.seq <= id.Seq {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo - 1
}

// Index returns id's dense index — its position in creation order — or
// -1 when id is untracked.
//
//dtn:hotpath
func (t *HolderTracker) Index(id bundle.ID) int {
	if i := t.find(id); i >= 0 {
		if r := &t.runs[i]; r.src == id.Src && id.Seq < r.seq+r.n {
			return r.at + id.Seq - r.seq
		}
	}
	return -1
}

// Track registers a newly generated workload bundle with zero holders.
// It takes the next dense index.
func (t *HolderTracker) Track(id bundle.ID) {
	i := t.find(id)
	if i >= 0 {
		r := &t.runs[i]
		if end := r.seq + r.n; r.src == id.Src && id.Seq < end {
			panic(fmt.Sprintf("metrics: bundle %v tracked twice", id))
		} else if r.src == id.Src && id.Seq == end && r.at+r.n == len(t.counts) {
			// The next bundle of the run tracked last. The run after
			// i starts past id, so the extended run overlaps nothing.
			r.n++
			t.counts = append(t.counts, 0)
			return
		}
	}
	t.runs = slices.Insert(t.runs, i+1, idRun{src: id.Src, seq: id.Seq, n: 1, at: len(t.counts)})
	t.counts = append(t.counts, 0)
}

// Tracked returns the number of registered bundles.
func (t *HolderTracker) Tracked() int { return len(t.counts) }

// Inc records one more store holding a copy of id.
//
//dtn:hotpath
func (t *HolderTracker) Inc(id bundle.ID) {
	i := t.Index(id)
	if i < 0 {
		panic(fmt.Sprintf("metrics: Inc on untracked bundle %v", id))
	}
	t.counts[i]++
}

// Dec records one store shedding its copy of id.
//
//dtn:hotpath
func (t *HolderTracker) Dec(id bundle.ID) {
	i := t.Index(id)
	if i < 0 {
		panic(fmt.Sprintf("metrics: Dec on untracked bundle %v", id))
	}
	if t.counts[i] == 0 {
		panic(fmt.Sprintf("metrics: holder count of %v went negative", id))
	}
	t.counts[i]--
}

// Holders returns the current holder count of id (zero if untracked).
//
//dtn:hotpath
func (t *HolderTracker) Holders(id bundle.ID) int {
	if i := t.Index(id); i >= 0 {
		return t.counts[i]
	}
	return 0
}

// SampleFunc computes one periodic observation from the maintained
// counts, reading each of the n nodes' occupancy through occ: the loop
// samples whatever state its executor holds authoritative — the run's
// own stores under the in-tree pool, a distributed coordinator's wire
// states — without knowing which. Bit-identical to Snapshot over the
// same population when occ(i) returns what nodes[i].Store.Occupancy()
// would (the float accumulation order is the same), without the
// per-bundle store scans.
//
//dtn:hotpath
func (t *HolderTracker) SampleFunc(n int, occ func(int) float64, now sim.Time) Sample {
	s := Sample{Now: now, Tracked: len(t.counts)}
	var occSum float64
	for i := 0; i < n; i++ {
		occSum += occ(i)
	}
	s.Occupancy = occSum / float64(n)

	var dupSum float64
	for _, holders := range t.counts {
		if holders == 0 {
			continue
		}
		s.Alive++
		dupSum += float64(holders) / float64(n)
	}
	if s.Alive > 0 {
		s.Duplication = dupSum / float64(s.Alive)
	}
	return s
}

// Collector aggregates the run's observer stream: it folds samples into
// the time-averaged metrics and counts the transmissions and drops the
// Result reports. It is the engine's built-in core.Observer. Control
// records are no observer event: the engine adds each contact's, as
// its Exchange returned them, through AddRecords. The collector is the
// only writer of all these counts; generation and delivery counts come
// from the engine's holder bookkeeping, not from here.
type Collector struct {
	occ stats.Welford
	dup stats.Welford

	samples int64
	// sent counts bundle transmissions.
	sent int64
	// records counts control records: the signaling overhead.
	records int64
	// dropped holds drop counts by cause, indexed by the reason's
	// position in node.DropReasons(). An array, so counting a drop
	// hashes nothing and the zero Collector is ready.
	dropped [5]int64
	// droppedInvalid counts drops whose reason is outside the enum: a
	// reporting bug.
	droppedInvalid int64
}

// NewCollector returns an empty collector. The zero value is one too:
// the engine keeps its collector by value and resets it by assignment.
func NewCollector() *Collector { return &Collector{} }

// OnGenerate implements core.Observer.
func (c *Collector) OnGenerate(bundle.ID, contact.NodeID, sim.Time) {}

// OnTransmit implements core.Observer.
func (c *Collector) OnTransmit(_, _ contact.NodeID, _ bundle.ID, _ sim.Time) { c.sent++ }

// OnDeliver implements core.Observer.
func (c *Collector) OnDeliver(bundle.ID, contact.NodeID, float64, sim.Time) {}

// OnDrop implements core.Observer.
func (c *Collector) OnDrop(_ contact.NodeID, _ bundle.ID, reason node.DropReason, _ sim.Time) {
	if i := reason.Index(); i >= 0 {
		c.dropped[i]++
	} else {
		c.droppedInvalid++
	}
}

// OnSample implements core.Observer: fold one periodic observation into
// the time averages. Duplication samples with no alive bundle are
// skipped, not zero-counted (see Sample.Alive).
func (c *Collector) OnSample(s Sample) {
	c.samples++
	c.occ.Add(s.Occupancy)
	if s.Tracked == 0 {
		return
	}
	if s.Alive > 0 {
		c.dup.Add(s.Duplication)
	}
}

// AddRecords counts n control records one contact's exchange carried.
//
//dtn:hotpath
func (c *Collector) AddRecords(n int) { c.records += int64(n) }

// Records returns the control records counted: the paper's signaling
// overhead.
func (c *Collector) Records() int64 { return c.records }

// Samples returns the number of observations folded in.
func (c *Collector) Samples() int64 { return c.samples }

// Transmissions returns the number of bundle transmissions seen.
func (c *Collector) Transmissions() int64 { return c.sent }

// Drops returns the number of drops seen, whatever their reason.
func (c *Collector) Drops() int64 {
	total := c.droppedInvalid
	for _, n := range c.dropped {
		total += n
	}
	return total
}

// DropsByReason returns the number of drops observed with the given
// reason. Unknown reasons return zero.
func (c *Collector) DropsByReason(reason node.DropReason) int64 {
	if i := reason.Index(); i >= 0 {
		return c.dropped[i]
	}
	return 0
}

// InvalidDrops returns the number of drops whose reason fell outside
// the node.DropReason enum; anything above zero is a reporting bug.
func (c *Collector) InvalidDrops() int64 { return c.droppedInvalid }

// MeanOccupancy returns the time-averaged buffer occupancy level.
func (c *Collector) MeanOccupancy() float64 { return c.occ.Mean() }

// MeanDuplication returns the time-averaged bundle duplication rate.
func (c *Collector) MeanDuplication() float64 { return c.dup.Mean() }
