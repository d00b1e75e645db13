package mobility

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// Stream returns the model as a pull-based contact source, its one
// implementation, holding only O(nodes) state plus the contacts waiting
// for an older one to close. A step hashes nothing and iterates no map:
//
//   - waypoint paths are generated lazily — each node keeps its RNG and
//     its current leg, drawing the next leg on demand instead of
//     materializing the whole itinerary;
//   - range detection uses a grid rebuilt every step by a counting sort
//     (node → cell, one prefix-sum array, nodes ascending inside each
//     cell): any pair within Range shares a 3×3 cell neighbourhood,
//     which is three contiguous runs of the sorted order, so a step
//     costs O(nodes + nearby pairs) instead of the test-side
//     reference's O(nodes²) pairwise scan;
//   - scanning nodes in ascending order yields the step's in-range
//     pairs in PairKey order, so the open-pair set is a sorted slice
//     merge-walked against last step's: in both keeps its start, only
//     in the old one closes, only in the new one opens;
//   - contacts are only known when they *close*, which is out of start
//     order. A start is always a sample time, so closes wait in one
//     bucket per start step; a bucket is handed out, sorted by pair,
//     once no pair that opened at or before its step is still open.
func (g ClassicRWP) Stream() (contact.Source, error) {
	g = g.Defaults()
	if g.Nodes < 2 || g.Nodes > MaxNodes {
		// Past the bound the packed pair key and the int32 grid arrays
		// would alias.
		return nil, fmt.Errorf("mobility: ClassicRWP needs 2..%d nodes, got %d", MaxNodes, g.Nodes)
	}
	if g.MinSpeed <= 0 {
		return nil, fmt.Errorf("mobility: ClassicRWP MinSpeed must be > 0 (speed-decay pathology), got %v", g.MinSpeed)
	}
	steps, err := g.sampleSteps()
	if err != nil {
		return nil, err
	}
	// Any cell side >= Range finds the same pairs, so the side is
	// widened until the grid holds O(nodes) cells whatever the geometry:
	// the arrays are sized by the population, never by AreaSide/Range.
	// The constant-density scale cells (4 cells per node) keep side =
	// Range. 46339² cells still index with an int32.
	perRow := math.Min(math.Ceil(math.Sqrt(8*float64(g.Nodes))), 46339)
	side := math.Max(g.Range, g.AreaSide/perRow)
	cols := int(g.AreaSide/side) + 1
	root := sim.NewRNG(g.Seed)
	s := &classicSource{
		g:     g,
		walks: make([]classicWalk, g.Nodes),
		pos:   make([]point, g.Nodes),
		side:  side,
		cols:  cols,
		cell:  make([]int32, g.Nodes),
		off:   make([]int32, cols*cols+2),
		order: make([]int32, g.Nodes),
		steps: steps,
	}
	for n := range s.walks {
		w := &s.walks[n]
		root.DeriveInto(0xC00+uint64(n), &w.rng)
		w.genPos = point{w.rng.Uniform(0, g.AreaSide), w.rng.Uniform(0, g.AreaSide)}
		w.cur = leg{a: w.genPos, b: w.genPos} // zero-length pause until the first draw
		s.advanceWalk(w, 0)
	}
	return s, nil
}

// sampleSteps is the index of the last sample step the model may run.
// A Span/SampleDT that does not fit an int is rejected here: converted,
// it goes negative and the model reports an empty schedule.
func (g ClassicRWP) sampleSteps() (int, error) {
	n := float64(g.Span) / g.SampleDT
	if !(n >= 0 && n < float64(math.MaxInt)) {
		return 0, fmt.Errorf("%w: rwp: span %v / dt %v = %g sample steps is out of range", ErrSpec, g.Span, g.SampleDT, n)
	}
	return int(n) + 1, nil
}

// classicWalk is one node's lazy waypoint path: the current leg plus
// the generation clock for drawing the next one.
type classicWalk struct {
	rng     sim.RNG
	cur     leg
	pending leg // the pause leg paired with a freshly drawn travel leg
	hasPend bool
	genT    float64 // time at which the next leg pair starts
	genPos  point
	done    bool // generation loop ended (genT reached the span)
}

// classicOpen is an in-range pair's open contact window. key packs the
// pair as A<<32 | B with A < B, so uint64 order is PairKey order.
type classicOpen struct {
	key   uint64
	start int // sample step at which the pair came into range
}

// classicClosed is a contact waiting in its start step's bucket.
type classicClosed struct {
	key uint64
	end float64
}

// closeChunk is how many closed contacts one bucket chunk holds: with
// the link and count in front, a chunk fills a 4 KiB size class.
const closeChunk = 255

// classicChunk is a fixed-size run of one bucket's closes. A bucket is
// a list of chunks filled in close order; released chunks go to the
// source's free list, so the chunks a run allocates are the peak of the
// live window, not every bucket's growth.
type classicChunk struct {
	next *classicChunk // first, so the GC scans one word of the chunk
	n    int32
	e    [closeChunk]classicClosed
}

// classicBucket is one start step's chunk list.
type classicBucket struct {
	head, tail *classicChunk
}

// classicSource runs the sampled-position simulation step by step,
// emitting closed contacts in canonical order.
type classicSource struct {
	g     ClassicRWP
	walks []classicWalk
	pos   []point

	// The occupancy grid, rebuilt every step: cols×cols row-major cells
	// of the given side; cell c holds nodes order[off[c]:off[c+1]],
	// ascending.
	side  float64
	cols  int
	cell  []int32 // node → cell
	off   []int32
	order []int32
	near  []int32 // scratch: the scanned node's in-range higher-numbered peers

	open []classicOpen // pairs in range at the last step, in key order
	next []classicOpen // scratch: the list being built this step

	// closed[head+k] holds the contacts that opened at step base+k and
	// have closed since, in close order; entries below head are spent.
	// The window reaches back to the oldest pair still open, not to
	// step 0.
	closed   []classicBucket
	head     int
	base     int
	free     *classicChunk   // released chunks, for the next closes
	out      []classicClosed // the released bucket being handed out
	outAt    int
	outStart sim.Time

	step  int
	steps int
	done  bool
	bound sim.Time // contacts starting below it are complete
}

// advanceWalk moves a node's current leg forward until it covers time t,
// drawing new legs on demand, two per draw (destination, speed, pause:
// a travel leg and the pause leg after it).
//
//dtn:hotpath
func (s *classicSource) advanceWalk(w *classicWalk, t float64) {
	for w.cur.t1 < t {
		if w.hasPend {
			w.cur, w.hasPend = w.pending, false
			continue
		}
		if w.done || sim.Time(w.genT) >= s.g.Span {
			w.done = true
			return // clamp to the final pause leg
		}
		dst := point{w.rng.Uniform(0, s.g.AreaSide), w.rng.Uniform(0, s.g.AreaSide)}
		speed := w.rng.Uniform(s.g.MinSpeed, s.g.MaxSpeed)
		arrive := w.genT + dist(w.genPos, dst)/speed
		pause := w.rng.Uniform(0, s.g.MaxPause)
		w.cur = leg{t0: w.genT, t1: arrive, a: w.genPos, b: dst}
		w.pending = leg{t0: arrive, t1: arrive + pause, a: dst, b: dst}
		w.hasPend = true
		w.genPos = dst
		w.genT = arrive + pause
	}
}

// timeOf is the time sample step k observes.
func (s *classicSource) timeOf(k int) float64 {
	t := float64(k) * s.g.SampleDT
	if sim.Time(t) > s.g.Span {
		t = float64(s.g.Span)
	}
	return t
}

// axisCell is the grid row or column of a coordinate, clamped at the
// border (a monotone clamp keeps neighbours neighbours).
func (s *classicSource) axisCell(x float64) int {
	return max(0, min(int(x/s.side), s.cols-1))
}

// runStep samples every node's position at the step time, re-sorts the
// grid, merges the step's in-range pairs into the open list and files
// the contacts that closed. It returns the time the step sampled.
//
//dtn:hotpath
func (s *classicSource) runStep() float64 {
	g := s.g
	t := s.timeOf(s.step)
	// This step's bucket; the spent prefix is dropped once it is the
	// larger half, so the slice tracks the window.
	if s.head > len(s.closed)/2 {
		s.closed = s.closed[:copy(s.closed, s.closed[s.head:])]
		s.head = 0
	}
	s.closed = append(s.closed, classicBucket{})

	// Counting sort by cell. Counts go in two slots up, so the prefix
	// sum leaves cell c's first slot in off[c+1]; placing nodes in
	// ascending order advances it to the cell's end, which is where
	// cell c+1 starts.
	clear(s.off)
	for n := range s.walks {
		w := &s.walks[n]
		s.advanceWalk(w, t)
		p := w.cur.at(t)
		s.pos[n] = p
		c := int32(s.axisCell(p.y)*s.cols + s.axisCell(p.x))
		s.cell[n] = c
		s.off[c+2]++
	}
	for c := 1; c < len(s.off); c++ {
		s.off[c] += s.off[c-1]
	}
	for n, c := range s.cell {
		s.order[s.off[c+1]] = int32(n)
		s.off[c+1]++
	}

	// Scan nodes ascending, each against the higher-numbered nodes of
	// its 3×3 neighbourhood (three runs of order, one per grid row):
	// the pairs come out in key order and merge against s.open as they
	// come. Old pairs the merge passes over were not re-confirmed: they
	// have moved out of range and close.
	r2 := g.Range * g.Range
	old, next, k := s.open, s.next[:0], 0
	near, minStart := s.near, math.MaxInt
	for i, p := range s.pos {
		cx, cy := int(s.cell[i])%s.cols, int(s.cell[i])/s.cols
		x0, x1 := max(cx-1, 0), min(cx+1, s.cols-1)
		near = near[:0]
		for y := max(cy-1, 0); y <= min(cy+1, s.cols-1); y++ {
			for _, j := range s.order[s.off[y*s.cols+x0]:s.off[y*s.cols+x1+1]] {
				if int(j) <= i {
					continue
				}
				dx, dy := p.x-s.pos[j].x, p.y-s.pos[j].y
				if dx*dx+dy*dy <= r2 {
					near = append(near, j)
				}
			}
		}
		slices.Sort(near)
		for _, j := range near {
			key := uint64(i)<<32 | uint64(j)
			for ; k < len(old) && old[k].key < key; k++ {
				s.close(old[k], t)
			}
			start := s.step
			if k < len(old) && old[k].key == key {
				start = old[k].start
				k++
			}
			minStart = min(minStart, start)
			next = append(next, classicOpen{key: key, start: start})
		}
	}
	for ; k < len(old); k++ {
		s.close(old[k], t)
	}
	s.open, s.next, s.near = next, old, near

	// No future close can start before the earliest open window, nor
	// before the next sample.
	bound := t + g.SampleDT
	if len(next) > 0 {
		bound = min(bound, s.timeOf(minStart))
	}
	s.bound = sim.Time(bound)
	return t
}

// close files the contact of a pair that left range at time end in its
// start step's bucket. A window that opened and closed at one time (the
// span's clamped last sample) is no contact.
//
//dtn:hotpath
func (s *classicSource) close(o classicOpen, end float64) {
	if end <= s.timeOf(o.start) {
		return
	}
	b := &s.closed[s.head+o.start-s.base]
	if b.tail == nil || b.tail.n == closeChunk {
		s.extend(b)
	}
	c := b.tail
	c.e[c.n] = classicClosed{key: o.key, end: end}
	c.n++
}

// extend appends an empty chunk to a bucket, from the free list when
// one is there.
func (s *classicSource) extend(b *classicBucket) {
	c := s.free
	if c != nil {
		s.free = c.next
		c.next = nil
	} else {
		c = new(classicChunk)
	}
	if b.tail == nil {
		b.head = c
	} else {
		b.tail.next = c
	}
	b.tail = c
}

// release copies the oldest non-empty bucket whose start lies below the
// bound into s.out, sorted by pair (one start time, and a pair opens at
// most once per time, so that is the canonical order), and returns the
// bucket's chunks to the free list.
func (s *classicSource) release() bool {
	for s.head < len(s.closed) {
		start := sim.Time(s.timeOf(s.base))
		if start >= s.bound {
			break
		}
		b := s.closed[s.head]
		s.head++
		s.base++
		if b.head == nil {
			continue
		}
		s.out = s.out[:0]
		for c := b.head; c != nil; {
			s.out = append(s.out, c.e[:c.n]...)
			next := c.next
			c.next, c.n = s.free, 0
			s.free = c
			c = next
		}
		slices.SortFunc(s.out, func(x, y classicClosed) int { return cmp.Compare(x.key, y.key) })
		s.outAt, s.outStart = 0, start
		return true
	}
	return false
}

// finish closes every contact still open at the span.
func (s *classicSource) finish() {
	for _, o := range s.open {
		s.close(o, float64(s.g.Span))
	}
	s.open = s.open[:0]
	s.bound = sim.Infinity
	s.done = true
}

// Next advances the sampled simulation until a contact is releasable.
func (s *classicSource) Next() (contact.Contact, bool) {
	for {
		if s.outAt < len(s.out) {
			c := s.out[s.outAt]
			s.outAt++
			return contact.Contact{
				A: contact.NodeID(c.key >> 32), B: contact.NodeID(uint32(c.key)),
				Start: s.outStart, End: sim.Time(c.end),
			}, true
		}
		if s.release() {
			continue
		}
		if s.done {
			return contact.Contact{}, false
		}
		if s.step > s.steps {
			s.finish()
			continue
		}
		t := s.runStep()
		s.step++
		if sim.Time(t) >= s.g.Span {
			s.finish()
		}
	}
}

func (s *classicSource) Nodes() int        { return s.g.Nodes }
func (s *classicSource) Horizon() sim.Time { return s.g.Span }
func (s *classicSource) Err() error        { return nil }
