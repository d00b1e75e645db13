package mobility

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"sort"
	"sync"

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
//     cell; positions stay by node id): any pair within Range shares a
//     3×3 cell neighbourhood, so a step costs O(nodes + nearby pairs)
//     instead of the test-side reference's O(nodes²) pairwise scan;
//   - the scan walks the grid order front to back, one occupied cell at
//     a time, and tests each node against two contiguous runs of it —
//     the rest of its own cell plus the cell to its right, and the three
//     cells of the next row — so every neighbouring pair is tested once,
//     from one end;
//   - the step's in-range pairs come out in grid order and are put in
//     PairKey order by two stable counting passes over node ids (by the
//     higher node, then the lower), skipped when they already are in
//     order, as on a one-cell grid. The open-pair set is a sorted slice
//     merge-walked against last step's: in both keeps its start, only
//     in the old one closes, only in the new one opens;
//   - contacts are only known when they *close*, which is out of start
//     order. A start is always a sample time, so closes wait in one
//     bucket per start step; each close step appends one key-ascending
//     run to a bucket, and a bucket is handed out, merged from its runs
//     into pair order, once no pair that opened at or before its step
//     is still open;
//   - a step runs in three stages. The position stage advances every
//     walk to the step's time and writes each node's position into a
//     scratch set; it is sequential, and the only code that touches
//     the walks. The pair stage — grid, scan and pair sort — is a pure
//     function of those positions and writes the step's key-ordered
//     pairs into a buffer of a fixed ring. Both run on up to
//     min(GOMAXPROCS, 2) helper goroutines, up to lookahead steps
//     ahead, each helper with its own scratch set: a helper claims the
//     next step, holds the walks while it positions it, then releases
//     them and searches that step's pairs while another positions the
//     next. The merge stage — the merge walk, the close buckets and
//     their release — runs in Next, on the caller's goroutine, taking
//     each step's buffer once its slot is marked with that step. A
//     helper never blocks: it exits when no step can be claimed, and
//     Next relaunches one when it gives a buffer back (as a helper
//     does when it releases the walks), so a source abandoned
//     mid-stream leaves no goroutine behind once the ring is full. A
//     step's pairs depend on its positions alone, so the stream is the
//     same contact for contact at any helper count.
func (g ClassicRWP) Stream() (contact.Source, error) {
	g = g.Defaults()
	if err := g.validate(); err != nil {
		return nil, err
	}
	steps := g.sampleSteps()
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
		g:              g,
		walks:          make([]classicWalk, g.Nodes),
		classicScratch: makeClassicScratch(g.Nodes, cols, side, g.Range),
		steps:          steps,
		helpers:        min(runtime.GOMAXPROCS(0), 2),
	}
	s.ready.L = &s.mu
	s.spawn = s.helper
	s.sets[0], s.nsets = &s.classicScratch, 1
	// The last step sampled is the one before the first whose time
	// reaches the span (step times never decrease, so that one is found
	// by bisection), or steps if rounding keeps every step short of it.
	// A step at the span would close every open pair at the span, which
	// finish does anyway, and open none that lasts.
	s.last = sort.Search(steps+1, func(k int) bool { return sim.Time(s.timeOf(k)) >= g.Span }) - 1
	for n := range s.walks {
		w := &s.walks[n]
		root.DeriveInto(0xC00+uint64(n), &w.rng)
		w.genPos = point{w.rng.Uniform(0, g.AreaSide), w.rng.Uniform(0, g.AreaSide)}
		w.cur = leg{a: w.genPos, b: w.genPos} // zero-length pause until the first draw
		s.advanceWalk(w, 0)
	}
	return s, nil
}

// validate checks a defaulted configuration.
func (g ClassicRWP) validate() error {
	if g.Nodes < 2 || g.Nodes > MaxNodes {
		// Past the bound the packed pair key and the int32 grid arrays
		// would alias.
		return fmt.Errorf("%w: rwp: needs 2..%d nodes, got %d", ErrSpec, MaxNodes, g.Nodes)
	}
	if g.MinSpeed <= 0 {
		return fmt.Errorf("%w: rwp: MinSpeed must be > 0 (speed-decay pathology), got %v", ErrSpec, g.MinSpeed)
	}
	// A Span/SampleDT that does not fit an int would go negative when
	// converted, and the model report an empty schedule.
	if n := float64(g.Span) / g.SampleDT; !(n >= 0 && n < float64(math.MaxInt)) {
		return fmt.Errorf("%w: rwp: span %g / dt %g = %g sample steps is out of range", ErrSpec, float64(g.Span), g.SampleDT, n)
	}
	return nil
}

// sampleSteps is the index of the last sample step the model may run;
// validate has checked that it fits an int.
func (g ClassicRWP) sampleSteps() int {
	return int(float64(g.Span)/g.SampleDT) + 1
}

// classicWalk is one node's lazy waypoint path: the current leg plus
// the generation clock for drawing the next one.
type classicWalk struct {
	rng    sim.RNG
	cur    leg
	genT   float64 // time at which the next leg pair starts
	genPos point
	// hasPend: cur is a freshly drawn travel leg, and the pause leg
	// paired with it, from cur.t1 to genT at genPos, comes next.
	hasPend bool
	done    bool // generation loop ended (genT reached the span)
}

// classicScratch is one helper's scratch set: a step's positions and
// the grid the pair stage builds from them. The pair stage reads
// nothing else, so two sets search two steps at once.
type classicScratch struct {
	side float64 // the grid's cell side, at least Range
	cols int     // cells per row and per column
	r2   float64 // Range²
	pos  []point // node → position at the step's time
	// The occupancy grid, rebuilt every step: cols×cols row-major cells
	// of the given side; cell c holds nodes order[off[c]:off[c+1]],
	// ascending.
	cell      []int32 // node → cell; once the grid is placed, the pair sort's per-node counters
	off       []int32
	order     []int32
	spare     []uint64 // the pair sort's intermediate pass
	lastPairs int      // the last step this set searched: its pair count
}

// makeClassicScratch returns a scratch set for nodes nodes on a
// cols×cols grid of the given side.
func makeClassicScratch(nodes, cols int, side, radio float64) classicScratch {
	return classicScratch{
		side:  side,
		cols:  cols,
		r2:    radio * radio,
		pos:   make([]point, nodes),
		cell:  make([]int32, nodes),
		off:   make([]int32, cols*cols+2),
		order: make([]int32, nodes),
		// About one pair per node at the scale cells' density.
		lastPairs: nodes,
	}
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

// lookahead is the ring's depth: how many sampled steps, the one the
// merge stage holds included, may stand between the two stages. One
// step ahead is not enough: the merge stage's work comes in bursts (a
// release stalls behind long-open pairs, then hands out a flood), and
// waking a parked goroutine on another core takes about 0.1 ms on a
// 2-vCPU VM, so a shallow ring leaves the helper idle. DESIGN §8.2 has
// the measured gain at each depth.
const lookahead = 8

// classicSource runs the sampled-position simulation step by step,
// emitting closed contacts in canonical order.
type classicSource struct {
	g       ClassicRWP
	steps   int    // sample steps the span allows
	last    int    // the last step sampled and merged, the last before the span
	helpers int    // helpers that may run at once: min(GOMAXPROCS, 2) at Stream
	spawn   func() // helper, bound once so a relaunch allocates nothing

	// The position stage's state, owned by the helper that is
	// positioning a step (and by nobody while none is).
	walks []classicWalk
	// The first helper's scratch set (its grid shape is the source's);
	// a second is made when a second helper first runs.
	classicScratch

	// The hand-off, under mu. ring[k%lookahead] holds step k's pairs
	// once mark[k%lookahead] is k+1, for freed <= k < claimed; the
	// merge stage holds step freed's until it takes the next one.
	// Buffers given back wait in idle, and a helper reuses the last one
	// given back first, so a ring that seldom fills allocates few
	// buffers.
	mu      sync.Mutex
	ready   sync.Cond // signalled when a step's pairs are in the ring
	ring    [lookahead][]uint64
	mark    [lookahead]int
	idle    [lookahead][]uint64
	nidle   int
	claimed int                // steps claimed by a helper: the next one to position
	freed   int                // steps whose buffer the merge stage gave back
	walking bool               // a helper is positioning a step
	running int                // helper goroutines live
	sets    [2]*classicScratch // the scratch sets no helper holds
	nsets   int

	// The merge stage's state, owned by the caller of Next.
	pairs []uint64 // the held ring buffer: this step's in-range pairs, in key order

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
	outSpare []classicClosed // scratch: the other half of release's merge
	outAt    int
	outStart sim.Time

	step  int
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
			w.cur = leg{t0: w.cur.t1, t1: w.genT, a: w.genPos, b: w.genPos}
			w.hasPend = false
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
		w.hasPend = true
		w.genPos = dst
		w.genT = arrive + pause
	}
}

// timeOf is the time sample step k observes.
func (s *classicSource) timeOf(k int) float64 {
	return float64(k) * s.g.SampleDT
}

// axisCell is the grid row or column of a coordinate, clamped at the
// border (a monotone clamp keeps neighbours neighbours).
func (sc *classicScratch) axisCell(x float64) int {
	return max(0, min(int(x/sc.side), sc.cols-1))
}

// runStep takes the step's pairs from the sample stage, merges them
// into the open list and files the contacts that closed.
//
//dtn:hotpath
func (s *classicSource) runStep() {
	g := s.g
	t := s.timeOf(s.step)
	// This step's bucket; the spent prefix is dropped once it is the
	// larger half, so the slice tracks the window.
	if s.head > len(s.closed)/2 {
		s.closed = s.closed[:copy(s.closed, s.closed[s.head:])]
		s.head = 0
	}
	s.closed = append(s.closed, classicBucket{})
	s.pairs = s.take(s.step)

	// Merge the step's pairs, in key order, against s.open. Old pairs
	// the merge passes over were not re-confirmed: they have moved out
	// of range and close.
	old, next, k := s.open, s.next[:0], 0
	minStart := math.MaxInt
	for _, key := range s.pairs {
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
	for ; k < len(old); k++ {
		s.close(old[k], t)
	}
	s.open, s.next = next, old

	// No future close can start before the earliest open window, nor
	// before the next sample.
	bound := t + g.SampleDT
	if len(next) > 0 {
		bound = min(bound, s.timeOf(minStart))
	}
	s.bound = sim.Time(bound)
}

// take gives the buffers of the steps before k back to the ring, makes
// sure a helper is sampling while a step can be claimed, and returns
// step k's pairs once its slot is marked with them. k is at most last.
func (s *classicSource) take(k int) []uint64 {
	s.mu.Lock()
	for ; s.freed < k; s.freed++ {
		i := s.freed % lookahead
		s.idle[s.nidle], s.ring[i] = s.ring[i], nil
		s.nidle++
	}
	s.launch()
	for s.mark[k%lookahead] != k+1 {
		s.ready.Wait()
	}
	pairs := s.ring[k%lookahead]
	s.mu.Unlock()
	return pairs
}

// launch starts a helper, with s.mu held, when one more may run and a
// step can be claimed.
func (s *classicSource) launch() {
	if s.running < s.helpers && s.claimable() {
		s.running++
		go s.spawn()
	}
}

// claimable reports, with s.mu held, whether a helper may claim the
// next step: the walks are free, a step is left and its slot is idle.
func (s *classicSource) claimable() bool {
	return !s.walking && s.claimed <= s.last && s.claimed-s.freed < lookahead
}

// helper samples steps in claim order: for each it takes an idle buffer
// (a new one while fewer than lookahead exist), positions the step with
// the walks held, then releases them — starting another helper for the
// next step when one may run — and searches the step's pairs into the
// buffer. It returns, never waiting, when no step can be claimed.
func (s *classicSource) helper() {
	s.mu.Lock()
	if s.nsets == 0 {
		sc := makeClassicScratch(s.g.Nodes, s.cols, s.side, s.g.Range)
		s.sets[0], s.nsets = &sc, 1
	}
	s.nsets--
	sc := s.sets[s.nsets]
	for s.claimable() {
		k := s.claimed
		s.claimed++
		s.walking = true
		var pairs []uint64
		if s.nidle > 0 {
			s.nidle--
			pairs, s.idle[s.nidle] = s.idle[s.nidle], nil
		}
		s.mu.Unlock()
		s.position(k, sc.pos)
		s.mu.Lock()
		s.walking = false
		s.launch()
		s.mu.Unlock()
		pairs = sc.search(pairs)
		s.mu.Lock()
		s.ring[k%lookahead], s.mark[k%lookahead] = pairs, k+1
		s.ready.Signal()
	}
	s.sets[s.nsets] = sc
	s.nsets++
	s.running--
	s.mu.Unlock()
}

// position is the position stage: it advances every walk to the given
// step's time and writes each node's position to pos, in node order.
//
//dtn:hotpath
func (s *classicSource) position(step int, pos []point) {
	t := s.timeOf(step)
	pos = pos[:len(s.walks)]
	for n := range s.walks {
		w := &s.walks[n]
		s.advanceWalk(w, t)
		pos[n] = w.cur.at(t)
	}
}

// search is the pair stage: it places the set's positions in the grid
// and writes their in-range pairs, in key order, over pairs.
//
//dtn:hotpath
func (sc *classicScratch) search(pairs []uint64) []uint64 {
	// Counting sort by cell. Counts go in two slots up, so the prefix
	// sum leaves cell c's first slot in off[c+1]; placing nodes in
	// ascending order advances it to the cell's end, which is where
	// cell c+1 starts.
	clear(sc.off)
	cell := sc.cell[:len(sc.pos)]
	for n, p := range sc.pos {
		c := int32(sc.axisCell(p.y)*sc.cols + sc.axisCell(p.x))
		cell[n] = c
		sc.off[c+2]++
	}
	for c := 1; c < len(sc.off); c++ {
		sc.off[c] += sc.off[c-1]
	}
	for n, c := range cell {
		k := sc.off[c+1]
		sc.order[k] = int32(n)
		sc.off[c+1]++
	}

	// Room for about the last step's pairs, so a fresh buffer grows once.
	pairs = sc.scan(slices.Grow(pairs[:0], sc.lastPairs+sc.lastPairs/8))
	sc.lastPairs = len(pairs)
	return pairs
}

// scan writes the step's in-range pairs over pairs, in key order. It
// walks the grid order front to back, one occupied cell at a time, and
// tests each node against two contiguous runs of it: the rest of its
// own cell plus the cell to its right (a row's cells are adjacent in
// order), and the three cells of the next row. Every pair of
// neighbouring cells is visited once, from its earlier cell; a
// candidate farther than Range (cells may be wider than it) is turned
// away by the distance test.
//
//dtn:hotpath
func (sc *classicScratch) scan(pairs []uint64) []uint64 {
	cols := sc.cols
	pairs = pairs[:0]
	for lo, end := int32(0), int32(len(sc.order)); lo < end; {
		c := int(sc.cell[sc.order[lo]])
		hi := sc.off[c+1]
		cy, cx := c/cols, c%cols
		x0, x1 := max(cx-1, 0), min(cx+1, cols-1)
		right := sc.off[cy*cols+x1+1]
		below, belowEnd := right, right // no next row
		if cy+1 < cols {
			below, belowEnd = sc.off[(cy+1)*cols+x0], sc.off[(cy+1)*cols+x1+1]
		}
		for a := lo; a < hi; a++ {
			pairs = sc.appendNear(pairs, a, right, below, belowEnd)
		}
		lo = hi
	}
	if slices.IsSorted(pairs) {
		return pairs // one cell, or a grid whose order happened to be key order
	}
	sc.spare = slices.Grow(sc.spare[:0], len(pairs))[:len(pairs)]
	sc.countPass(sc.spare, pairs, 0)  // by the higher node
	sc.countPass(pairs, sc.spare, 32) // then, stably, by the lower
	return pairs
}

// appendNear appends to pairs the key of every pair within Range
// between the node at grid slot a and the nodes at slots a+1..right-1
// and below..belowEnd-1, growing pairs once for both runs. Each
// candidate's key is written and kept only if the pair is in range, so
// the distance test is not a branch to mispredict.
//
//dtn:hotpath
func (sc *classicScratch) appendNear(pairs []uint64, a, right, below, belowEnd int32) []uint64 {
	own, next := sc.order[a+1:right], sc.order[below:belowEnd]
	i := sc.order[a]
	p, ii := sc.pos[i], uint64(i)
	n := len(pairs)
	pairs = slices.Grow(pairs, len(own)+len(next))
	out := pairs[n : n+len(own)+len(next)]
	m := 0
	for _, ids := range [2][]int32{own, next} {
		for _, j := range ids {
			q, jj := sc.pos[j], uint64(j)
			out[m] = min(ii, jj)<<32 | max(ii, jj)
			if dx, dy := p.x-q.x, p.y-q.y; dx*dx+dy*dy <= sc.r2 {
				m++
			}
		}
	}
	return pairs[:n+m]
}

// countPass scatters src into dst ordered by the node id in bits
// shift..shift+31 of each key, keeping src's order among equal ids. Its
// per-node counters are sc.cell, spent once the grid is placed.
//
//dtn:hotpath
func (sc *classicScratch) countPass(dst, src []uint64, shift uint) {
	count := sc.cell
	clear(count)
	for _, key := range src {
		count[uint32(key>>shift)]++
	}
	sum := int32(0)
	for n, c := range count {
		count[n] = sum
		sum += c
	}
	for _, key := range src {
		n := uint32(key >> shift)
		dst[count[n]] = key
		count[n]++
	}
}

// close files the contact of a pair that left range at time end in its
// start step's bucket. A window that opened and closed at one time
// (two steps whose times round to one float, as on spans of ~10¹⁸
// steps) is no contact.
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
// bound into s.out, merged into pair order (one start time, and a pair
// opens at most once per time, so that is the canonical order), and
// returns the bucket's chunks to the free list.
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
		s.mergeRuns()
		s.outAt, s.outStart = 0, start
		return true
	}
	return false
}

// mergeRuns puts s.out in key order. A bucket is a concatenation of
// key-ascending runs, one per close step (a step's merge walk and
// finish both close in key order), so the runs are found where the key
// descends and adjacent ones merged pairwise, ping-ponging with
// s.outSpare, until one is left.
//
//dtn:hotpath
func (s *classicSource) mergeRuns() {
	src, dst := s.out, s.outSpare
	for runEnd(src, 0) < len(src) {
		dst = slices.Grow(dst[:0], len(src))[:len(src)]
		for i := 0; i < len(src); {
			j := runEnd(src, i)
			k := j
			if j < len(src) {
				k = runEnd(src, j)
			}
			merge(dst[i:k], src[i:j], src[j:k])
			i = k
		}
		src, dst = dst, src
	}
	s.out, s.outSpare = src, dst
}

// runEnd is the end of the key-ascending run of x that starts at i.
func runEnd(x []classicClosed, i int) int {
	for i++; i < len(x) && x[i].key >= x[i-1].key; i++ {
	}
	return i
}

// merge writes the key-ascending runs x and y, merged, to dst.
func merge(dst, x, y []classicClosed) {
	i, j, k := 0, 0, 0
	for i < len(x) && j < len(y) {
		if y[j].key < x[i].key {
			dst[k] = y[j]
			j++
		} else {
			dst[k] = x[i]
			i++
		}
		k++
	}
	k += copy(dst[k:], x[i:])
	copy(dst[k:], y[j:])
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
		if s.step > s.last {
			s.finish()
			continue
		}
		s.runStep()
		s.step++
	}
}

func (s *classicSource) Nodes() int        { return s.g.Nodes }
func (s *classicSource) Horizon() sim.Time { return s.g.Span }
func (s *classicSource) Err() error        { return nil }
