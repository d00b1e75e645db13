package experiment

import (
	"io"
	"slices"
	"sync"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// planCap bounds the chunk slots one plan may allocate: 1<<17 slots at
// 40 B each is about 5 MiB. Chunks double, so a plan's contacts fill
// between half and all of its slots. Live plans are bounded by the
// grid's window (runGrid), but a plan's size is bounded only by its
// source: without the cap, a multi-series sweep over a huge population
// would retain a plan as large as its mobility.
const planCap = 1 << 17

const (
	// firstChunk is the capacity of a plan's first chunk (or the cap, if
	// smaller); every further chunk doubles the last, so a plan of n
	// contacts takes about log2(n/firstChunk) chunks and under 2n slots,
	// and none of its contacts ever moves.
	firstChunk = 64
	// pullBatch bounds the contacts one cursor pulls from the inner
	// source per visit, so the first run keeps streaming rather than
	// generating the whole plan up front.
	pullBatch = 64
)

// replay memoizes one scenario's contact plans by stream seed (see
// ScenarioFromSpec) for the sweeps Run executes over it. Before the
// first run, Run hands the memo its plan schedule (schedule): every
// stream seed in execution order, with how many runs read it. A seed
// read more than once gets one shared plan, and each request for it a
// cursor of its own. A cursor that reaches the recorded end pulls the
// next contacts from the seed's one inner source and appends them, so
// the first reader records while it streams and a run that stops early
// leaves the rest to the next cursor: each plan is generated once. A
// stream is deterministic, so a replay is the stream it recorded. When
// scheduled plan k is first requested, one helper goroutine generates
// plan k+1 by draining a cursor over it, beside the runs.
//
// A seed with one reader, or none scheduled (a Stream call outside
// Run), streams raw. A plan leaves the memo once its last scheduled
// reader has been handed a cursor and its inner source is released, and
// Run releases what is left of its plans when it ends, closing their
// sources.
//
// The fallbacks: a source that errs is recorded with its error, and
// every cursor yields the same contacts, then the same Err. A plan whose
// next chunk would take it past the cap is dropped: the cursor at the
// frontier keeps the inner source, any other cursor that runs off what
// the plan held reopens a source and skips ahead, and later requests for
// the seed stream raw. An inner source that holds a file is closed as
// soon as no cursor is open over its plan; a later cursor that needs
// more reopens it and skips what the plan holds.
type replay struct {
	stream func(seed uint64) (contact.Source, error)
	limit  int // the slots one plan may take: planCap, less in tests

	mu    sync.Mutex
	plans map[uint64]*plan // the scheduled plans not yet released
}

func newReplay(stream func(uint64) (contact.Source, error), limit int) *replay {
	return &replay{stream: stream, limit: limit, plans: make(map[uint64]*plan)}
}

// plan is one seed's recording. Chunk k holds base<<k contacts and
// starts at index base·(2^k−1); a chunk's published contacts, the
// first len(chunks[k]), never change, so cursors read them without the
// lock through the slice headers they copied under it.
type plan struct {
	seed uint64
	base int

	// Guarded by replay.mu.
	readers int           // scheduled requests not yet handed a cursor
	asked   chan struct{} // closed by the first request, then nil

	mu      sync.Mutex
	started bool // the inner source was opened: nodes and horizon are set
	nodes   int
	horizon sim.Time
	chunks  [][]contact.Contact
	n       int            // contacts published
	src     contact.Source // the inner source, positioned at n; nil when not live
	done    bool           // the inner source ended; err is what it ended with
	err     error
	frozen  bool // retains no more: the plan was dropped, or its source failed to open
	open    int  // cursors not yet closed
}

// schedule registers one Run's plans: seeds lists the stream seed of
// every run in execution order. It starts the helper when two or more
// plans are shared, and returns the function Run calls once every run
// has returned: it stops the helper, waits for it, and releases the
// Run's plans that are left, closing their inner sources.
//
// Runs that overlap over one scenario share the plans they both
// schedule until the first of them ends; which requests replay is then
// a matter of timing, and never changes a result.
func (r *replay) schedule(seeds []uint64) (finish func()) {
	count := make(map[uint64]int, len(seeds))
	var order []uint64 // the distinct seeds by first request, then the shared ones
	for _, seed := range seeds {
		if count[seed] == 0 {
			order = append(order, seed)
		}
		count[seed]++
	}
	order = slices.DeleteFunc(order, func(seed uint64) bool { return count[seed] == 1 })
	r.mu.Lock()
	for _, seed := range order {
		p := r.plans[seed]
		if p == nil {
			p = &plan{seed: seed, base: max(1, min(firstChunk, r.limit)), asked: make(chan struct{})}
			r.plans[seed] = p
		}
		p.readers += count[seed]
	}
	r.mu.Unlock()

	stop, exited := make(chan struct{}), make(chan struct{})
	if len(order) < 2 {
		close(exited)
	} else {
		go r.prefetch(order, stop, exited)
	}
	return func() {
		close(stop)
		<-exited
		var left []*plan
		r.mu.Lock()
		for _, seed := range order {
			if p := r.plans[seed]; p != nil {
				delete(r.plans, seed)
				left = append(left, p)
			}
		}
		r.mu.Unlock()
		for _, p := range left {
			p.mu.Lock()
			closeSource(p.src)
			p.src = nil
			p.mu.Unlock()
		}
	}
}

// prefetch is the helper: once order[k-1] is first requested it
// generates order[k], one plan ahead of the runs, until stop closes.
func (r *replay) prefetch(order []uint64, stop <-chan struct{}, exited chan<- struct{}) {
	defer close(exited)
	for k := 1; k < len(order); k++ {
		r.mu.Lock()
		var asked chan struct{} // nil once order[k-1] was requested or released
		if prev := r.plans[order[k-1]]; prev != nil {
			asked = prev.asked
		}
		r.mu.Unlock()
		if asked != nil {
			select {
			case <-asked:
			case <-stop:
				return
			}
		}
		r.mu.Lock()
		next := r.plans[order[k]]
		r.mu.Unlock()
		if next != nil && !r.fill(next, stop) {
			return
		}
	}
}

// fill drains a cursor over p, which records the plan, and reports
// false if stop closed first. It stops early where the plan is
// dropped: the rest would stream raw for nothing.
func (r *replay) fill(p *plan, stop <-chan struct{}) bool {
	c, _ := r.handOut(p, false) // an error leaves the plan to the runs, which meet it themselves
	if c == nil {
		return true
	}
	defer c.Close()
	for i := 1; ; i++ {
		if _, ok := c.Next(); !ok || c.raw != nil {
			return true
		}
		if i%pullBatch == 0 {
			select {
			case <-stop:
				return false
			default:
			}
		}
	}
}

// Stream has the signature of Scenario.Stream and is safe for
// concurrent calls; every source it returns is the caller's own.
func (r *replay) Stream(seed uint64) (contact.Source, error) {
	r.mu.Lock()
	p := r.plans[seed]
	if p != nil {
		p.readers--
		if p.asked != nil {
			close(p.asked)
			p.asked = nil
		}
	}
	r.mu.Unlock()
	if p == nil {
		return r.stream(seed)
	}
	c, err := r.handOut(p, true)
	if err != nil {
		return nil, err
	}
	if c != nil {
		return c, nil
	}
	return r.stream(seed) // the plan is frozen: its source failed to open, or it was dropped
}

// handOut returns a cursor over p, opening p's inner source first if no
// cursor has; reader marks a scheduled request, whose hand-out may
// release the plan. It returns no cursor once p is frozen, and the
// error when opening the source failed.
func (r *replay) handOut(p *plan, reader bool) (*cursor, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if !p.started && !p.frozen {
		// Opening the source may take a while (a generator's set-up, a
		// file): only p's lock is held, so a concurrent request for
		// this seed waits and others do not.
		src, err := r.stream(p.seed)
		if err != nil {
			// Nothing to retain: every later request opens a source of
			// its own, and sees the error for itself.
			p.frozen = true
			r.release(p)
			return nil, err
		}
		p.started = true
		p.src, p.nodes, p.horizon = src, src.Nodes(), src.Horizon()
	}
	if p.frozen {
		return nil, nil
	}
	p.open++
	if reader && p.src == nil {
		r.release(p)
	}
	return &cursor{r: r, p: p}, nil
}

// release removes p from the memo, with p.mu held, once p is frozen or
// its last scheduled reader has been handed a cursor. The caller has
// just left p without a live inner source, or frozen it.
func (r *replay) release(p *plan) {
	r.mu.Lock()
	if (p.frozen || p.readers <= 0) && r.plans[p.seed] == p {
		delete(r.plans, p.seed)
	}
	r.mu.Unlock()
}

// reopen opens a fresh inner source for seed and skips its first n
// contacts: how a cursor continues past what a plan holds once the
// plan's own source is gone.
func (r *replay) reopen(seed uint64, n int) (contact.Source, error) {
	src, err := r.stream(seed)
	if err != nil {
		return nil, err
	}
	for ; n > 0; n-- {
		if _, ok := src.Next(); !ok {
			break // the source yields less this time; its Err says why
		}
	}
	return src, nil
}

// grow appends up to pullBatch contacts from the live inner source,
// never past the end of the current chunk, with p.mu held. When the
// next chunk would take the plan past the cap it freezes the plan
// instead and returns the inner source, for the cursor at the frontier
// to keep.
func (p *plan) grow(r *replay) (handoff contact.Source) {
	k := len(p.chunks) - 1
	if k < 0 || len(p.chunks[k]) == cap(p.chunks[k]) {
		size := p.base << len(p.chunks)
		if 2*size-p.base > r.limit { // the slots of p's chunks, this one included
			p.frozen = true
			handoff, p.src = p.src, nil
			r.release(p)
			return handoff
		}
		p.chunks = append(p.chunks, make([]contact.Contact, 0, size))
		k++
	}
	chunk := p.chunks[k]
	for i := 0; i < pullBatch && len(chunk) < cap(chunk); i++ {
		c, ok := p.src.Next()
		if !ok {
			p.done, p.err = true, p.src.Err()
			closeSource(p.src)
			p.src = nil
			r.release(p)
			break
		}
		chunk = append(chunk, c)
	}
	p.n += len(chunk) - len(p.chunks[k])
	p.chunks[k] = chunk
	return nil
}

// cursor is one request's view of a plan: a contact.Source that reads
// the published contacts chunk by chunk and extends the plan when it
// reaches the recorded end. Past what a dropped plan held it streams
// from raw.
type cursor struct {
	r *replay
	p *plan
	// chunk is the published part of chunk k as of the cursor's last
	// visit to the plan, and at the next contact in it.
	chunk  []contact.Contact
	k, at  int
	raw    contact.Source
	err    error
	ended  bool
	closed bool
}

// Next returns the next contact of the plan.
func (c *cursor) Next() (contact.Contact, bool) {
	if c.at == len(c.chunk) {
		if c.raw == nil && !c.ended {
			c.visit()
		}
		if c.raw != nil {
			return c.raw.Next()
		}
		if c.at == len(c.chunk) {
			return contact.Contact{}, false
		}
	}
	ct := c.chunk[c.at]
	c.at++
	return ct, true
}

// visit refreshes the cursor's view from the plan: it extends the plan
// first when the cursor stands at the recorded end, and leaves either
// an unread contact in the view, c.raw set, or c.ended.
func (c *cursor) visit() {
	p := c.p
	p.mu.Lock()
	i := p.base*(1<<c.k-1) + c.at
	for i == p.n && !p.done && !p.frozen {
		if p.src == nil {
			// The source was closed under an unfinished plan (its
			// last cursor stopped early, or its Run ended): resume it
			// where the plan stops.
			src, err := c.r.reopen(p.seed, i)
			if err != nil {
				p.mu.Unlock()
				c.err, c.ended = err, true
				return
			}
			p.src = src
		}
		if c.raw = p.grow(c.r); c.raw != nil {
			p.mu.Unlock()
			return
		}
	}
	if i < p.n {
		if c.at == p.base<<c.k {
			c.k, c.at = c.k+1, 0
		}
		c.chunk = p.chunks[c.k]
		p.mu.Unlock()
		return
	}
	frozen, err := p.frozen, p.err
	p.mu.Unlock()
	if !frozen {
		c.err, c.ended = err, true
		return
	}
	// Off the end of what a dropped plan held: stream the rest raw.
	if c.raw, c.err = c.r.reopen(p.seed, i); c.err != nil {
		c.ended = true
	}
}

// Nodes returns the population the plan's source reported.
func (c *cursor) Nodes() int { return c.p.nodes }

// Horizon returns the horizon the plan's source reported, so the
// engine cannot tell a replay from the source.
func (c *cursor) Horizon() sim.Time { return c.p.horizon }

// Err returns what ended the stream: the plan's recorded error, a
// failed reopen, or the raw source's.
func (c *cursor) Err() error {
	if c.err == nil && c.raw != nil {
		return c.raw.Err()
	}
	return c.err
}

// Close releases the cursor: its raw source, if it has one, and, when
// it was the last open cursor over its plan, the plan's inner source
// if that holds a file. The engine closes every source it ran on.
func (c *cursor) Close() error {
	if c.closed {
		return nil
	}
	c.closed = true
	closeSource(c.raw)
	p := c.p
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.open--; p.open == 0 && p.src != nil {
		if _, ok := p.src.(io.Closer); ok {
			closeSource(p.src)
			p.src = nil
			c.r.release(p)
		}
	}
	return nil
}

// closeSource closes src if it holds a resource.
func closeSource(src contact.Source) {
	if closer, ok := src.(io.Closer); ok {
		closer.Close()
	}
}
