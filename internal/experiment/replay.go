package experiment

import (
	"io"
	"sync"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// replayBudget bounds the chunk slots one scenario's plans allocate
// across all its seeds: 1<<18 slots at 40 B each is about 10 MiB.
// Chunks double, so a plan's contacts fill between half and all of its
// slots. No plan may take more than half the budget: a plan is recorded
// from its first request, before anything shows whether a later request
// will replay it, so the cap bounds what one large plan that nothing
// replays (a one-run scenario over a big population) copies for nothing.
const replayBudget = 1 << 18

const (
	// firstChunk is the capacity of a plan's first chunk (or half the
	// budget, if smaller); every further chunk doubles the last, so a
	// plan of n contacts takes about log2(n/firstChunk) chunks and
	// under 2n slots, and none of its contacts ever moves.
	firstChunk = 64
	// pullBatch bounds the contacts one cursor pulls from the inner
	// source per visit, so the first run keeps streaming rather than
	// generating the whole plan up front.
	pullBatch = 64
)

// replay memoizes one scenario's contact plans by stream seed (see
// ScenarioFromSpec). Every request for a seed gets its own cursor over
// one shared plan. A cursor that reaches the recorded end pulls the
// next contacts from the seed's one inner source and appends them, so
// the first run records while it streams and a run that stops early
// leaves the rest to the next cursor: under the budget, each plan is
// generated once. A stream is deterministic, so a replay is the stream
// it recorded.
//
// The fallbacks: a source that errs is recorded with its error, and
// every cursor yields the same contacts, then the same Err. A plan whose
// next chunk would take it past half the budget, or the scenario's
// plans past the whole, is dropped: its slots return to the budget, the
// cursor at the frontier keeps the inner source, any other cursor that
// runs off what the plan held reopens a source and skips ahead, and
// later requests for the seed stream raw. Once the whole budget was
// reached, seeds not yet seen stream raw too. An inner source that
// holds a file is closed as soon as no cursor is open over its plan; a
// later cursor that needs more reopens it and skips what the plan
// holds.
type replay struct {
	stream func(seed uint64) (contact.Source, error)
	budget int

	mu    sync.Mutex
	kept  int              // chunk slots allocated by the plans not dropped
	full  bool             // the whole budget was reached: unseen seeds stream raw
	plans map[uint64]*plan // nil entry: the seed streams raw
}

func newReplay(stream func(uint64) (contact.Source, error), budget int) *replay {
	return &replay{stream: stream, budget: budget, plans: make(map[uint64]*plan)}
}

// plan is one seed's recording. Chunk k holds base<<k contacts and
// starts at index base·(2^k−1); a chunk's published contacts, the
// first len(chunks[k]), never change, so cursors read them without the
// lock through the slice headers they copied under it.
type plan struct {
	seed    uint64
	base    int
	nodes   int
	horizon sim.Time

	mu     sync.Mutex
	chunks [][]contact.Contact
	n      int            // contacts published
	src    contact.Source // the inner source, positioned at n; nil when not live
	done   bool           // the inner source ended; err is what it ended with
	err    error
	frozen bool // retains no more: the plan was dropped, or its source failed to open
	open   int  // cursors not yet closed
}

// Stream has the signature of Scenario.Stream and is safe for
// concurrent calls; every source it returns is the caller's own.
func (r *replay) Stream(seed uint64) (contact.Source, error) {
	r.mu.Lock()
	p, seen := r.plans[seed]
	if p == nil && (seen || r.full) {
		r.mu.Unlock()
		return r.stream(seed)
	}
	if !seen {
		// Opening the source may take a while (a generator's set-up,
		// a file): hold only the new plan's lock meanwhile, so a
		// concurrent request for this seed waits and others do not.
		p = &plan{seed: seed, base: max(1, min(firstChunk, r.budget/2))}
		p.mu.Lock()
		r.plans[seed] = p
		r.mu.Unlock()
		defer p.mu.Unlock()
		src, err := r.stream(seed)
		if err != nil {
			// Nothing to retain: a waiting request, and every later
			// one, opens a source of its own.
			p.frozen = true
			r.mu.Lock()
			r.plans[seed] = nil
			r.mu.Unlock()
			return nil, err
		}
		p.src, p.nodes, p.horizon = src, src.Nodes(), src.Horizon()
		p.open++
		return &cursor{r: r, p: p}, nil
	}
	r.mu.Unlock()
	p.mu.Lock()
	if p.frozen {
		p.mu.Unlock()
		return r.stream(seed)
	}
	p.open++
	p.mu.Unlock()
	return &cursor{r: r, p: p}, nil
}

// reserve takes size more chunk slots from the budget for p, or drops
// p when they would take it past half the budget or all plans past the
// whole: p's slots return to the budget, its seed streams raw from now
// on, and in the second case so does every seed not yet seen.
func (r *replay) reserve(p *plan, size int) bool {
	held := size - p.base // the slots of p's chunks so far
	r.mu.Lock()
	defer r.mu.Unlock()
	fits := held+size <= r.budget/2
	if fits && r.kept+size <= r.budget {
		r.kept += size
		return true
	}
	r.full = r.full || fits
	r.kept -= held
	r.plans[p.seed] = nil
	return false
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
// budget refuses the next chunk it freezes the plan instead and
// returns the inner source, for the cursor at the frontier to keep.
func (p *plan) grow(r *replay) (handoff contact.Source) {
	k := len(p.chunks) - 1
	if k < 0 || len(p.chunks[k]) == cap(p.chunks[k]) {
		size := p.base << len(p.chunks)
		if !r.reserve(p, size) {
			p.frozen = true
			handoff, p.src = p.src, nil
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
			// last cursor stopped early): resume it where the plan
			// stops.
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
