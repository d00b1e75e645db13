// Package dist is the distributed executor (DESIGN.md §13): a
// coordinator that runs the engine's sharded loop locally — item
// collection, canonical-order merge, sampling, Result assembly — while
// shipping epoch items to worker processes over length-prefixed binary
// frames (internal/dist/frame) and installing the returned effect
// buffers and node states. Connections come from a
// transport.Transport: locally spawned processes over stdin/stdout
// pipes, or whatever Options.Dial supplies.
//
// The coordinator owns the authoritative node state, one wire-form
// frame.NodeState per touched node: each round it sends every involved
// worker the states of the non-pristine nodes its items touch — as full
// snapshots, or as cache references for nodes whose state the worker
// already holds from a previous round (delta shipping, negotiated via
// the Hello handshake) — the worker reconstructs those nodes, executes
// the items through the same core.Kernel the in-process shards run, and
// ships back each item's effect buffer plus the mutated states, as
// patches the coordinator applies in place: a section of a node's state
// (copies, received set, protocol Ext) the round left as the two sides
// last exchanged it stays off the wire. Determinism
// is inherited wholesale: items execute over identical state through
// identical code with encounter-derived RNG seeding, and the merge
// replays effects in the same canonical order — so Results and
// observer streams are byte-identical to the in-process sharded (and
// sequential) engines for every worker count.
//
// Because the coordinator's states are authoritative and always
// complete, a lost worker is recoverable: the transport re-dials or
// re-spawns it and the coordinator replays the in-flight round from its
// own states — full snapshots, since the replacement holds nothing to
// reference or patch against — so the run completes bit-identically
// instead of failing (bounded by Options.MaxRestarts).
package dist

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"dtnsim/internal/core"
	"dtnsim/internal/dist/frame"
	"dtnsim/internal/dist/transport"
	"dtnsim/internal/protocol"
)

// DefaultRoundItems is the most items one round ships: by default a
// round is the whole window the loop hands RunEpoch, split into
// node-disjoint lists by core.Partitioner, one list per worker.
const DefaultRoundItems = core.WindowItems

// ErrWorkerLost reports a worker process that died or broke its
// connection mid-run. Callers branch with errors.Is.
var ErrWorkerLost = errors.New("dist: worker lost")

// Options configures a distributed backend.
type Options struct {
	// Workers is the number of worker connections. Required, >= 1.
	Workers int
	// Protocol is the protocol spec (e.g. "immunity", "pq:p=0.75") the
	// workers instantiate. Required; it must resolve to the same
	// protocol as the run Config's instance — Start cross-checks.
	Protocol string
	// RoundItems overrides DefaultRoundItems when positive: a round is
	// then a RoundItems slice of the loop's window — more, smaller
	// frames. The window holds at most core.WindowItems items, so larger
	// values behave as DefaultRoundItems.
	RoundItems int
	// WorkerBin is the dtnsim-worker binary to spawn. Required unless
	// Dial is set.
	WorkerBin string
	// WorkerArgs are extra arguments passed to the worker binary.
	WorkerArgs []string
	// Stderr receives the spawned workers' stderr; nil inherits the
	// coordinator's.
	Stderr io.Writer
	// FullSnapshots disables delta shipping in both directions: the
	// coordinator does not announce the delta capability, so every round
	// carries full state snapshots and every reply complete states.
	// Benchmarks pin the delta path's win against this.
	FullSnapshots bool
	// MaxRestarts bounds how many lost workers the run may replace and
	// replay (summed across workers). 0 means 2×Workers; negative
	// disables recovery so the first loss fails the run.
	MaxRestarts int
	// Dial, when set, supplies the worker connections instead of a
	// built-in transport — the seam tests use to serve workers
	// in-process and to inject failing connections.
	Dial func(n int) ([]io.ReadWriteCloser, error)
	// Redial, optionally set with Dial, replaces worker i's connection
	// after a loss. When nil, a Dial-supplied backend cannot recover
	// lost workers.
	Redial func(i int) (io.ReadWriteCloser, error)
}

// verNone marks a node state a worker does not hold: pristine on the
// coordinator, absent from a worker's cache.
const verNone = ^uint64(0)

// Backend coordinates worker processes behind the core.EpochBackend
// seam. Create with New, hand to core.Config.Backend, Close when done.
type Backend struct {
	opt   Options
	tr    transport.Transport
	conns []*conn

	env    core.RunEnv
	bufCap int
	// states[n] is node n's authoritative state, nil while pristine:
	// allocated when a reply first reports the node, patched in place by
	// every later one, always complete.
	states []*frame.NodeState
	seq    uint64
	init   *frame.Init // the run's Init, kept for worker revival

	// Delta-shipping bookkeeping. stateVer[n] is the round that
	// produced states[n]; seen[w][n] is the version worker w's live
	// node n mirrors (verNone: none). A round ships worker w a
	// CacheRef instead of a snapshot exactly when seen[w][n] ==
	// stateVer[n].
	stateVer []uint64
	seen     [][]uint64
	deltaOK  []bool // worker advertised CapDelta and Options allow it
	restarts int    // remaining worker-revival budget

	// Scratch reused across rounds.
	part     core.Partitioner
	ends     endpointSet
	round    frame.Round
	assigned [][]int             // assigned[w] = item indexes of worker w's round (the Partitioner's)
	items    [][]*core.EpochItem // items[w] = the items at those indexes
	involved [][]int             // involved[w] = sorted node IDs of worker w's round
}

// conn is one worker connection. Both directions keep their frame
// buffer, and the reader its decoded storage: a received message is
// valid until the next recv.
type conn struct {
	rwc io.ReadWriteCloser
	r   frame.Reader
	w   frame.Writer
}

func (c *conn) send(m *frame.Msg) error { return c.w.Write(m) }

func (c *conn) recv() (*frame.Msg, error) { return c.r.Read() }

// New connects the backend's workers: through opt.Dial when set,
// otherwise by spawning opt.Workers dtnsim-worker processes. Every
// connection is handshaken (Hello exchange: frame version must match,
// capabilities negotiate delta shipping downward) before the backend
// is returned.
func New(opt Options) (*Backend, error) {
	if opt.Workers < 1 {
		return nil, fmt.Errorf("dist: need at least one worker, got %d", opt.Workers)
	}
	if opt.RoundItems == 0 {
		opt.RoundItems = DefaultRoundItems
	}
	if opt.RoundItems < 1 {
		return nil, fmt.Errorf("dist: round window %d items", opt.RoundItems)
	}
	b := &Backend{opt: opt}
	if opt.Dial != nil {
		b.tr = funcTransport{dial: opt.Dial, redial: opt.Redial}
	} else {
		b.tr = &transport.Pipes{Bin: opt.WorkerBin, Args: opt.WorkerArgs, Stderr: opt.Stderr}
	}
	rwcs, err := b.tr.Dial(opt.Workers)
	if err != nil {
		b.tr.Close()
		return nil, err
	}
	if len(rwcs) != opt.Workers {
		closeAll(rwcs)
		b.tr.Close()
		return nil, fmt.Errorf("dist: dialed %d connections for %d workers", len(rwcs), opt.Workers)
	}
	b.conns = make([]*conn, len(rwcs))
	for i, rwc := range rwcs {
		b.conns[i] = newConn(rwc)
	}
	b.restarts = opt.MaxRestarts
	if b.restarts == 0 {
		b.restarts = 2 * opt.Workers
	}
	b.deltaOK = make([]bool, opt.Workers)
	b.seen = make([][]uint64, opt.Workers)
	b.items = make([][]*core.EpochItem, opt.Workers)
	b.involved = make([][]int, opt.Workers)
	for i := range b.conns {
		if err := b.handshake(i); err != nil {
			b.Close()
			return nil, err
		}
	}
	return b, nil
}

func newConn(rwc io.ReadWriteCloser) *conn {
	return &conn{rwc: rwc, r: frame.Reader{R: rwc}, w: frame.Writer{W: rwc}}
}

// funcTransport adapts the Options.Dial/Options.Redial function seam
// to a transport.Transport.
type funcTransport struct {
	dial   func(n int) ([]io.ReadWriteCloser, error)
	redial func(i int) (io.ReadWriteCloser, error)
}

func (t funcTransport) Dial(n int) ([]io.ReadWriteCloser, error) { return t.dial(n) }

func (t funcTransport) Redial(i int) (io.ReadWriteCloser, error) {
	if t.redial == nil {
		return nil, errors.New("dist: transport cannot replace workers")
	}
	return t.redial(i)
}

func (t funcTransport) Close() error { return nil }

func closeAll(rwcs []io.ReadWriteCloser) {
	for _, rwc := range rwcs {
		rwc.Close()
	}
}

// handshake exchanges Hello frames with worker w: the coordinator
// announces its version and capabilities — CapDelta unless
// Options.FullSnapshots forbids deltas, which is what keeps the
// worker's replies complete too — and the worker replies with its own.
// Version skew is fatal; capabilities only negotiate optional behavior
// (delta shipping) downward.
func (b *Backend) handshake(w int) error {
	hello := &frame.Hello{Version: frame.Version}
	if !b.opt.FullSnapshots {
		hello.Caps = frame.CapDelta
	}
	if err := b.conns[w].send(&frame.Msg{Hello: hello}); err != nil {
		return fmt.Errorf("%w: worker %d: handshake: %v", ErrWorkerLost, w, err)
	}
	m, err := b.conns[w].recv()
	if errors.Is(err, frame.ErrFrame) { // corruption, not a lost worker: as in collect
		return fmt.Errorf("dist: worker %d: handshake: %w", w, err)
	}
	if err != nil {
		return fmt.Errorf("%w: worker %d: handshake: %v", ErrWorkerLost, w, err)
	}
	switch {
	case m.Err != nil:
		return fmt.Errorf("dist: worker %d: %s", w, m.Err.Msg)
	case m.Hello == nil:
		return fmt.Errorf("dist: worker %d: handshake got type-%d frame, want hello", w, m.Type())
	case m.Hello.Version != frame.Version:
		return fmt.Errorf("dist: worker %d speaks frame version %d, coordinator speaks %d",
			w, m.Hello.Version, frame.Version)
	}
	b.deltaOK[w] = hello.Caps&m.Hello.Caps&frame.CapDelta != 0
	return nil
}

// revive replaces worker w after cause lost it: re-dial through the
// transport, handshake, re-send the run's Init, and forget everything
// the old worker held so the next round ships full snapshots. The
// caller then replays whatever was in flight from the coordinator's
// authoritative states. Each revival spends one unit of the restart
// budget; when it is gone, the original loss surfaces as the run
// error.
func (b *Backend) revive(w int, cause error) error {
	if b.restarts <= 0 {
		return fmt.Errorf("%w: worker %d: %v (worker-restart budget exhausted)", ErrWorkerLost, w, cause)
	}
	b.restarts--
	b.conns[w].rwc.Close()
	rwc, err := b.tr.Redial(w)
	if err != nil {
		return fmt.Errorf("%w: worker %d: %v (re-dial: %v)", ErrWorkerLost, w, cause, err)
	}
	b.conns[w] = newConn(rwc)
	for i := range b.seen[w] {
		b.seen[w][i] = verNone
	}
	if err := b.handshake(w); err != nil {
		return err
	}
	if b.init != nil {
		if err := b.conns[w].send(&frame.Msg{Init: b.init}); err != nil {
			return fmt.Errorf("%w: worker %d: replayed init: %v", ErrWorkerLost, w, err)
		}
	}
	return nil
}

// Close tears the workers down: connections close (a worker's Serve
// loop exits on the EOF) and the transport cleans up — spawned
// processes are reaped, killed after a grace period if they ignore the
// EOF, with every worker's exit error aggregated. Safe after a failed
// run.
func (b *Backend) Close() error {
	var errs []error
	for _, c := range b.conns {
		if err := c.rwc.Close(); err != nil {
			errs = append(errs, err)
		}
	}
	b.conns = nil
	if b.tr != nil {
		if err := b.tr.Close(); err != nil {
			errs = append(errs, err)
		}
		b.tr = nil
	}
	return errors.Join(errs...)
}

// Start implements core.EpochBackend: capture the run environment and
// initialize every worker.
func (b *Backend) Start(env core.RunEnv) error {
	fac, err := protocol.Parse(b.opt.Protocol)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	if got, want := fac.New().Name(), env.Cfg.Protocol.Name(); got != want {
		return fmt.Errorf("dist: worker protocol spec %q resolves to %q; run uses %q",
			b.opt.Protocol, got, want)
	}
	b.env = env
	b.bufCap = env.Cfg.BufferCap
	b.states = make([]*frame.NodeState, len(env.Nodes))
	b.stateVer = make([]uint64, len(env.Nodes))
	b.ends.reset(len(env.Nodes))
	for w := range b.seen {
		if len(b.seen[w]) != len(env.Nodes) {
			b.seen[w] = make([]uint64, len(env.Nodes))
		}
		for i := range b.seen[w] {
			b.seen[w][i] = verNone
		}
	}
	b.seq = 0
	b.init = &frame.Init{
		Seed:           env.Cfg.Seed,
		Nodes:          len(env.Nodes),
		BufferCap:      env.Cfg.BufferCap,
		BufferBytes:    env.Cfg.BufferBytes,
		DropPolicy:     env.Cfg.DropPolicy,
		TxTime:         env.Cfg.TxTime,
		Bandwidth:      env.Cfg.Bandwidth,
		ControlBytes:   env.Cfg.ControlBytes,
		RecordsPerSlot: env.Cfg.RecordsPerSlot,
		Protocol:       b.opt.Protocol,
	}
	for i, c := range b.conns {
		if err := c.send(&frame.Msg{Init: b.init}); err != nil {
			// revive re-sends the Init itself after the handshake.
			if err := b.revive(i, err); err != nil {
				return err
			}
		}
	}
	return nil
}

// RunEpoch implements core.EpochBackend: run the window as one
// coordinator↔workers round, or as RoundItems slices of it.
func (b *Backend) RunEpoch(ep *core.Epoch) error {
	n := ep.Len()
	for lo := 0; lo < n; lo += b.opt.RoundItems {
		hi := lo + b.opt.RoundItems
		if hi > n {
			hi = n
		}
		if err := b.runRound(ep, lo, hi); err != nil {
			return err
		}
	}
	return nil
}

// runRound executes items [lo, hi) of the window: split them into one
// node-disjoint list per worker, ship one Round per involved worker,
// install the returned states and effects. The read-back barrier
// between rounds is what preserves the per-node order across rounds;
// within a round, items sharing a node land in one list and execute in
// item order on one worker.
//
// A lost worker at any point is revived and its round replayed. That
// replay is deterministic by construction: a round's per-worker inputs
// are disjoint (lists share no nodes), so the coordinator's
// authoritative states for the lost worker's nodes are exactly what it
// sent the first time, and the replacement executes the identical
// items over identical state. Worker-reported errors and protocol-skew
// mismatches are not losses — they are corruption and stay fatal.
func (b *Backend) runRound(ep *core.Epoch, lo, hi int) error {
	b.assign(ep, lo, hi)

	// Ship the rounds, then collect replies in worker order — the reply
	// order (not arrival order) is what keeps state installation
	// deterministic.
	for w := range b.assigned {
		if len(b.assigned[w]) == 0 {
			continue
		}
		if err := b.sendRound(w); err != nil {
			return err
		}
	}
	for w, idxs := range b.assigned {
		if len(idxs) == 0 {
			continue
		}
		for {
			err := b.collect(ep, w, idxs)
			if err == nil {
				break
			}
			if !errors.Is(err, ErrWorkerLost) {
				return err
			}
			if err := b.revive(w, err); err != nil {
				return err
			}
			if err := b.sendRound(w); err != nil {
				return err
			}
		}
	}
	b.seq++
	return nil
}

// sendRound builds worker w's Round from the current assignment and
// ships it, reviving and retrying on connection loss. For each
// involved non-pristine node the round carries either the full
// snapshot or, when the worker already holds the current version, a
// CacheRef — the delta path that keeps repeat encounters off the wire.
func (b *Backend) sendRound(w int) error {
	for {
		round := &b.round
		round.Seq = b.seq
		round.States, round.Cached = round.States[:0], round.Cached[:0]
		round.Idx, round.Items = b.assigned[w], b.items[w]
		for _, id := range b.involved[w] {
			st := b.states[id]
			if st == nil {
				continue
			}
			if b.deltaOK[w] && b.seen[w][id] == b.stateVer[id] {
				round.Cached = append(round.Cached, frame.CacheRef{ID: id, Ver: b.stateVer[id]})
			} else {
				round.States = append(round.States, *st)
			}
		}
		err := b.conns[w].send(&frame.Msg{Round: round})
		if err == nil {
			return nil
		}
		if err := b.revive(w, err); err != nil {
			return err
		}
	}
}

// collect reads one worker's Effects reply and installs it. Only the
// stream failing is a lost worker; bytes that are not a frame, like a
// reply that contradicts the round, are corruption and end the run.
func (b *Backend) collect(ep *core.Epoch, w int, idxs []int) error {
	m, err := b.conns[w].recv()
	if errors.Is(err, frame.ErrFrame) {
		return fmt.Errorf("dist: worker %d: %w", w, err)
	}
	if err != nil {
		return fmt.Errorf("%w: worker %d: %v", ErrWorkerLost, w, err)
	}
	if m.Err != nil {
		return fmt.Errorf("dist: worker %d: %s", w, m.Err.Msg)
	}
	eff := m.Effects
	if eff == nil {
		return fmt.Errorf("dist: worker %d: unexpected %d frame in round %d", w, m.Type(), b.seq)
	}
	if eff.Seq != b.seq {
		return fmt.Errorf("dist: worker %d: reply for round %d in round %d", w, eff.Seq, b.seq)
	}
	if len(eff.Items) != len(idxs) {
		return fmt.Errorf("dist: worker %d: %d item replies for %d items", w, len(eff.Items), len(idxs))
	}
	for j := range eff.Items {
		ie := &eff.Items[j]
		if ie.Idx != idxs[j] {
			return fmt.Errorf("dist: worker %d: reply item %d, sent %d", w, ie.Idx, idxs[j])
		}
		it := ep.Item(ie.Idx)
		it.Fx.Set(ie.Fx)
		it.Records = ie.Records
	}
	// The worker returns the updated state of exactly the nodes its
	// items involve; anything else means the two sides disagree about
	// the work, which is corruption, not a recoverable condition.
	if len(eff.States) != len(b.involved[w]) {
		return fmt.Errorf("dist: worker %d: %d states returned for %d involved nodes",
			w, len(eff.States), len(b.involved[w]))
	}
	for j, id := range b.involved[w] {
		st := &eff.States[j]
		if st.ID != id {
			return fmt.Errorf("dist: worker %d: state for node %d, expected %d", w, st.ID, id)
		}
		// A patch omits what this round shipped or referenced and left
		// unchanged: there must have been something to ship, and a worker
		// the coordinator announced CapDelta to.
		if st.Omit != 0 && (b.states[id] == nil || !b.deltaOK[w]) {
			return fmt.Errorf("dist: worker %d: unsolicited patch %03b for node %d", w, st.Omit, id)
		}
		if b.states[id] == nil {
			b.states[id] = new(frame.NodeState)
		}
		b.states[id].Patch(st) // st now holds what the slot gave up
		// The worker now holds this node live at this round's version —
		// the next round it is involved in may ship a CacheRef.
		b.stateVer[id] = b.seq
		b.seen[w][id] = b.seq
	}
	return nil
}

// assign spreads items [lo, hi) across the workers by the one rule
// every executor schedules with (core.Partitioner). Fills b.assigned,
// b.items and b.involved.
func (b *Backend) assign(ep *core.Epoch, lo, hi int) {
	b.assigned = b.part.Split(ep, len(b.env.Nodes), lo, hi, b.opt.Workers)
	for w, idxs := range b.assigned {
		items := b.items[w][:0]
		for _, idx := range idxs {
			items = append(items, ep.Item(idx))
		}
		b.items[w] = items
		b.involved[w] = b.ends.involvedNodes(b.involved[w][:0], items)
	}
}

// endpointSet finds the distinct endpoints of a round's items, sorted —
// the involved set both sides of a connection derive from the items on
// their own and must agree on. mark[id] is the last call that saw node
// id, so membership needs neither a map nor a clearing pass.
type endpointSet struct {
	mark []uint64
	gen  uint64
}

func (e *endpointSet) reset(nodes int) { *e = endpointSet{mark: make([]uint64, nodes)} }

// involvedNodes appends the distinct endpoints of items to dst in
// ascending order and leaves exactly those marked. The endpoints must
// lie inside the population.
func (e *endpointSet) involvedNodes(dst []int, items []*core.EpochItem) []int {
	e.gen++
	for _, it := range items {
		for _, id := range [2]int{int(it.A), int(it.B)} {
			if e.mark[id] != e.gen {
				e.mark[id] = e.gen
				dst = append(dst, id)
			}
		}
	}
	sort.Ints(dst)
	return dst
}

func (e *endpointSet) marked(id int) bool { return e.mark[id] == e.gen }
func (e *endpointSet) unmark(id int)      { e.mark[id] = 0 }

// NodeOccupancy implements core.EpochBackend: the occupancy the node's
// authoritative state would report from its own Store — bitwise the
// same (copies + control load)/cap expression buffer.Store.Occupancy
// computes. Pristine nodes hold nothing.
func (b *Backend) NodeOccupancy(i int) float64 {
	st := b.states[i]
	if st == nil {
		return 0
	}
	return (float64(len(st.Copies)) + st.ControlLoad) / float64(b.bufCap)
}

// Finish implements core.EpochBackend: decode every non-pristine
// authoritative state into the coordinator's (still pristine) nodes so
// Result assembly reads final stores and control overhead locally.
func (b *Backend) Finish() error {
	for _, st := range b.states {
		if st == nil {
			continue
		}
		if st.ID < 0 || st.ID >= len(b.env.Nodes) {
			return fmt.Errorf("dist: final state for node %d outside population", st.ID)
		}
		if err := restoreInto(b.env.Nodes[st.ID], st); err != nil {
			return err
		}
	}
	return nil
}
