package dist

import (
	"bufio"
	"fmt"
	"io"
	"sort"

	"dtnsim/internal/buffer"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/dist/frame"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// Serve runs the worker side of the protocol over a frame stream: a
// Hello handshake, one Init, then rounds until the coordinator closes
// the stream (clean io.EOF returns nil — how Close shuts a worker
// down).
//
// Per round the worker reconstructs every node its items touch — from
// the shipped snapshot when one is present, from its live-node cache
// when the round carries a CacheRef (delta shipping), freshly
// (pristine) when neither — executes the items in order through
// core.Kernel, and replies with each item's effect buffer plus the
// updated snapshots of all involved nodes. Internal failures are
// reported as Error frames and latched: subsequent rounds get the same
// report instead of executing on corrupt state, and the coordinator
// turns the first one into the run error.
func Serve(r io.Reader, w io.Writer) error {
	return ServeWith(r, w, ServeOpts{})
}

// ServeOpts configures Serve's fault injection, used by recovery tests
// and the CI kill-a-worker smoke leg.
type ServeOpts struct {
	// FailAfterRounds > 0 makes the worker drop the connection
	// (simulating a crash) before replying to the FailAfterRounds-th
	// round it receives.
	FailAfterRounds int
}

// ServeWith is Serve with options.
func ServeWith(r io.Reader, w io.Writer, opts ServeOpts) error {
	br, bw := bufio.NewReader(r), bufio.NewWriter(w)
	var s workerState
	rounds := 0
	for {
		m, err := frame.Read(br)
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		switch {
		case m.Hello != nil:
			reply := &frame.Msg{Hello: &frame.Hello{Version: frame.Version, Caps: frame.CapDelta}}
			if err := frame.Write(bw, reply); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		case m.Init != nil:
			if err := s.init(m.Init); err != nil {
				s.fail = err.Error()
			}
		case m.Round != nil:
			rounds++
			if opts.FailAfterRounds > 0 && rounds >= opts.FailAfterRounds {
				return fmt.Errorf("dist: worker failure injected at round %d", rounds)
			}
			var reply *frame.Msg
			if s.fail != "" {
				reply = &frame.Msg{Err: &frame.ErrorMsg{Msg: s.fail}}
			} else if eff, err := s.round(m.Round); err != nil {
				s.fail = err.Error()
				reply = &frame.Msg{Err: &frame.ErrorMsg{Msg: s.fail}}
			} else {
				reply = &frame.Msg{Effects: eff}
			}
			if err := frame.Write(bw, reply); err != nil {
				return err
			}
			if err := bw.Flush(); err != nil {
				return err
			}
		default:
			return fmt.Errorf("dist: worker received unexpected frame type %d", m.Type())
		}
	}
}

// workerState is one run's worker-side state: the kernel, the protocol
// instance (for pristine-node Init), and the materialized nodes.
type workerState struct {
	cfg   frame.Init
	kern  *core.Kernel
	proto protocol.Protocol
	// nodes[i] is the local materialization of node i. A node the
	// worker executed stays live between rounds (live[i], at version
	// ver[i] — the Seq of the last round that touched it) so the
	// coordinator can ship a CacheRef instead of its snapshot; a
	// shipped snapshot always rebuilds the node from scratch.
	nodes []*node.Node
	live  []bool
	ver   []uint64
	items []core.EpochItem
	fail  string
}

func (s *workerState) init(in *frame.Init) error {
	if in.Nodes < 1 {
		return fmt.Errorf("dist: init for %d nodes", in.Nodes)
	}
	if in.BufferCap < 1 {
		return fmt.Errorf("dist: init with buffer capacity %d", in.BufferCap)
	}
	if in.BufferBytes < 0 {
		return fmt.Errorf("dist: init with buffer bytes %d", in.BufferBytes)
	}
	fac, err := protocol.Parse(in.Protocol)
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	s.cfg = *in
	s.proto = fac.New()
	s.nodes = make([]*node.Node, in.Nodes)
	s.live = make([]bool, in.Nodes)
	s.ver = make([]uint64, in.Nodes)
	s.kern = &core.Kernel{
		Nodes:          s.nodes,
		Hooks:          make([]*core.EffectBuf, in.Nodes),
		Protocol:       s.proto,
		Seed:           in.Seed,
		TxTime:         in.TxTime,
		RecordsPerSlot: in.RecordsPerSlot,
		Bandwidth:      in.Bandwidth,
		ControlBytes:   in.ControlBytes,
		RNG:            sim.NewReseedable(),
	}
	if in.DropPolicy != "" {
		// Mirror the engine's per-executor policy construction exactly:
		// same name, same derived seed, victim draws from this kernel's
		// encounter stream.
		pol, err := buffer.NewDropPolicy(in.DropPolicy, in.Seed^0xb17ed70b5eed)
		if err != nil {
			return fmt.Errorf("dist: %w", err)
		}
		if sp, ok := pol.(buffer.StreamPolicy); ok {
			sp.SetStream(s.kern.RNG)
		}
		s.kern.Policy = pol
	}
	return nil
}

// round executes one Round and builds its Effects reply.
func (s *workerState) round(r *frame.Round) (*frame.Effects, error) {
	if s.kern == nil {
		return nil, fmt.Errorf("dist: round %d before init", r.Seq)
	}
	// Materialize the shipped states first, resolve cache references
	// against the live nodes, then pristine nodes for any item endpoint
	// the round carried neither for.
	for i := range r.States {
		st := &r.States[i]
		if st.ID < 0 || st.ID >= len(s.nodes) {
			return nil, fmt.Errorf("dist: round %d: state for node %d outside population", r.Seq, st.ID)
		}
		if err := restoreInto(s.materialize(st.ID), st); err != nil {
			return nil, err
		}
	}
	fresh := make(map[int]bool, len(r.States)+len(r.Cached))
	for i := range r.States {
		fresh[r.States[i].ID] = true
	}
	for _, ref := range r.Cached {
		if ref.ID < 0 || ref.ID >= len(s.nodes) {
			return nil, fmt.Errorf("dist: round %d: cache ref for node %d outside population", r.Seq, ref.ID)
		}
		// A ref the worker cannot resolve means the two sides disagree
		// about what this worker holds — corruption, not recoverable.
		if !s.live[ref.ID] || s.ver[ref.ID] != ref.Ver {
			return nil, fmt.Errorf("dist: round %d: no live node %d at version %d", r.Seq, ref.ID, ref.Ver)
		}
		fresh[ref.ID] = true
	}
	for i := range r.Items {
		w := &r.Items[i]
		for _, id := range []int{w.A, w.B} {
			if id < 0 || id >= len(s.nodes) {
				return nil, fmt.Errorf("dist: round %d: item endpoint %d outside population", r.Seq, id)
			}
			if fresh[id] {
				continue
			}
			fresh[id] = true
			// Pristine node: exactly what the engine's setup produces.
			s.proto.Init(s.materialize(id))
		}
	}

	// Execute in wire order — the coordinator sends each worker's items
	// in ascending epoch order, so per-node program order is preserved.
	if cap(s.items) < len(r.Items) {
		s.items = make([]core.EpochItem, len(r.Items))
	}
	s.items = s.items[:len(r.Items)]
	eff := &frame.Effects{Seq: r.Seq, Items: make([]frame.ItemEffects, len(r.Items))}
	for i := range r.Items {
		w := &r.Items[i]
		s.items[i] = itemFromWire(w)
		it := &s.items[i]
		s.kern.Exec(it)
		ie := &eff.Items[i]
		ie.Idx = w.Idx
		fxs := it.Fx.Effects()
		for j := range fxs {
			wfx, err := effectToWire(&fxs[j])
			if err != nil {
				return nil, err
			}
			ie.Fx = append(ie.Fx, wfx)
		}
	}

	// Ship back the involved nodes' updated states, sorted by ID — the
	// same set and order the coordinator computed independently.
	ids := make([]int, 0, len(fresh))
	for i := range r.Items {
		w := &r.Items[i]
		ids = append(ids, w.A)
		if w.B != w.A {
			ids = append(ids, w.B)
		}
	}
	ids = dedupeSorted(ids)
	eff.States = make([]frame.NodeState, len(ids))
	for i, id := range ids {
		st, err := snapshotNode(s.nodes[id])
		if err != nil {
			return nil, err
		}
		eff.States[i] = st
		// The node stays live at this round's version — the
		// coordinator may reference it instead of re-shipping.
		s.live[id] = true
		s.ver[id] = r.Seq
	}
	return eff, nil
}

// materialize installs a fresh empty node instance for id, replacing
// any stale local one, with the run's buffer capacities and its drop
// hook bound to the kernel.
func (s *workerState) materialize(id int) *node.Node {
	n := node.New(contact.NodeID(id), s.cfg.BufferCap)
	if s.cfg.BufferBytes > 0 {
		n.Store.SetByteCap(s.cfg.BufferBytes)
	}
	s.kern.BindHook(n)
	s.nodes[id] = n
	return n
}

// dedupeSorted sorts ids and removes duplicates in place.
func dedupeSorted(ids []int) []int {
	sort.Ints(ids)
	uniq := ids[:0]
	for i, id := range ids {
		if i == 0 || id != ids[i-1] {
			uniq = append(uniq, id)
		}
	}
	return uniq
}
