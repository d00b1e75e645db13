package dist

import (
	"bytes"
	"fmt"
	"io"

	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/dist/frame"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
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
// updated state of all involved nodes: complete, or to a coordinator
// that announced CapDelta as a patch without the sections that still
// encode to the bytes the two sides last exchanged. Internal failures
// are reported as Error frames and latched: subsequent rounds get the
// same report instead of executing on corrupt state, and the
// coordinator turns the first one into the run error.
func Serve(r io.Reader, w io.Writer) error {
	return ServeWith(r, w, ServeOpts{})
}

// ServeOpts configures Serve's fault injection, used by the recovery
// tests.
type ServeOpts struct {
	// FailAfterRounds > 0 makes the worker drop the connection
	// (simulating a crash) before replying to the FailAfterRounds-th
	// round it receives.
	FailAfterRounds int
}

// ServeWith is Serve with options.
func ServeWith(r io.Reader, w io.Writer, opts ServeOpts) error {
	fr, fw := frame.Reader{R: r}, frame.Writer{W: w}
	var s workerState
	rounds := 0
	for {
		m, err := fr.Read()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		var reply frame.Msg
		switch {
		case m.Hello != nil:
			s.delta = m.Hello.Caps&frame.CapDelta != 0
			reply.Hello = &frame.Hello{Version: frame.Version, Caps: frame.CapDelta}
		case m.Init != nil:
			if err := s.init(m.Init); err != nil {
				s.fail = err.Error()
			}
			continue
		case m.Round != nil:
			rounds++
			if opts.FailAfterRounds > 0 && rounds >= opts.FailAfterRounds {
				return fmt.Errorf("dist: worker failure injected at round %d", rounds)
			}
			if s.fail == "" {
				if err := s.round(m.Round); err != nil {
					s.fail = err.Error()
				}
			}
			if s.fail != "" {
				reply.Err = &frame.ErrorMsg{Msg: s.fail}
			} else {
				reply.Effects = &s.eff
			}
		default:
			return fmt.Errorf("dist: worker received unexpected frame type %d", m.Type())
		}
		if err := fw.Write(&reply); err != nil {
			return err
		}
	}
}

// workerState is one session's worker-side state: the kernel, the
// protocol instance and its state slab (for pristine-node Init), the
// materialized nodes, and the scratch a round is decoded, executed and
// answered in.
type workerState struct {
	cfg   frame.Init
	delta bool // the coordinator's Hello carried CapDelta: replies may be patches
	kern  *core.Kernel
	proto protocol.Protocol
	ext   protocol.Slab
	// nodes[i] is the local materialization of node i. A node the
	// worker executed stays live between rounds (live[i], at version
	// ver[i] — the Seq of the last round that touched it) so the
	// coordinator can ship a CacheRef instead of its snapshot; a
	// shipped snapshot always rebuilds the node from scratch.
	nodes []*node.Node
	live  []bool
	ver   []uint64
	// base[i] holds the encoding of each section of node i as the two
	// sides last exchanged it — shipped in a Round's States or sent in a
	// reply — and is nil until then. A reply omits the sections that
	// still encode to it.
	base    []*[frame.Sections][]byte
	section []byte // one section's encoding, on its way to be compared

	ends     endpointSet
	involved []int
	eff      frame.Effects
	fail     string
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
	s.ext.Size(in.Nodes)
	s.nodes = make([]*node.Node, in.Nodes)
	s.live = make([]bool, in.Nodes)
	s.ver = make([]uint64, in.Nodes)
	s.base = make([]*[frame.Sections][]byte, in.Nodes)
	s.ends.reset(in.Nodes)
	s.kern, err = core.NewKernel(nil, &core.Config{
		Protocol:       s.proto,
		Seed:           in.Seed,
		TxTime:         in.TxTime,
		RecordsPerSlot: in.RecordsPerSlot,
		Bandwidth:      in.Bandwidth,
		ControlBytes:   in.ControlBytes,
		BufferBytes:    in.BufferBytes,
		DropPolicy:     in.DropPolicy,
	}, s.nodes, make([]*core.EffectBuf, in.Nodes))
	if err != nil {
		return fmt.Errorf("dist: %w", err)
	}
	return nil
}

// round executes one Round and builds its reply in s.eff.
func (s *workerState) round(r *frame.Round) error {
	if s.kern == nil {
		return fmt.Errorf("dist: round %d before init", r.Seq)
	}
	for _, it := range r.Items {
		if it.A < 0 || int(it.A) >= len(s.nodes) || it.B < 0 || int(it.B) >= len(s.nodes) {
			return fmt.Errorf("dist: round %d: item endpoints %d, %d outside population", r.Seq, it.A, it.B)
		}
	}
	s.involved = s.ends.involvedNodes(s.involved[:0], r.Items)
	// Materialize the shipped states first, resolve cache references
	// against the live nodes; the involved nodes the round carried
	// neither for are still marked afterwards, and pristine.
	for i := range r.States {
		st := &r.States[i]
		if st.ID < 0 || st.ID >= len(s.nodes) {
			return fmt.Errorf("dist: round %d: state for node %d outside population", r.Seq, st.ID)
		}
		if err := restoreInto(s.materialize(st.ID), st); err != nil {
			return err
		}
		s.ends.unmark(st.ID)
		if s.delta {
			s.rebase(st, true)
		}
	}
	for _, ref := range r.Cached {
		if ref.ID < 0 || ref.ID >= len(s.nodes) {
			return fmt.Errorf("dist: round %d: cache ref for node %d outside population", r.Seq, ref.ID)
		}
		// A ref the worker cannot resolve means the two sides disagree
		// about what this worker holds — corruption, not recoverable.
		if !s.live[ref.ID] || s.ver[ref.ID] != ref.Ver {
			return fmt.Errorf("dist: round %d: no live node %d at version %d", r.Seq, ref.ID, ref.Ver)
		}
		s.ends.unmark(ref.ID)
	}
	for _, id := range s.involved {
		if s.ends.marked(id) {
			// Pristine node: exactly what the engine's setup produces.
			s.proto.Init(s.materialize(id), &s.ext)
		}
	}

	// Execute in wire order — the coordinator sends each worker's items
	// in ascending epoch order, so per-node program order is preserved —
	// where the frame was decoded; the reply's effects are the items' own
	// buffers, which live until the next frame is read.
	s.eff.Seq = r.Seq
	s.eff.Items = frame.Resize(s.eff.Items, len(r.Items))
	for i, it := range r.Items {
		s.kern.Exec(it)
		s.eff.Items[i] = frame.ItemEffects{Idx: r.Idx[i], Records: it.Records, Fx: it.Fx.Effects()}
	}

	// Ship back the involved nodes' updated states, sorted by ID — the
	// same set and order the coordinator computed independently.
	s.eff.States = frame.Resize(s.eff.States, len(s.involved))
	for i, id := range s.involved {
		st := &s.eff.States[i]
		if err := snapshotInto(st, s.nodes[id]); err != nil {
			return err
		}
		if s.delta {
			s.rebase(st, false)
		}
		// The node stays live at this round's version — the
		// coordinator may reference it instead of re-shipping.
		s.live[id] = true
		s.ver[id] = r.Seq
	}
	return nil
}

// rebase makes st what the two sides last exchanged for its node. A
// state the coordinator shipped replaces what was kept outright. In a
// reply, the sections whose encoding equals the kept one are marked
// omitted and the others replace it — all of them the first time the
// node is reported. Comparing encodings is exact for any protocol's Ext
// state and needs no dirty tracking in the kernel.
func (s *workerState) rebase(st *frame.NodeState, shipped bool) {
	base := s.base[st.ID]
	if base == nil {
		base = new([frame.Sections][]byte)
		s.base[st.ID] = base // empty: no section's encoding is, so none is omitted
	}
	for sec := range base {
		s.section = st.AppendSection(s.section[:0], sec)
		if !shipped && bytes.Equal(s.section, base[sec]) {
			st.Omit |= 1 << sec
		} else {
			base[sec] = append(base[sec][:0], s.section...)
		}
	}
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
