package dist

import (
	"fmt"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/dist/frame"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// This file converts between a live node and frame.NodeState, the one
// thing that has a wire form of its own (items and effects cross as the
// engine's own types; the codec reads and writes those directly). The
// conversion is exact: restore(snapshot(n)) reproduces a node
// observationally identical to n under every engine and protocol code
// path (store contents and incremental indexes, control records sent,
// encounter history, control load, Received set, Ext state), which is
// what lets a worker process execute items over restored nodes and
// produce bit-identical effects.

// snapshotInto captures n's complete state in wire form, over whatever
// st held, reusing its storage. Copies come out in the store's
// ascending bundle-ID order and the Received set in its sorted order, so
// equal nodes always snapshot to equal wire forms (the canonical form
// byte-identical frames, and a patch's omitted sections, rest on).
func snapshotInto(st *frame.NodeState, n *node.Node) error {
	ext, err := protocol.SnapshotExt(n.Ext)
	if err != nil {
		return fmt.Errorf("dist: node %d: %w", n.ID, err)
	}
	*st = frame.NodeState{
		ID:                 int(n.ID),
		ControlLoad:        n.Store.ControlLoad(),
		LastEncounterStart: float64(n.LastEncounterStart),
		LastInterval:       n.LastInterval,
		Copies:             st.Copies[:0],
		Received:           st.Received[:0],
		Ext:                ext,
	}
	n.Store.Range(func(c *bundle.Copy) bool {
		st.Copies = append(st.Copies, frame.Copy{
			Src:       int(c.Bundle.ID.Src),
			Seq:       c.Bundle.ID.Seq,
			Dst:       int(c.Bundle.Dst),
			CreatedAt: float64(c.Bundle.CreatedAt),
			Size:      c.Bundle.Meta.Size,
			FirstSeq:  c.Bundle.FirstSeq,
			EC:        c.EC,
			Expiry:    float64(c.Expiry),
			StoredAt:  float64(c.StoredAt),
			Pinned:    c.Pinned,
		})
		return true
	})
	n.Received.Range(func(id bundle.ID) bool {
		st.Received = append(st.Received, frame.IDPair{Src: int(id.Src), Seq: id.Seq})
		return true
	})
	return nil
}

// restoreInto rebuilds n's state from a complete snapshot. n must be
// freshly constructed (empty store, empty Received set); the buffer
// capacities come from the node's own construction, not the snapshot.
func restoreInto(n *node.Node, st *frame.NodeState) error {
	if st.Omit != 0 {
		return fmt.Errorf("dist: node %d: state omits sections %03b, nothing to restore them from", st.ID, st.Omit)
	}
	n.LastEncounterStart = sim.Time(st.LastEncounterStart)
	n.LastInterval = st.LastInterval
	n.Store.Grow(len(st.Copies))
	for i := range st.Copies {
		w := &st.Copies[i]
		cp := bundle.Copy{
			Bundle: &bundle.Bundle{
				ID:        bundle.ID{Src: contact.NodeID(w.Src), Seq: w.Seq},
				Dst:       contact.NodeID(w.Dst),
				CreatedAt: sim.Time(w.CreatedAt),
				Meta:      bundle.Meta{Size: w.Size},
				FirstSeq:  w.FirstSeq,
			},
			EC:       w.EC,
			Expiry:   sim.Time(w.Expiry),
			StoredAt: sim.Time(w.StoredAt),
			Pinned:   w.Pinned,
		}
		if err := n.Store.Restore(&cp); err != nil {
			return fmt.Errorf("dist: node %d copy %v: %w", st.ID, cp.Bundle.ID, err)
		}
	}
	// Control load after Restore: Restore never consults Free, so order
	// does not matter for correctness, but setting it last keeps the
	// store's invariants trivially intact throughout.
	n.Store.SetControlLoad(st.ControlLoad)
	for _, id := range st.Received {
		n.Received.Add(bundle.ID{Src: contact.NodeID(id.Src), Seq: id.Seq})
	}
	if err := protocol.RestoreExt(n, st.Ext); err != nil {
		return fmt.Errorf("dist: node %d: %w", st.ID, err)
	}
	return nil
}
