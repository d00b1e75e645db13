package dist

import (
	"fmt"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/dist/frame"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// This file converts between live engine state and the wire structs of
// internal/dist/frame. The conversions are exact: restore(snapshot(n))
// reproduces a node observationally identical to n under every engine
// and protocol code path (store contents and incremental indexes,
// counters, encounter history, control load, Received set, Ext state),
// which is what lets a worker process execute items over restored nodes
// and produce bit-identical effects.

// Drop reasons cross the wire as a byte enum; the engine's
// node.DropReason strings stay the in-process representation.
const (
	reasonNone         = 0
	reasonRefused      = 1
	reasonEvicted      = 2
	reasonExpired      = 3
	reasonPurged       = 4
	reasonBytePressure = 5
)

func reasonToByte(r node.DropReason) (byte, error) {
	switch r {
	case "":
		return reasonNone, nil
	case node.DropRefused:
		return reasonRefused, nil
	case node.DropEvicted:
		return reasonEvicted, nil
	case node.DropExpired:
		return reasonExpired, nil
	case node.DropPurged:
		return reasonPurged, nil
	case node.DropBytePressure:
		return reasonBytePressure, nil
	}
	return 0, fmt.Errorf("dist: drop reason %q has no wire code", r)
}

func reasonFromByte(b byte) (node.DropReason, error) {
	switch b {
	case reasonNone:
		return "", nil
	case reasonRefused:
		return node.DropRefused, nil
	case reasonEvicted:
		return node.DropEvicted, nil
	case reasonExpired:
		return node.DropExpired, nil
	case reasonPurged:
		return node.DropPurged, nil
	case reasonBytePressure:
		return node.DropBytePressure, nil
	}
	return "", fmt.Errorf("dist: wire drop reason %d unknown", b)
}

// effectToWire converts one recorded kernel effect to wire form.
func effectToWire(fx *core.Effect) (frame.Effect, error) {
	reason, err := reasonToByte(fx.Reason)
	if err != nil {
		return frame.Effect{}, err
	}
	return frame.Effect{
		Kind:   byte(fx.Kind),
		From:   int(fx.From),
		To:     int(fx.To),
		Src:    int(fx.ID.Src),
		Seq:    fx.ID.Seq,
		Reason: reason,
		At:     float64(fx.At),
		Delay:  fx.Delay,
	}, nil
}

// effectFromWire converts one wire effect back to the kernel form.
func effectFromWire(fx *frame.Effect) (core.Effect, error) {
	reason, err := reasonFromByte(fx.Reason)
	if err != nil {
		return core.Effect{}, err
	}
	return core.Effect{
		Kind:   core.EffectKind(fx.Kind),
		From:   contact.NodeID(fx.From),
		To:     contact.NodeID(fx.To),
		ID:     bundle.ID{Src: contact.NodeID(fx.Src), Seq: fx.Seq},
		Reason: reason,
		At:     sim.Time(fx.At),
		Delay:  fx.Delay,
	}, nil
}

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
		ControlSent:        n.ControlSent,
		DataSent:           n.DataSent,
		Refused:            n.Refused,
		Expired:            n.Expired,
		Evicted:            n.Evicted,
		ByteDropped:        n.ByteDropped,
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
	n.ControlSent = st.ControlSent
	n.DataSent = st.DataSent
	n.Refused = st.Refused
	n.Expired = st.Expired
	n.Evicted = st.Evicted
	n.ByteDropped = st.ByteDropped
	n.LastEncounterStart = sim.Time(st.LastEncounterStart)
	n.LastInterval = st.LastInterval
	for i := range st.Copies {
		w := &st.Copies[i]
		cp := &bundle.Copy{
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
		if err := n.Store.Restore(cp); err != nil {
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

// itemToWire converts one collected epoch item to wire form, keyed by
// its index in the epoch's canonical order.
func itemToWire(idx int, it *core.EpochItem) frame.Item {
	w := frame.Item{
		Idx: idx,
		Gen: it.Gen,
		T:   float64(it.T),
		A:   int(it.A),
		B:   int(it.B),
	}
	if it.Gen {
		w.FlowSrc = int(it.Flow.Src)
		w.FlowDst = int(it.Flow.Dst)
		w.Count = it.Flow.Count
		w.StartAt = float64(it.Flow.StartAt)
		w.Size = it.Flow.Size
		w.Base = it.Base
		w.FirstSeq = it.FirstSeq
	} else {
		w.Start = float64(it.C.Start)
		w.End = float64(it.C.End)
		w.Bandwidth = it.C.Bandwidth
	}
	return w
}

// itemFromWire reconstructs the epoch item a worker executes. The
// dependency-chain fields stay zero: within one round a worker runs its
// items strictly in order, so no countdown scheduling happens there.
func itemFromWire(w *frame.Item) core.EpochItem {
	it := core.EpochItem{
		T:   sim.Time(w.T),
		Gen: w.Gen,
		A:   contact.NodeID(w.A),
		B:   contact.NodeID(w.B),
	}
	if w.Gen {
		it.Flow = core.Flow{
			Src:     contact.NodeID(w.FlowSrc),
			Dst:     contact.NodeID(w.FlowDst),
			Count:   w.Count,
			StartAt: sim.Time(w.StartAt),
			Size:    w.Size,
		}
		it.Base = w.Base
		it.FirstSeq = w.FirstSeq
	} else {
		it.C = contact.Contact{
			A:         contact.NodeID(w.A),
			B:         contact.NodeID(w.B),
			Start:     sim.Time(w.Start),
			End:       sim.Time(w.End),
			Bandwidth: w.Bandwidth,
		}
	}
	return it
}
