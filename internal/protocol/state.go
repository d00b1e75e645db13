package protocol

import (
	"cmp"
	"fmt"
	"slices"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
)

// This file is the Ext-state codec for process-boundary executors
// (internal/dist): a worker process reconstructs a node from a
// coordinator snapshot and ships the mutated state back. The codec
// lives in this package because the concrete Ext types are unexported
// by design — protocols own their state layout; executors only get a
// neutral, deterministic wire form.
//
// Exactness contract: RestoreExt(SnapshotExt(x)) must reproduce state
// observationally identical to x under every protocol hook, including
// iteration counts (the number of acknowledged flows prices the
// cumulative control load) and table presence (transferTables charges
// one record per acknowledged flow). Snapshot therefore writes every
// table a cumulative state holds, in flow order, and the i-list in
// sorted order, so equal states always snapshot to equal wire forms.

// Ext-state kinds. The zero value marks protocols that hang no state
// off node.Ext (pure, ttl, ec, …).
const (
	ExtNone       = ""
	ExtImmunity   = "immunity"
	ExtCumulative = "cum"
)

// FlowCount is one (flow, counter) entry of a cumulative-immunity
// table, in the wire form shared by the acks and base tables.
type FlowCount struct {
	Src int
	Dst int
	N   int
}

// FlowSeqs is one flow's out-of-order received set at a destination.
type FlowSeqs struct {
	Src  int
	Dst  int
	Seqs []int
}

// ExtState is the serializable form of a node's protocol-specific Ext
// state. Field use depends on Kind: IDs carries the immunity i-list;
// Acks/Base/Rcvd carry the cumulative tables. Slices are sorted (IDs by
// bundle ID, flows by (Src, Dst), Seqs ascending), so the wire form is
// a canonical function of the state.
type ExtState struct {
	Kind string
	IDs  []bundle.ID
	Acks []FlowCount
	Base []FlowCount
	Rcvd []FlowSeqs
}

// SnapshotExt captures a node's Ext state (as attached by a protocol's
// Init and mutated since) into its wire form. It fails on an Ext type
// it does not know — adding a stateful protocol requires extending this
// codec, which the dist round-trip tests enforce.
func SnapshotExt(ext any) (ExtState, error) {
	switch st := ext.(type) {
	case nil:
		return ExtState{}, nil
	case *immunityState:
		return ExtState{Kind: ExtImmunity, IDs: st.ilist.Items()}, nil
	case *cumState:
		out := ExtState{Kind: ExtCumulative}
		for _, t := range st.flows {
			src, dst := int(t.flow.Src), int(t.flow.Dst)
			if t.ack != 0 {
				out.Acks = append(out.Acks, FlowCount{Src: src, Dst: dst, N: t.ack})
			}
			if t.base != 0 {
				out.Base = append(out.Base, FlowCount{Src: src, Dst: dst, N: t.base})
			}
			if len(t.seqs) > 0 {
				out.Rcvd = append(out.Rcvd, FlowSeqs{Src: src, Dst: dst, Seqs: slices.Clone(t.seqs)})
			}
		}
		return out, nil
	}
	return ExtState{}, fmt.Errorf("protocol: Ext state %T has no snapshot codec", ext)
}

// RestoreExt reattaches a snapshotted Ext state to n, replacing
// whatever the protocol's Init installed. A state of the same kind is
// overwritten in place, so a node Init pointed into a Slab stays there.
func RestoreExt(n *node.Node, st ExtState) error {
	switch st.Kind {
	case ExtNone:
		n.Ext = nil
		return nil
	case ExtImmunity:
		is, ok := n.Ext.(*immunityState)
		if !ok {
			is = newImmunityState()
		}
		is.reset()
		// One Add per wire ID, never adopting st.IDs as the list: the
		// set's lookups binary-search, so unsorted or duplicated input
		// must be sorted on the way in, and a decoded frame's storage
		// must not alias live state.
		for _, id := range st.IDs {
			is.ilist.Add(id)
		}
		n.Ext = is
		return nil
	case ExtCumulative:
		cs, ok := n.Ext.(*cumState)
		if !ok {
			cs = new(cumState)
		}
		*cs = cumState{flows: cs.flows[:0]}
		// A zero count or an empty set is no entry, as Snapshot writes
		// none; the tables insert in flow order whatever the wire order.
		for _, fc := range st.Acks {
			if fc.N != 0 {
				cs.table(wireFlow(fc.Src, fc.Dst)).ack = fc.N
			}
		}
		for _, fc := range st.Base {
			if fc.N != 0 {
				cs.table(wireFlow(fc.Src, fc.Dst)).base = fc.N
			}
		}
		for _, fs := range st.Rcvd {
			if len(fs.Seqs) == 0 {
				continue
			}
			t := cs.table(wireFlow(fs.Src, fs.Dst))
			t.seqs = t.seqs[:0]
			for _, s := range fs.Seqs {
				t.receive(s)
			}
		}
		n.Ext = cs
		return nil
	}
	return fmt.Errorf("protocol: unknown Ext state kind %q", st.Kind)
}

func wireFlow(src, dst int) Flow {
	return Flow{Src: contact.NodeID(src), Dst: contact.NodeID(dst)}
}

func compareFlows(a, b Flow) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}
