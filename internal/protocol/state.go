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
// iteration counts (len(acks) prices the cumulative control load) and
// map-key presence (transferTables charges one record per known flow).
// Snapshot therefore preserves entry presence verbatim rather than
// dropping zero values, and encodes map contents in sorted order so
// equal states always snapshot to equal wire forms.

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
		out.Acks = flowCounts(st.acks)
		out.Base = flowCounts(st.base)
		for _, f := range appendSortedFlows(nil, st.rcvd) {
			seqs := make([]int, 0, len(st.rcvd[f]))
			for s := range st.rcvd[f] {
				seqs = append(seqs, s)
			}
			slices.Sort(seqs)
			out.Rcvd = append(out.Rcvd, FlowSeqs{Src: int(f.Src), Dst: int(f.Dst), Seqs: seqs})
		}
		return out, nil
	}
	return ExtState{}, fmt.Errorf("protocol: Ext state %T has no snapshot codec", ext)
}

// RestoreExt reattaches a snapshotted Ext state to n, replacing
// whatever the protocol's Init installed.
func RestoreExt(n *node.Node, st ExtState) error {
	switch st.Kind {
	case ExtNone:
		n.Ext = nil
		return nil
	case ExtImmunity:
		// One Add per wire ID, never adopting st.IDs as the list: the
		// set's lookups binary-search, so unsorted or duplicated input
		// must be sorted on the way in, and a decoded frame's storage
		// must not alias live state.
		is := newImmunityState()
		for _, id := range st.IDs {
			is.ilist.Add(id)
		}
		n.Ext = is
		return nil
	case ExtCumulative:
		cs := &cumState{
			acks: make(map[Flow]int, len(st.Acks)),
			rcvd: make(map[Flow]map[int]bool, len(st.Rcvd)),
			base: make(map[Flow]int, len(st.Base)),
		}
		for _, fc := range st.Acks {
			cs.acks[Flow{Src: contact.NodeID(fc.Src), Dst: contact.NodeID(fc.Dst)}] = fc.N
		}
		for _, fc := range st.Base {
			cs.base[Flow{Src: contact.NodeID(fc.Src), Dst: contact.NodeID(fc.Dst)}] = fc.N
		}
		for _, fs := range st.Rcvd {
			m := make(map[int]bool, len(fs.Seqs))
			for _, s := range fs.Seqs {
				m[s] = true
			}
			cs.rcvd[Flow{Src: contact.NodeID(fs.Src), Dst: contact.NodeID(fs.Dst)}] = m
		}
		n.Ext = cs
		return nil
	}
	return fmt.Errorf("protocol: unknown Ext state kind %q", st.Kind)
}

// flowCounts converts one cumulative table to its sorted wire form,
// preserving every entry — presence is behavior-bearing.
func flowCounts(m map[Flow]int) []FlowCount {
	if len(m) == 0 {
		return nil
	}
	flows := appendSortedFlows(nil, m)
	out := make([]FlowCount, len(flows))
	for i, f := range flows {
		out[i] = FlowCount{Src: int(f.Src), Dst: int(f.Dst), N: m[f]}
	}
	return out
}

// appendSortedFlows appends a flow-keyed table's keys to dst, which
// must be empty, and sorts them by (Src, Dst) — the order
// transferTables sends in, so a truncated budget always sends the same
// flows.
func appendSortedFlows[V any](dst []Flow, m map[Flow]V) []Flow {
	for f := range m {
		dst = append(dst, f)
	}
	slices.SortFunc(dst, compareFlows)
	return dst
}

func compareFlows(a, b Flow) int {
	if c := cmp.Compare(a.Src, b.Src); c != 0 {
		return c
	}
	return cmp.Compare(a.Dst, b.Dst)
}
