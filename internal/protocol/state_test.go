package protocol

import (
	"reflect"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/node"
)

// TestSnapshotExtRoundTrip pins the Ext codec's exactness contract:
// restore(snapshot(x)) reproduces x structurally, and snapshotting the
// restored state yields the identical wire form (the canonical-form
// fixed point the frame codec's byte-identity rests on).
func TestSnapshotExtRoundTrip(t *testing.T) {
	im := newImmunityState()
	im.ilist.Add(bundle.ID{Src: 3, Seq: 2})
	im.ilist.Add(bundle.ID{Src: 1, Seq: 9})
	cases := []struct {
		name string
		ext  any
	}{
		{"none", nil},
		{"immunity", im},
		{"immunity-empty", newImmunityState()},
		{"cum", &cumState{flows: []flowTable{
			{flow: Flow{Src: 0, Dst: 7}, ack: 3, base: 1, seqs: []int{4, 6}},
			{flow: Flow{Src: 2, Dst: 1}, ack: 5},
		}}},
		{"cum-empty", &cumState{}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, err := SnapshotExt(tc.ext)
			if err != nil {
				t.Fatalf("SnapshotExt: %v", err)
			}
			n := node.New(0, 10)
			if err := RestoreExt(n, st); err != nil {
				t.Fatalf("RestoreExt: %v", err)
			}
			if !reflect.DeepEqual(n.Ext, tc.ext) {
				t.Errorf("restored Ext = %#v, want %#v", n.Ext, tc.ext)
			}
			again, err := SnapshotExt(n.Ext)
			if err != nil {
				t.Fatalf("re-snapshot: %v", err)
			}
			if !reflect.DeepEqual(again, st) {
				t.Errorf("re-snapshot = %#v, want %#v", again, st)
			}
		})
	}
}

// TestRestoreExtHostileIDs: the i-list's lookups binary-search, so an
// ID list that arrives reversed and duplicated must restore to the same
// set as the sorted one — never be adopted as a mis-ordered slice — and
// the restored list must not alias the wire storage. The purge memo is
// not wire state: a warm one restores as unknown, so the first purge
// after a restore scans.
func TestRestoreExtHostileIDs(t *testing.T) {
	sorted := []bundle.ID{{Src: 0, Seq: 4}, {Src: 1, Seq: 2}, {Src: 1, Seq: 9}, {Src: 3, Seq: 1}}
	hostile := []bundle.ID{sorted[3], sorted[2], sorted[2], sorted[1], sorted[0], sorted[3], sorted[0]}
	want, got := node.New(0, 10), node.New(1, 10)
	if err := RestoreExt(want, ExtState{Kind: ExtImmunity, IDs: sorted}); err != nil {
		t.Fatal(err)
	}
	if err := RestoreExt(got, ExtState{Kind: ExtImmunity, IDs: hostile}); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.Ext, want.Ext) {
		t.Fatalf("hostile IDs restored to %v, want %v", ilistOf(got).Items(), ilistOf(want).Items())
	}
	for _, id := range sorted {
		if !ilistOf(got).Has(id) {
			t.Errorf("restored list lost %v", id)
		}
	}
	hostile[0] = bundle.ID{Src: 9, Seq: 9}
	ilistOf(got).Add(bundle.ID{Src: 0, Seq: 1})
	if ilistOf(got).Has(hostile[0]) || sorted[0] != (bundle.ID{Src: 0, Seq: 4}) {
		t.Error("restored list aliases the wire slice")
	}

	warm := newImmunityState()
	warm.purgedLen, warm.purgedPuts = 0, 7
	st, err := SnapshotExt(warm)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreExt(got, st); err != nil {
		t.Fatal(err)
	}
	if memo := got.Ext.(*immunityState); memo.purgedLen >= 0 {
		t.Errorf("restored purge memo = (%d, %d), want unknown", memo.purgedLen, memo.purgedPuts)
	}
}

// TestSnapshotExtUnknown rejects Ext types without a codec rather than
// silently dropping state across the process boundary.
func TestSnapshotExtUnknown(t *testing.T) {
	if _, err := SnapshotExt(42); err == nil {
		t.Fatal("SnapshotExt(int) succeeded; want error")
	}
	n := node.New(0, 10)
	if err := RestoreExt(n, ExtState{Kind: "martian"}); err == nil {
		t.Fatal("RestoreExt(unknown kind) succeeded; want error")
	}
}
