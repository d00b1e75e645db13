package protocol

import (
	"fmt"
	"math/rand/v2"
	"reflect"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// referenceExchange is Immunity.Exchange as it was before the transfer
// became a merge and the purge grew a memo: one Add per transmitted
// record, and a full store scan on every session. It returns the
// records both directions carried. The property test below holds the
// shipped Exchange to it.
func referenceExchange(im *Immunity, a, b *node.Node, now sim.Time, budget int) int {
	transfer := func(from, to *node.Node) int {
		sent := 0
		ilistOf(from).Range(func(id bundle.ID) bool {
			if sent >= budget {
				return false
			}
			sent++
			ilistOf(to).Add(id)
			return true
		})
		return sent
	}
	purge := func(n *node.Node) {
		il := ilistOf(n)
		n.Store.PurgeMatching(func(cp *bundle.Copy) bool { return il.Has(cp.Bundle.ID) },
			func(id bundle.ID) { n.NoteDrop(id, node.DropPurged, now) })
	}
	sent := transfer(a, b) + transfer(b, a)
	purge(a)
	purge(b)
	im.refreshControlLoad(a)
	im.refreshControlLoad(b)
	return sent
}

// memoWorld is two nodes under one Immunity instance plus the drop
// events their hooks saw and the control records their exchanges
// returned.
type memoWorld struct {
	im      *Immunity
	nodes   [2]*node.Node
	drops   []string
	records int
}

func newMemoWorld() *memoWorld {
	w := &memoWorld{im: NewImmunity()}
	var slab Slab
	slab.Size(len(w.nodes))
	for i := range w.nodes {
		n := node.New(contact.NodeID(i), 6)
		w.im.Init(n, &slab)
		n.DropHook = func(at contact.NodeID, id bundle.ID, reason node.DropReason, now sim.Time) {
			w.drops = append(w.drops, fmt.Sprintf("%d %v %s %v", at, id, reason, now))
		}
		w.nodes[i] = n
	}
	return w
}

// observable is everything a run can see of one node's immunity state.
type observable struct {
	Stored, IList []bundle.ID
	ControlLoad   float64
}

func (w *memoWorld) observe() (out [2]observable) {
	for i, n := range w.nodes {
		out[i] = observable{
			Stored:      n.Store.AppendIDs(nil),
			IList:       ilistOf(n).Items(),
			ControlLoad: n.Store.ControlLoad(),
		}
	}
	return out
}

// TestPurgeMemoMatchesAlwaysScan drives two worlds through the same
// random Puts — copies whose ID the node's own i-list already holds
// included, the pq:…,anti case a "purge only when the list grew"
// shortcut gets wrong — Removes, OnDelivereds and budgeted Exchanges.
// One world runs the shipped Exchange (merge + memoized purge, with
// its Ext state round-tripped through the wire codec now and then so
// the memo restarts unknown); the other runs referenceExchange. Stores,
// i-lists, control loads, the records the exchanges returned and the
// drop-hook sequence must agree after every step.
func TestPurgeMemoMatchesAlwaysScan(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		r := rand.New(rand.NewPCG(seed, 2012))
		memo, ref := newMemoWorld(), newMemoWorld()
		skipped := 0
		for step := 0; step < 400; step++ {
			now := sim.Time(step)
			i := r.IntN(2)
			id := bundle.ID{Src: contact.NodeID(r.IntN(2)), Seq: r.IntN(8)}
			op := r.IntN(10)
			budget := [...]int{0, 1, 3, 1 << 30}[r.IntN(4)]
			for _, w := range []*memoWorld{memo, ref} {
				n, peer := w.nodes[i], w.nodes[1-i]
				switch op {
				case 0, 1, 2:
					cp := &bundle.Copy{Bundle: &bundle.Bundle{ID: id, Dst: 9}, Expiry: sim.Infinity}
					_ = n.Store.Put(cp) // refusals must agree too: observed below
				case 3:
					n.Store.Remove(id)
				case 4:
					w.im.OnDelivered(n, peer, id, now)
				case 5:
					if w == memo {
						st, err := SnapshotExt(n.Ext)
						if err != nil {
							t.Fatal(err)
						}
						if err := RestoreExt(n, st); err != nil {
							t.Fatal(err)
						}
					}
				default:
					if w == ref {
						w.records += referenceExchange(w.im, n, peer, now, budget)
						continue
					}
					// The scan is skipped exactly when the memo stood
					// before the session and the session taught n nothing.
					st := n.Ext.(*immunityState)
					stood := st.purgedLen == st.ilist.Len() && st.purgedPuts == n.Store.Puts()
					w.records += w.im.Exchange(n, peer, now, budget)
					if stood && st.purgedLen == st.ilist.Len() {
						skipped++
					}
				}
			}
			if got, want := memo.observe(), ref.observe(); !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d step %d (op %d): memoized\n%+v\nalways-scan\n%+v", seed, step, op, got, want)
			}
			if memo.records != ref.records {
				t.Fatalf("seed %d step %d (op %d): memoized exchanges carried %d records, always-scan %d",
					seed, step, op, memo.records, ref.records)
			}
			if !reflect.DeepEqual(memo.drops, ref.drops) {
				t.Fatalf("seed %d step %d (op %d): drop hooks diverged\nmemoized    %v\nalways-scan %v",
					seed, step, op, memo.drops, ref.drops)
			}
		}
		if skipped == 0 {
			t.Errorf("seed %d: no exchange left the memo standing; the test never exercised a skipped scan", seed)
		}
	}
}
