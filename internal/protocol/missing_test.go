package protocol

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// referenceMissing is the anti-entropy diff as a per-copy filter: it
// walks the sender's slots and asks, for every stored copy, whether
// the receiver stores or received it, reading both receiver sets
// through their in-order walks rather than their indexes. missing's
// masked page walk must return exactly this, shuffle draws included.
func referenceMissing(sender, receiver *node.Node, rng *sim.RNG) []bundle.ID {
	has := map[bundle.ID]bool{}
	receiver.Store.Range(func(cp *bundle.Copy) bool { has[cp.Bundle.ID] = true; return true })
	receiver.Received.Range(func(id bundle.ID) bool { has[id] = true; return true })
	var direct, relay []bundle.ID
	sender.Store.Range(func(cp *bundle.Copy) bool {
		switch id := cp.Bundle.ID; {
		case has[id]:
		case cp.Bundle.Dst == receiver.ID:
			direct = append(direct, id)
		default:
			relay = append(relay, id)
		}
		return true
	})
	if rng != nil {
		rng.Shuffle(len(relay), func(i, j int) { relay[i], relay[j] = relay[j], relay[i] })
	}
	return append(direct, relay...)
}

// rebuilt returns n as a distributed worker reconstructs it between
// epochs: a fresh node whose store is grown once and refilled through
// Restore, whose received set is refilled in order, and whose protocol
// state crosses the wire codec.
func rebuilt(t *testing.T, p Protocol, n *node.Node, nodes int) *node.Node {
	t.Helper()
	m := node.New(n.ID, n.Store.Cap())
	s := new(Slab)
	s.Size(nodes)
	p.Init(m, s)
	m.Store.Grow(n.Store.Len())
	n.Store.Range(func(cp *bundle.Copy) bool {
		if err := m.Store.Restore(cp); err != nil {
			t.Fatal(err)
		}
		return true
	})
	n.Received.Range(func(id bundle.ID) bool { m.Received.Add(id); return true })
	st, err := SnapshotExt(n.Ext)
	if err != nil {
		t.Fatal(err)
	}
	if err := RestoreExt(m, st); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestMissingMatchesPerCopyFilter holds missing to referenceMissing
// under every builtin protocol and pq's anti-packet channel, on two
// substrates: the live nodes of a small population driven through
// generations, exchanges, transfers, deliveries and expiries, and the
// same nodes rebuilt as a distributed worker rebuilds them (Grow + Restore, received sets and protocol
// state replayed). Sequence numbers start just below a page edge and
// two flows share each source, so stores, received sets and i-lists
// span several pages and sources. An i-list's kept count must equal
// its set's size throughout.
func TestMissingMatchesPerCopyFilter(t *testing.T) {
	const nodes = 5
	for _, specStr := range append(BuiltinSpecs(), "pq:p=0.8,q=0.5,anti") {
		t.Run(specStr, func(t *testing.T) {
			f, err := Parse(specStr)
			if err != nil {
				t.Fatal(err)
			}
			for seed := uint64(1); seed <= 12; seed++ {
				p := f.New()
				r := rand.New(rand.NewPCG(seed, 49))
				pop := node.NewPopulation(nil, nodes, 6)
				slab := new(Slab)
				slab.Size(nodes)
				for _, n := range pop {
					p.Init(n, slab)
				}
				next := map[contact.NodeID]int{}
				var sc Scratch
				compared := 0
				for step := 0; step < 300; step++ {
					now := sim.Time(step * 10)
					switch r.IntN(6) {
					case 0: // a source generates a bundle of one of its two flows
						src := pop[r.IntN(nodes)]
						dst := contact.NodeID((int(src.ID) + 1 + r.IntN(2)) % nodes)
						seq := 61 + next[src.ID]
						next[src.ID]++
						if dst != (src.ID+1)%nodes {
							seq += 1000 // the second flow's block
						}
						cp := &bundle.Copy{
							Bundle: &bundle.Bundle{ID: bundle.ID{Src: src.ID, Seq: seq}, Dst: dst, CreatedAt: now},
							Expiry: sim.Infinity, StoredAt: now, Pinned: true,
						}
						p.OnGenerate(src, cp, now)
						if err := src.Store.Put(cp); err != nil {
							t.Fatal(err)
						}
					case 1:
						pop[r.IntN(nodes)].PurgeExpired(now)
					default: // a contact
						i := r.IntN(nodes)
						j := (i + 1 + r.IntN(nodes-1)) % nodes
						a, b := pop[min(i, j)], pop[max(i, j)]
						p.Exchange(a, b, now, 1+r.IntN(4))
						for _, dir := range [][2]*node.Node{{a, b}, {b, a}} {
							s, rc := dir[0], dir[1]
							draw := r.Uint64()
							want := referenceMissing(s, rc, sim.NewRNG(draw))
							for k, pair := range [][2]*node.Node{{s, rc}, {rebuilt(t, p, s, nodes), rebuilt(t, p, rc, nodes)}} {
								if got := missing(pair[0], pair[1], sim.NewRNG(draw), &sc); !slices.Equal(got, want) {
									t.Fatalf("seed %d step %d substrate %d: missing(%d, %d) = %v, want %v",
										seed, step, k, s.ID, rc.ID, got, want)
								}
							}
							compared += len(want)
							transfer(p, s, rc, now, r.IntN(4), &sc)
						}
						for _, n := range pop {
							if st, ok := n.Ext.(*immunityState); ok && st.ilist.Len() != st.ilist.ids.Len() {
								t.Fatalf("seed %d step %d: node %d's i-list counts %d records, holds %d",
									seed, step, n.ID, st.ilist.Len(), st.ilist.ids.Len())
							}
						}
					}
				}
				if compared == 0 {
					t.Fatalf("seed %d: every diff was empty", seed)
				}
			}
		})
	}
}

// transfer sends up to slots of sender's offers to receiver the way
// the engine's kernel does: a delivery to the destination, otherwise
// Admit and a Put.
func transfer(p Protocol, sender, receiver *node.Node, now sim.Time, slots int, sc *Scratch) {
	for _, id := range p.Wants(sender, receiver, now, sim.NewRNG(uint64(now)), sc) {
		if slots == 0 {
			return
		}
		cp := sender.Store.Get(id)
		if cp == nil || receiver.Store.Has(id) || receiver.Received.Has(id) {
			continue
		}
		slots--
		rcpt := &bundle.Copy{Bundle: cp.Bundle, EC: cp.EC, Expiry: cp.Expiry, StoredAt: now}
		if cp.Bundle.Dst == receiver.ID {
			p.OnTransmit(sender, receiver, cp, rcpt, now)
			receiver.Received.Add(id)
			p.OnDelivered(receiver, sender, id, now)
			continue
		}
		if p.Admit(receiver, rcpt, now) {
			p.OnTransmit(sender, receiver, cp, rcpt, now)
			if err := receiver.Store.Put(rcpt); err != nil {
				panic(fmt.Sprintf("admit promised room for %v: %v", id, err))
			}
		}
	}
}
