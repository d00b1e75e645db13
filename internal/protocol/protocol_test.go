package protocol

import (
	"math"
	"slices"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/node"
	"dtnsim/internal/sim"
)

// mkNode returns an initialized node for protocol p, its state in a
// slab of its own.
func mkNode(p Protocol, id contact.NodeID, cap int) *node.Node {
	n := node.New(id, cap)
	s := new(Slab)
	s.Size(int(id) + 1)
	p.Init(n, s)
	return n
}

// countDrops points n's drop hook at a tally of its drops by reason.
func countDrops(n *node.Node) map[node.DropReason]int64 {
	drops := map[node.DropReason]int64{}
	n.DropHook = func(_ contact.NodeID, _ bundle.ID, reason node.DropReason, _ sim.Time) { drops[reason]++ }
	return drops
}

// tableOf returns a copy of n's cumulative table for f, the zero table
// when n has none.
func tableOf(n *node.Node, f Flow) flowTable {
	st := cumOf(n)
	if i, ok := st.search(f); ok {
		return st.flows[i]
	}
	return flowTable{}
}

// give stores a copy of bundle (src:seq)->dst at n with the given EC
// and returns the stored copy, valid until n's store next mutates.
func give(t *testing.T, n *node.Node, src contact.NodeID, seq int, dst contact.NodeID, ec int) *bundle.Copy {
	t.Helper()
	cp := &bundle.Copy{
		Bundle: &bundle.Bundle{ID: bundle.ID{Src: src, Seq: seq}, Dst: dst},
		EC:     ec,
		Expiry: sim.Infinity,
	}
	if err := n.Store.Put(cp); err != nil {
		t.Fatalf("give %d:%d to node %d: %v", src, seq, n.ID, err)
	}
	return n.Store.Get(cp.Bundle.ID)
}

// relayCopy is the receiver-bound copy the engine fills for one
// transmission of cp arriving at time at: same Bundle, EC and Expiry,
// stamped with the arrival time, never pinned.
func relayCopy(cp *bundle.Copy, at sim.Time) *bundle.Copy {
	return &bundle.Copy{Bundle: cp.Bundle, EC: cp.EC, Expiry: cp.Expiry, StoredAt: at}
}

func seqs(ids []bundle.ID) []int {
	out := make([]int, len(ids))
	for i, id := range ids {
		out[i] = id.Seq
	}
	return out
}

func wantSeqs(t *testing.T, got []bundle.ID, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want seqs %v", got, want)
	}
	for i, id := range got {
		if id.Seq != want[i] {
			t.Fatalf("got seqs %v, want %v", seqs(got), want)
		}
	}
}

// wantSeqSet compares ignoring order: relay offers are intentionally
// randomized (see missing).
func wantSeqSet(t *testing.T, got []bundle.ID, want ...int) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %v, want seqs %v", got, want)
	}
	gs := make(map[int]int)
	for _, id := range got {
		gs[id.Seq]++
	}
	for _, w := range want {
		if gs[w] == 0 {
			t.Fatalf("got seqs %v, want set %v", seqs(got), want)
		}
		gs[w]--
	}
}

// --- Pure epidemic -------------------------------------------------------

// TestPureFig2 encodes the paper's Fig. 2: A{1,2,3,4,8} and B{0,2,3,4,9}
// exchange exactly the bundles the other is missing.
func TestPureFig2(t *testing.T) {
	p := NewPure()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for _, s := range []int{1, 2, 3, 4, 8} {
		give(t, a, 5, s, 6, 0)
	}
	for _, s := range []int{0, 2, 3, 4, 9} {
		give(t, b, 5, s, 6, 0)
	}
	wantSeqSet(t, p.Wants(a, b, 0, sim.NewRNG(1), new(Scratch)), 1, 8)
	wantSeqSet(t, p.Wants(b, a, 0, sim.NewRNG(1), new(Scratch)), 0, 9)
}

func TestPureWantsSkipsDeliveredAtDestination(t *testing.T) {
	p := NewPure()
	a := mkNode(p, 0, 10)
	dst := mkNode(p, 1, 10)
	give(t, a, 0, 1, 1, 0)
	give(t, a, 0, 2, 1, 0)
	dst.Received.Add(bundle.ID{Src: 0, Seq: 1}) // already consumed
	wantSeqs(t, p.Wants(a, dst, 0, sim.NewRNG(1), new(Scratch)), 2)
}

func TestPureAdmitDropTail(t *testing.T) {
	p := NewPure()
	n := mkNode(p, 0, 2)
	drops := countDrops(n)
	give(t, n, 9, 1, 1, 0)
	give(t, n, 9, 2, 1, 0)
	in := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 3}, Dst: 1}}
	if p.Admit(n, in, 0) {
		t.Fatal("full pure-epidemic buffer admitted a bundle")
	}
	if drops[node.DropRefused] != 1 {
		t.Errorf("Refused = %d, want 1", drops[node.DropRefused])
	}
	if n.Store.Len() != 2 {
		t.Error("admit mutated the store")
	}
}

func TestPureWantsDestinationTrafficFirst(t *testing.T) {
	// Bundles addressed to the encountered peer precede relay traffic,
	// in arrival order; relay traffic follows in randomized order.
	p := NewPure()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for s := 1; s <= 5; s++ {
		give(t, a, 5, s, 6, 0) // relay traffic for node 6
	}
	own2 := give(t, a, 5, 12, 1, 0) // b's own traffic, arrived later
	own2.StoredAt = 50
	own1 := give(t, a, 5, 11, 1, 0)
	own1.StoredAt = 10
	got := p.Wants(a, b, 600, sim.NewRNG(1), new(Scratch))
	if len(got) != 7 {
		t.Fatalf("offered %v", got)
	}
	if got[0].Seq != 11 || got[1].Seq != 12 {
		t.Fatalf("destination traffic not first in arrival order: %v", seqs(got))
	}
	wantSeqSet(t, got[2:], 1, 2, 3, 4, 5)
}

func TestPureWantsShuffleIsSeedDeterministic(t *testing.T) {
	p := NewPure()
	a := mkNode(p, 0, 30)
	b := mkNode(p, 1, 30)
	for s := 1; s <= 20; s++ {
		give(t, a, 5, s, 6, 0)
	}
	// Wants returns scratch-backed slices valid only until the next
	// call on the same sender, so each offer must be snapshotted.
	x := append([]bundle.ID(nil), p.Wants(a, b, 0, sim.NewRNG(7), new(Scratch))...)
	y := append([]bundle.ID(nil), p.Wants(a, b, 0, sim.NewRNG(7), new(Scratch))...)
	for i := range x {
		if x[i] != y[i] {
			t.Fatal("same RNG seed produced different offer orders")
		}
	}
	z := append([]bundle.ID(nil), p.Wants(a, b, 0, sim.NewRNG(8), new(Scratch))...)
	same := true
	for i := range x {
		if x[i] != z[i] {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical orders for 20 bundles")
	}
}

// --- P-Q epidemic --------------------------------------------------------

func TestPQDegeneratesToPureAtOne(t *testing.T) {
	p := NewPQ(1, 1)
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for s := 1; s <= 5; s++ {
		give(t, a, 0, s, 6, 0)
	}
	wantSeqSet(t, p.Wants(a, b, 0, sim.NewRNG(1), new(Scratch)), 1, 2, 3, 4, 5)
}

func TestPQZeroSendsNothing(t *testing.T) {
	p := NewPQ(0, 0)
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for s := 1; s <= 5; s++ {
		give(t, a, 0, s, 6, 0)
	}
	if got := p.Wants(a, b, 0, sim.NewRNG(1), new(Scratch)); len(got) != 0 {
		t.Fatalf("P=Q=0 offered %v", got)
	}
}

func TestPQSourceUsesPRelaysUseQ(t *testing.T) {
	// P=1, Q=0: node 0 offers only bundles it originated.
	p := NewPQ(1, 0)
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	give(t, a, 0, 1, 6, 0) // own bundle
	give(t, a, 7, 2, 6, 0) // carried for node 7
	got := p.Wants(a, b, 0, sim.NewRNG(1), new(Scratch))
	if len(got) != 1 || got[0].Src != 0 {
		t.Fatalf("P=1,Q=0 offered %v, want only own bundle", got)
	}
}

func TestPQProbabilityRoughlyHonoured(t *testing.T) {
	p := NewPQ(0.5, 0.5)
	a := mkNode(p, 0, 200)
	b := mkNode(p, 1, 200)
	for s := 1; s <= 100; s++ {
		give(t, a, 0, s, 6, 0)
	}
	rng := sim.NewRNG(42)
	total := 0
	const draws = 50
	for i := 0; i < draws; i++ {
		total += len(p.Wants(a, b, 0, rng, new(Scratch)))
	}
	mean := float64(total) / draws
	if mean < 40 || mean > 60 {
		t.Errorf("P=0.5 offered %.1f/100 bundles on average", mean)
	}
}

func TestPQRejectsBadProbabilities(t *testing.T) {
	for _, pq := range [][2]float64{{-0.1, 0.5}, {0.5, 1.5}} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NewPQ(%v,%v) did not panic", pq[0], pq[1])
				}
			}()
			NewPQ(pq[0], pq[1])
		}()
	}
}

// --- Constant TTL --------------------------------------------------------

func TestTTLReceiverGetsCountdownSourceDoesNot(t *testing.T) {
	p := NewTTL(300)
	src := mkNode(p, 0, 10)
	cp := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: 1}, Dst: 5}, Pinned: true}
	p.OnGenerate(src, cp, 0)
	if cp.Expiry != sim.Infinity {
		t.Fatal("source copy given a countdown")
	}
	rcpt := relayCopy(cp, 1000)
	p.OnTransmit(src, nil, cp, rcpt, 1000)
	if rcpt.Expiry != 1300 {
		t.Errorf("receiver expiry = %v, want 1300", rcpt.Expiry)
	}
	if cp.Expiry != sim.Infinity {
		t.Error("pinned sender copy must not start a countdown")
	}
}

// TestTTLFig6 encodes the paper's Fig. 6: bundles stored at relays are
// removed once the TTL elapses without a forward (t=50s example).
func TestTTLFig6ExpiryAtRelay(t *testing.T) {
	p := NewTTL(50)
	relayA := mkNode(p, 0, 10)
	relayB := mkNode(p, 1, 10)
	dropsA, dropsB := countDrops(relayA), countDrops(relayB)
	sent := give(t, relayA, 9, 1, 5, 0)
	rcpt := relayCopy(sent, 0)
	p.OnTransmit(relayA, relayB, sent, rcpt, 0)
	if err := relayB.Store.Put(rcpt); err != nil {
		t.Fatal(err)
	}
	// Sender's (unpinned) copy is renewed too.
	if sent.Expiry != 50 || rcpt.Expiry != 50 {
		t.Fatalf("expiries = %v, %v, want 50, 50", sent.Expiry, rcpt.Expiry)
	}
	relayA.PurgeExpired(50)
	relayB.PurgeExpired(50)
	if relayA.Store.Len() != 0 || relayB.Store.Len() != 0 {
		t.Error("copies survived past their TTL")
	}
	if dropsA[node.DropExpired] != 1 || dropsB[node.DropExpired] != 1 {
		t.Error("expiry not accounted")
	}
}

func TestTTLRenewalOnForward(t *testing.T) {
	p := NewTTL(100)
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	cp := give(t, a, 9, 1, 5, 0)
	cp.Expiry = 80 // about to lapse
	rcpt := relayCopy(cp, 60)
	p.OnTransmit(a, b, cp, rcpt, 60)
	if cp.Expiry != 160 {
		t.Errorf("sender renewal: expiry = %v, want 160", cp.Expiry)
	}
}

func TestTTLPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewTTL(0) did not panic")
		}
	}()
	NewTTL(0)
}

// --- Dynamic TTL (Algorithm 1) -------------------------------------------

func TestDynamicTTLUsesReceiverInterval(t *testing.T) {
	p := NewDynamicTTL()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	// Algorithm 1: TTL = 2 × interval between the node's last two
	// encounters.
	b.ObserveEncounter(1000)
	b.ObserveEncounter(1400) // interval 400
	a.ObserveEncounter(0)
	a.ObserveEncounter(3000) // interval 3000
	cp := give(t, a, 9, 1, 5, 0)
	rcpt := relayCopy(cp, 1400)
	p.OnTransmit(a, b, cp, rcpt, 1400)
	if rcpt.Expiry != 1400+800 {
		t.Errorf("receiver expiry = %v, want 2200 (2×400)", rcpt.Expiry)
	}
	if cp.Expiry != 1400+6000 {
		t.Errorf("sender expiry = %v, want 7400 (2×3000)", cp.Expiry)
	}
}

func TestDynamicTTLNoHistoryMeansNoDeadline(t *testing.T) {
	p := NewDynamicTTL()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10) // never encountered anyone before
	cp := give(t, a, 9, 1, 5, 0)
	rcpt := relayCopy(cp, 100)
	p.OnTransmit(a, b, cp, rcpt, 100)
	if rcpt.Expiry != sim.Infinity {
		t.Errorf("no-history receiver expiry = %v, want Infinity", rcpt.Expiry)
	}
}

func TestDynamicTTLLongerIntervalLongerTTL(t *testing.T) {
	p := NewDynamicTTL()
	sparse := mkNode(p, 1, 10)
	sparse.ObserveEncounter(0)
	sparse.ObserveEncounter(2000)
	dense := mkNode(p, 2, 10)
	dense.ObserveEncounter(0)
	dense.ObserveEncounter(400)
	a := mkNode(p, 0, 10)
	cp := give(t, a, 9, 1, 5, 0)
	r1 := relayCopy(cp, 2000)
	p.OnTransmit(a, sparse, cp, r1, 2000)
	r2 := relayCopy(cp, 2000)
	p.OnTransmit(a, dense, cp, r2, 2000)
	if !(r1.Expiry > r2.Expiry) {
		t.Errorf("sparse-node TTL (%v) not longer than dense-node TTL (%v)", r1.Expiry, r2.Expiry)
	}
}

// --- EC (Fig. 5) ----------------------------------------------------------

// TestECFig5Increment encodes Fig. 5's counter rule: bundles with EC
// 3,2,6 arrive with EC 4,3,7.
func TestECFig5Increment(t *testing.T) {
	p := NewEC()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for _, tc := range []struct{ seq, ec, want int }{{4, 3, 4}, {8, 2, 3}, {9, 6, 7}} {
		cp := give(t, a, 9, tc.seq, 5, tc.ec)
		rcpt := relayCopy(cp, 0)
		p.OnTransmit(a, b, cp, rcpt, 0)
		if rcpt.EC != tc.want {
			t.Errorf("seq %d: receiver EC = %d, want %d", tc.seq, rcpt.EC, tc.want)
		}
		if cp.EC != tc.want {
			t.Errorf("seq %d: sender EC = %d, want %d (incremented)", tc.seq, cp.EC, tc.want)
		}
	}
}

// TestECFig5Eviction: a full buffer evicts its highest-EC copies to admit
// never-seen bundles (undelivered bundles take priority).
func TestECFig5Eviction(t *testing.T) {
	p := NewEC()
	b := mkNode(p, 1, 5)
	drops := countDrops(b)
	// Node B's buffer: bundles with EC values; 3 and 6 carry the highest.
	ecs := map[int]int{1: 1, 2: 2, 3: 9, 5: 3, 6: 8}
	for seq, ec := range ecs {
		give(t, b, 9, seq, 5, ec)
	}
	in1 := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 8}, Dst: 5}, EC: 3}
	if !p.Admit(b, in1, 0) {
		t.Fatal("EC refused a never-seen bundle")
	}
	if b.Store.Has(bundle.ID{Src: 9, Seq: 3}) {
		t.Error("highest-EC bundle (seq 3, EC 9) not evicted first")
	}
	if err := b.Store.Put(in1); err != nil {
		t.Fatal(err)
	}
	in2 := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 10}, Dst: 5}, EC: 7}
	if !p.Admit(b, in2, 0) {
		t.Fatal("EC refused the second bundle")
	}
	if b.Store.Has(bundle.ID{Src: 9, Seq: 6}) {
		t.Error("second-highest EC bundle (seq 6, EC 8) not evicted next")
	}
	if drops[node.DropEvicted] != 2 {
		t.Errorf("Evicted = %d, want 2", drops[node.DropEvicted])
	}
}

func TestECNeverEvictsPinned(t *testing.T) {
	p := NewEC()
	n := mkNode(p, 0, 2)
	pinned := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 0, Seq: 1}, Dst: 5}, EC: 99, Pinned: true, Expiry: sim.Infinity}
	if err := n.Store.Put(pinned); err != nil {
		t.Fatal(err)
	}
	give(t, n, 9, 2, 5, 1)
	give(t, n, 9, 3, 5, 2)
	in := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 4}, Dst: 5}}
	if !p.Admit(n, in, 0) {
		t.Fatal("refused despite evictable unpinned copies")
	}
	if !n.Store.Has(pinned.Bundle.ID) {
		t.Fatal("pinned copy evicted")
	}
	if n.Store.Has(bundle.ID{Src: 9, Seq: 3}) {
		t.Error("highest-EC unpinned copy survived")
	}
}

func TestECAdmitWhenOnlyPinnedRefuses(t *testing.T) {
	p := NewEC()
	n := mkNode(p, 0, 1)
	// One unpinned slot consumed... fill cap with an unpinned copy that
	// is the only candidate, then pin-only scenario:
	n2 := mkNode(p, 2, 1)
	pinned := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 2, Seq: 1}, Dst: 5}, EC: 5, Pinned: true, Expiry: sim.Infinity}
	if err := n2.Store.Put(pinned); err != nil {
		t.Fatal(err)
	}
	_ = n
	// Buffer has free unpinned capacity (pinned doesn't count), so admit
	// succeeds without eviction.
	in := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 9}, Dst: 5}}
	if !p.Admit(n2, in, 0) {
		t.Fatal("pinned copies must not block free unpinned capacity")
	}
}

// --- EC+TTL (Algorithm 2) --------------------------------------------------

func TestECTTLAlgorithm2Deadline(t *testing.T) {
	p := NewECTTL()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	// EC ends at 8 after transmit: at or below threshold, no deadline.
	cp := give(t, a, 9, 1, 5, 7)
	rcpt := relayCopy(cp, 0)
	p.OnTransmit(a, b, cp, rcpt, 0)
	if rcpt.EC != 8 || rcpt.Expiry != sim.Infinity {
		t.Errorf("EC=8: expiry = %v, want Infinity", rcpt.Expiry)
	}
	// EC 9 : TTL = 300 - (9-8)*100 = 200.
	cp2 := give(t, a, 9, 2, 5, 8)
	r2 := relayCopy(cp2, 1000)
	p.OnTransmit(a, b, cp2, r2, 1000)
	if r2.EC != 9 || r2.Expiry != 1200 {
		t.Errorf("EC=9: expiry = %v, want 1200", r2.Expiry)
	}
	// EC 11 : TTL = 300 - 300 = 0 → immediate expiry.
	cp3 := give(t, a, 9, 3, 5, 10)
	r3 := relayCopy(cp3, 2000)
	p.OnTransmit(a, b, cp3, r3, 2000)
	if r3.EC != 11 || r3.Expiry != 2000 {
		t.Errorf("EC=11: expiry = %v, want 2000 (immediate)", r3.Expiry)
	}
	// EC 13 : TTL would be negative → still immediate, never in the past.
	cp4 := give(t, a, 9, 4, 5, 12)
	r4 := relayCopy(cp4, 3000)
	p.OnTransmit(a, b, cp4, r4, 3000)
	if r4.Expiry != 3000 {
		t.Errorf("EC=13: expiry = %v, want 3000", r4.Expiry)
	}
}

func TestECTTLMinECGuardsEviction(t *testing.T) {
	p := NewECTTL() // MinEC = 2
	n := mkNode(p, 1, 2)
	drops := countDrops(n)
	give(t, n, 9, 1, 5, 0) // never transmitted: protected
	give(t, n, 9, 2, 5, 1) // below MinEC: protected
	in := &bundle.Copy{Bundle: &bundle.Bundle{ID: bundle.ID{Src: 9, Seq: 3}, Dst: 5}}
	if p.Admit(n, in, 0) {
		t.Fatal("evicted a copy below the MinEC threshold")
	}
	if drops[node.DropRefused] != 1 {
		t.Errorf("Refused = %d", drops[node.DropRefused])
	}
	// Raise one copy to MinEC: now evictable.
	n.Store.Get(bundle.ID{Src: 9, Seq: 2}).EC = 2
	if !p.Admit(n, in, 0) {
		t.Fatal("refused despite an eligible victim")
	}
	if n.Store.Has(bundle.ID{Src: 9, Seq: 2}) {
		t.Error("eligible victim survived")
	}
}

// --- Immunity --------------------------------------------------------------

// TestImmunityFig3 encodes Fig. 3: after exchanging anti-packets, node A
// learns bundles 2,3,4 are delivered, purges them, and offers only the
// rest.
func TestImmunityFig3(t *testing.T) {
	p := NewImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for _, s := range []int{2, 3, 4, 8, 9, 0} {
		give(t, a, 7, s, 5, 0)
	}
	// B carries immunity records for 2,3,4.
	for _, s := range []int{2, 3, 4} {
		ilistOf(b).Add(bundle.ID{Src: 7, Seq: s})
	}
	// A's i-list is empty, so B's three records are all the session
	// carries.
	if sent := p.Exchange(a, b, 0, 100); sent != 3 {
		t.Errorf("exchange carried %d records, want B's 3", sent)
	}
	for _, s := range []int{2, 3, 4} {
		if a.Store.Has(bundle.ID{Src: 7, Seq: s}) {
			t.Errorf("delivered bundle %d not purged from A", s)
		}
	}
	wantSeqSet(t, p.Wants(a, b, 0, sim.NewRNG(1), new(Scratch)), 0, 8, 9)
	// A's i-list now prices 3 records of control load.
	if got := a.Store.ControlLoad(); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("A control load = %v, want 0.6", got)
	}
}

func TestImmunityRecordBudgetMetersDissemination(t *testing.T) {
	p := NewImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for s := 1; s <= 50; s++ {
		ilistOf(a).Add(bundle.ID{Src: 7, Seq: s})
	}
	sent := p.Exchange(a, b, 0, 10) // short contact: only 10 records fit
	if got := ilistOf(b).Len(); got != 10 {
		t.Errorf("B learned %d records, want 10 (budget)", got)
	}
	// A sends 10 of its 50, and B resends blind the 10 it just learned.
	if sent != 20 {
		t.Errorf("overhead = %d, want 20 (10 each way)", sent)
	}
}

func TestImmunityOnDeliveredPurgesSender(t *testing.T) {
	p := NewImmunity()
	sender := mkNode(p, 0, 10)
	dst := mkNode(p, 1, 10)
	id := give(t, sender, 7, 1, 1, 0).Bundle.ID
	p.OnDelivered(dst, sender, id, 100)
	if sender.Store.Has(id) {
		t.Error("sender kept a copy it saw delivered")
	}
	if !ilistOf(dst).Has(id) || !ilistOf(sender).Has(id) {
		t.Error("i-lists not updated on delivery")
	}
}

func TestImmunityNeverReaccepts(t *testing.T) {
	p := NewImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	give(t, a, 7, 1, 5, 0)
	ilistOf(b).Add(bundle.ID{Src: 7, Seq: 1})
	if got := p.Wants(a, b, 0, sim.NewRNG(1), new(Scratch)); len(got) != 0 {
		t.Errorf("offered dead bundle: %v", got)
	}
}

// --- Cumulative immunity -----------------------------------------------------

// TestCumulativePrefixSemantics encodes §III: "an immunity table with a
// bundle ID of 30 means the destination node has received bundles 1 to
// 30" — the prefix only advances when gaps fill.
func TestCumulativePrefixSemantics(t *testing.T) {
	p := NewCumulativeImmunity()
	dst := mkNode(p, 1, 10)
	sender := mkNode(p, 0, 10)
	f := Flow{Src: 7, Dst: 1}
	deliver := func(seq int) {
		cp := give(t, sender, 7, seq, 1, 0)
		p.OnDelivered(dst, sender, cp.Bundle.ID, 0)
	}
	deliver(1)
	if cumOf(dst).ackOf(f) != 1 {
		t.Fatalf("ack after seq1 = %d, want 1", cumOf(dst).ackOf(f))
	}
	deliver(3) // gap at 2: prefix must hold at 1
	if cumOf(dst).ackOf(f) != 1 {
		t.Fatalf("ack after out-of-order seq3 = %d, want 1", cumOf(dst).ackOf(f))
	}
	deliver(2) // fills the gap: prefix jumps to 3
	if cumOf(dst).ackOf(f) != 3 {
		t.Fatalf("ack after gap fill = %d, want 3", cumOf(dst).ackOf(f))
	}
}

func TestCumulativeExchangeOneRecordPerFlow(t *testing.T) {
	p := NewCumulativeImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	f := Flow{Src: 7, Dst: 5}
	cumOf(a).table(f).ack = 30
	cumOf(b).table(f).ack = 10
	sent := p.Exchange(a, b, 0, 100)
	if cumOf(b).ackOf(f) != 30 {
		t.Errorf("B's table = %d, want 30", cumOf(b).ackOf(f))
	}
	// One record per side (cumulative): B transmits its (dominated)
	// table blind too — a node cannot know the peer's table without
	// sending its own.
	if sent != 2 {
		t.Errorf("overhead = %d records, want 2 (one each way)", sent)
	}
	if cumOf(a).ackOf(f) != 30 {
		t.Errorf("A's table overwritten by dominated value: %d", cumOf(a).ackOf(f))
	}
	// Redundant-table rule: only the dominant table survives (map holds
	// a single entry per flow).
	if cumOf(b).acked() != 1 {
		t.Errorf("B holds %d tables for one flow", cumOf(b).acked())
	}
}

// TestCumulativeExchangeAllocatesNothing: the tables are kept in flow
// order, so the steady-state transfer walks them as they are, and a
// contact between two nodes that already hold the same three tables
// allocates nothing.
func TestCumulativeExchangeAllocatesNothing(t *testing.T) {
	p := NewCumulativeImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for i, f := range []Flow{{Src: 7, Dst: 5}, {Src: 2, Dst: 9}, {Src: 7, Dst: 1}} {
		cumOf(a).table(f).ack = 10 + i
		cumOf(b).table(f).ack = 20 - i
	}
	if n := testing.AllocsPerRun(100, func() { p.Exchange(a, b, 0, 100) }); n != 0 {
		t.Errorf("Exchange allocated %v objects per contact, want 0", n)
	}
	if sent := p.Exchange(a, b, 0, 100); sent != 6 {
		t.Fatalf("exchange carried %d records, want 6 (three tables each way)", sent)
	}
}

func TestCumulativeExchangePurgesCovered(t *testing.T) {
	p := NewCumulativeImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for s := 1; s <= 6; s++ {
		give(t, a, 7, s, 5, 0)
	}
	cumOf(b).table(Flow{Src: 7, Dst: 5}).ack = 4
	p.Exchange(a, b, 0, 100)
	if got := a.Store.Len(); got != 2 {
		t.Fatalf("A holds %d bundles after exchange, want 2 (5 and 6)", got)
	}
	wantSeqs(t, p.Wants(a, b, 0, sim.NewRNG(1), new(Scratch)), 5, 6)
}

func TestCumulativeWantsSkipsCovered(t *testing.T) {
	p := NewCumulativeImmunity()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	for s := 1; s <= 3; s++ {
		give(t, a, 7, s, 5, 0)
	}
	// B knows the prefix 2 but A has not exchanged yet.
	cumOf(b).table(Flow{Src: 7, Dst: 5}).ack = 2
	wantSeqs(t, p.Wants(a, b, 0, sim.NewRNG(1), new(Scratch)), 3)
}

func TestCumulativeControlLoadIsOneTable(t *testing.T) {
	p := NewCumulativeImmunity()
	dst := mkNode(p, 1, 10)
	sender := mkNode(p, 0, 10)
	for s := 1; s <= 30; s++ {
		cp := give(t, sender, 7, s, 1, 0)
		p.OnDelivered(dst, sender, cp.Bundle.ID, 0)
	}
	// 30 deliveries, but the table is one record per flow.
	if got := dst.Store.ControlLoad(); got != 0.2 {
		t.Errorf("dst control load = %v, want 0.2 (one table)", got)
	}
}

// --- P-Q with anti-packets (§II completeness variant) -----------------------

func TestPQWithAntiPacketsPurges(t *testing.T) {
	p := NewPQ(1, 1).WithAntiPackets()
	a := mkNode(p, 0, 10)
	b := mkNode(p, 1, 10)
	give(t, a, 7, 1, 5, 0)
	ilistOf(b).Add(bundle.ID{Src: 7, Seq: 1})
	p.Exchange(a, b, 0, 100)
	if a.Store.Has(bundle.ID{Src: 7, Seq: 1}) {
		t.Error("anti-packet variant did not purge delivered bundle")
	}
}

func TestProtocolNames(t *testing.T) {
	ps := []Protocol{
		NewPure(), NewPQ(1, 1), NewTTL(300), NewDynamicTTL(),
		NewEC(), NewECTTL(), NewImmunity(), NewCumulativeImmunity(),
		NewPQ(0.5, 0.5).WithAntiPackets(),
	}
	seen := map[string]bool{}
	for _, p := range ps {
		name := p.Name()
		if name == "" || seen[name] {
			t.Errorf("protocol name %q empty or duplicated", name)
		}
		seen[name] = true
	}
}

// TestMissingDirectPrefixOrder pins the satellite fix that deleted the
// redundant re-sort in missing: copies destined to the receiver must
// come first, in ascending (Src, Seq) order, straight off the store's
// sorted index — with and without relay shuffling, and with direct
// bundles from several sources.
func TestMissingDirectPrefixOrder(t *testing.T) {
	p := NewPure()
	a := mkNode(p, 0, 30)
	b := mkNode(p, 1, 30)
	// Receiver-destined bundles from two sources, stored out of order,
	// interleaved with relay traffic to node 6.
	give(t, a, 5, 9, 1, 0)
	give(t, a, 2, 4, 1, 0)
	give(t, a, 5, 2, 6, 0)
	give(t, a, 2, 1, 1, 0)
	give(t, a, 5, 3, 1, 0)
	give(t, a, 9, 7, 6, 0)

	wantDirect := []bundle.ID{
		{Src: 2, Seq: 1}, {Src: 2, Seq: 4}, {Src: 5, Seq: 3}, {Src: 5, Seq: 9},
	}
	for _, rng := range []*sim.RNG{nil, sim.NewRNG(3)} {
		got := missing(a, b, rng, new(Scratch))
		if len(got) != 6 {
			t.Fatalf("missing returned %v, want 6 ids", got)
		}
		for i, want := range wantDirect {
			if got[i] != want {
				t.Fatalf("direct prefix = %v, want %v first", got[:4], wantDirect)
			}
		}
		rest := map[bundle.ID]bool{{Src: 5, Seq: 2}: true, {Src: 9, Seq: 7}: true}
		for _, id := range got[4:] {
			if !rest[id] {
				t.Fatalf("relay suffix contains unexpected %v", id)
			}
		}
	}
}

// TestMissingScratchReuseIsStable checks that one Scratch, used the way
// a kernel uses its own — by every sender in turn, in both directions
// of a contact — reproduces each sender's diff without corrupting it
// and allocates nothing once warm.
func TestMissingScratchReuseIsStable(t *testing.T) {
	p := NewPure()
	a := mkNode(p, 0, 30)
	b := mkNode(p, 1, 30)
	for s := 1; s <= 12; s++ {
		give(t, a, 0, s, 1, 0)
	}
	for s := 1; s <= 5; s++ {
		give(t, b, 1, s, 0, 0)
	}
	var sc Scratch
	wantAB := append([]bundle.ID(nil), missing(a, b, nil, &sc)...)
	wantBA := append([]bundle.ID(nil), missing(b, a, nil, &sc)...)
	if len(wantAB) != 12 || len(wantBA) != 5 {
		t.Fatalf("diffs hold %d and %d ids, want 12 and 5", len(wantAB), len(wantBA))
	}
	for i := 0; i < 5; i++ {
		for _, tc := range []struct {
			from, to *node.Node
			want     []bundle.ID
		}{{a, b, wantAB}, {b, a, wantBA}} {
			if got := missing(tc.from, tc.to, nil, &sc); !slices.Equal(got, tc.want) {
				t.Fatalf("run %d, node %d: %v, want %v", i, tc.from.ID, got, tc.want)
			}
		}
	}
	allocs := testing.AllocsPerRun(100, func() {
		missing(a, b, nil, &sc)
		missing(b, a, nil, &sc)
	})
	if allocs != 0 {
		t.Errorf("warm missing() allocates %v/op, want 0", allocs)
	}
}
