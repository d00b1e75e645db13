package core

import (
	"errors"
	"math"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/mobility"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// sched builds a small sorted schedule over n nodes.
func sched(n int, cs ...contact.Contact) *contact.Schedule {
	s := &contact.Schedule{Nodes: n, Contacts: cs}
	s.Sort()
	return s
}

// materialize drains a mobility model's Stream into a Schedule.
func materialize(src contact.Source, err error) (*contact.Schedule, error) {
	if err != nil {
		return nil, err
	}
	return contact.Materialize(src)
}

func TestDirectDelivery(t *testing.T) {
	// One contact of 350 s carries 3 bundles at 100 s each.
	s := sched(2, contact.Contact{A: 0, B: 1, Start: 1000, End: 1350})
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed || r.Delivered != 3 {
		t.Fatalf("delivered %d/3, completed=%v", r.Delivered, r.Completed)
	}
	// Deliveries complete at 1100, 1200, 1300; makespan from t=0.
	if r.Makespan != 1300 {
		t.Errorf("Makespan = %v, want 1300", r.Makespan)
	}
	want := map[int]sim.Time{1: 1100, 2: 1200, 3: 1300}
	for seq, at := range want {
		if got := r.DeliveryTimes[bundle.ID{Src: 0, Seq: seq}]; got != at {
			t.Errorf("bundle %d delivered at %v, want %v", seq, got, at)
		}
	}
}

func TestBudgetLimitsTransfer(t *testing.T) {
	// 250 s contact → 2 slots; only 2 of 5 bundles arrive.
	s := sched(2, contact.Contact{A: 0, B: 1, Start: 0, End: 250})
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 5}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 2 || r.Completed {
		t.Fatalf("delivered %d, want 2 (budget)", r.Delivered)
	}
	if r.Makespan != -1 {
		t.Errorf("failed run recorded delay %v", r.Makespan)
	}
}

func TestRelayChain(t *testing.T) {
	// 0 never meets 2; bundles must travel 0→1→2.
	s := sched(3,
		contact.Contact{A: 0, B: 1, Start: 100, End: 350},   // 2 slots
		contact.Contact{A: 1, B: 2, Start: 1000, End: 1250}, // 2 slots
	)
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 2, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("relay chain failed: delivered %d/2", r.Delivered)
	}
	if r.Makespan != 1200 {
		t.Errorf("Makespan = %v, want 1200", r.Makespan)
	}
}

func TestLowerIDSendsFirst(t *testing.T) {
	// Node 0 and node 2 both carry bundles for each other via one
	// 150 s contact (1 slot). Lower ID (0) wins the slot.
	s := sched(3,
		contact.Contact{A: 0, B: 1, Start: 0, End: 150},
		contact.Contact{A: 1, B: 2, Start: 500, End: 650},
	)
	// Flow A: 0→2 via 1. Flow B: 1→0 direct (node 1 is its source).
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows: []Flow{
			{Src: 0, Dst: 2, Count: 1},
			{Src: 1, Dst: 0, Count: 1},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Contact 1 (0↔1, 1 slot): node 0 sends its bundle to 1 (lower ID
	// first); node 1's own bundle for 0 never gets a slot.
	// Contact 2 (1↔2, 1 slot): node 1 forwards flow A's bundle to 2.
	if got := r.DeliveryTimes[bundle.ID{Src: 0, Seq: 1}]; got != 600 {
		t.Errorf("flow A delivery at %v, want 600", got)
	}
	if _, ok := r.DeliveryTimes[bundle.ID{Src: 1, Seq: 1}]; ok {
		t.Error("flow B delivered despite losing the slot to the lower ID")
	}
	if r.Delivered != 1 {
		t.Errorf("Delivered = %d, want 1", r.Delivered)
	}
}

func TestEarlyTerminationStopsAtLastDelivery(t *testing.T) {
	s := sched(2,
		contact.Contact{A: 0, B: 1, Start: 100, End: 250},
		contact.Contact{A: 0, B: 1, Start: 10000, End: 10150},
	)
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed || r.FinishedAt != 200 {
		t.Errorf("FinishedAt = %v, want 200 (early stop)", r.FinishedAt)
	}
}

func TestRunToHorizonKeepsGoing(t *testing.T) {
	s := sched(2,
		contact.Contact{A: 0, B: 1, Start: 100, End: 250},
		contact.Contact{A: 0, B: 1, Start: 10000, End: 10150},
	)
	r, err := Run(Config{
		Schedule:     s,
		Protocol:     protocol.NewPure(),
		Flows:        []Flow{{Src: 0, Dst: 1, Count: 1}},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.FinishedAt != 10150 {
		t.Errorf("FinishedAt = %v, want horizon 10150", r.FinishedAt)
	}
}

func TestSourcePinningBeyondCapacity(t *testing.T) {
	// Load 50 with buffer 10: the source holds all 50 pinned; delivery
	// still completes over repeated long contacts.
	var cs []contact.Contact
	for i := 0; i < 20; i++ {
		start := sim.Time(i * 10000)
		cs = append(cs, contact.Contact{A: 0, B: 1, Start: start, End: start + 500}) // 5 slots
	}
	r, err := Run(Config{
		Schedule: sched(2, cs...),
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 50}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("delivered %d/50", r.Delivered)
	}
	// Source occupancy 50/10=5 dominates the two-node average early on.
	if r.MeanOccupancy <= 1.0 {
		t.Errorf("MeanOccupancy = %v; pinned source should push it above 1", r.MeanOccupancy)
	}
}

func TestDropTailLimitsRelayBuffer(t *testing.T) {
	// Source meets relay with huge contact; relay cap 10 → only 10
	// unpinned copies stored.
	s := sched(3, contact.Contact{A: 0, B: 1, Start: 0, End: 5000}) // 50 slots
	r, err := Run(Config{
		Schedule:     s,
		Protocol:     protocol.NewPure(),
		Flows:        []Flow{{Src: 0, Dst: 2, Count: 30}},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 0 {
		t.Fatal("nothing should reach node 2")
	}
	if r.Refused == 0 {
		t.Error("relay never refused despite cap 10 and 30 offers")
	}
	// 10 stored + 20 refused = 30 transmissions attempted.
	if r.DataTransmissions != 30 {
		t.Errorf("DataTransmissions = %d, want 30", r.DataTransmissions)
	}
	if r.Refused != 20 {
		t.Errorf("Refused = %d, want 20", r.Refused)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	gen := mobility.SyntheticCambridge{Seed: 99, Nodes: 8, Span: 200000}
	s, err := materialize(gen.Stream())
	if err != nil {
		t.Fatal(err)
	}
	run := func() *Result {
		r, err := Run(Config{
			Schedule: s,
			Protocol: protocol.NewPQ(0.5, 0.5), // exercises the RNG path
			Flows:    []Flow{{Src: 0, Dst: 5, Count: 20}},
			Seed:     1234,
		})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if a.Delivered != b.Delivered || a.Makespan != b.Makespan ||
		a.MeanOccupancy != b.MeanOccupancy || a.MeanDuplication != b.MeanDuplication ||
		a.ControlRecords != b.ControlRecords || a.DataTransmissions != b.DataTransmissions {
		t.Errorf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

func TestImmunityPurgesSenderOnDelivery(t *testing.T) {
	// After 0 delivers to 1, node 0's copies are purged (link-level
	// immunity), unlike pure epidemic where the source keeps them.
	s := sched(2, contact.Contact{A: 0, B: 1, Start: 0, End: 350})
	rImm, err := Run(Config{
		Schedule:     s,
		Protocol:     protocol.NewImmunity(),
		Flows:        []Flow{{Src: 0, Dst: 1, Count: 3}},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	rPure, err := Run(Config{
		Schedule:     s,
		Protocol:     protocol.NewPure(),
		Flows:        []Flow{{Src: 0, Dst: 1, Count: 3}},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !rImm.Completed || !rPure.Completed {
		t.Fatal("both should deliver all 3")
	}
	if rImm.MeanDuplication >= rPure.MeanDuplication {
		t.Errorf("immunity duplication %v not below pure %v",
			rImm.MeanDuplication, rPure.MeanDuplication)
	}
}

func TestMeanDelayComputed(t *testing.T) {
	s := sched(2, contact.Contact{A: 0, B: 1, Start: 0, End: 250})
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Arrivals at 100 and 200 → mean delay 150.
	if r.MeanDelay != 150 {
		t.Errorf("MeanDelay = %v, want 150", r.MeanDelay)
	}
}

func TestConfigValidation(t *testing.T) {
	good := sched(3, contact.Contact{A: 0, B: 1, Start: 0, End: 100})
	cases := []struct {
		name string
		cfg  Config
	}{
		{"nil schedule", Config{Protocol: protocol.NewPure(), Flows: []Flow{{Src: 0, Dst: 1, Count: 1}}}},
		{"nil protocol", Config{Schedule: good, Flows: []Flow{{Src: 0, Dst: 1, Count: 1}}}},
		{"no flows", Config{Schedule: good, Protocol: protocol.NewPure()}},
		{"zero count", Config{Schedule: good, Protocol: protocol.NewPure(), Flows: []Flow{{Src: 0, Dst: 1}}}},
		{"self flow", Config{Schedule: good, Protocol: protocol.NewPure(), Flows: []Flow{{Src: 1, Dst: 1, Count: 1}}}},
		{"out of range", Config{Schedule: good, Protocol: protocol.NewPure(), Flows: []Flow{{Src: 0, Dst: 9, Count: 1}}}},
		{"negative start", Config{Schedule: good, Protocol: protocol.NewPure(),
			Flows: []Flow{{Src: 0, Dst: 1, Count: 1, StartAt: -5}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Run(tc.cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
}

func TestMultiFlowDistinctSources(t *testing.T) {
	s := sched(4,
		contact.Contact{A: 0, B: 3, Start: 0, End: 250},
		contact.Contact{A: 1, B: 2, Start: 300, End: 550},
	)
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows: []Flow{
			{Src: 0, Dst: 3, Count: 2},
			{Src: 1, Dst: 2, Count: 2},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed || r.Generated != 4 {
		t.Fatalf("delivered %d/%d", r.Delivered, r.Generated)
	}
}

func TestMultiFlowSharedSourceDelays(t *testing.T) {
	// Two bursts from node 0 to node 1: two bundles at t=0 (seqs 1-2)
	// and two more at t=2000 (seqs 3-4, contiguous block). Per-bundle
	// delay must be measured from each bundle's own creation time, not
	// from the first flow's StartAt.
	s := sched(2,
		contact.Contact{A: 0, B: 1, Start: 0, End: 250},
		contact.Contact{A: 0, B: 1, Start: 2100, End: 2450},
	)
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows: []Flow{
			{Src: 0, Dst: 1, Count: 2, StartAt: 0},
			{Src: 0, Dst: 1, Count: 2, StartAt: 2000},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed || r.Delivered != 4 {
		t.Fatalf("delivered %d/4, completed=%v", r.Delivered, r.Completed)
	}
	// First burst arrives at 100 and 200; second at 2200 and 2300.
	want := map[int]sim.Time{1: 100, 2: 200, 3: 2200, 4: 2300}
	for seq, at := range want {
		if got := r.DeliveryTimes[bundle.ID{Src: 0, Seq: seq}]; got != at {
			t.Errorf("bundle %d delivered at %v, want %v", seq, got, at)
		}
	}
	// Delays: 100, 200 (created at 0) and 200, 300 (created at 2000).
	if r.MeanDelay != 200 {
		t.Errorf("MeanDelay = %v, want 200 (second burst measured from t=2000)", r.MeanDelay)
	}
	if math.Abs(r.DelayP95-285) > 1e-9 {
		t.Errorf("DelayP95 = %v, want 285", r.DelayP95)
	}
	if r.Makespan != 2300 {
		t.Errorf("Makespan = %v, want 2300", r.Makespan)
	}
}

func TestMultiFlowSharedSourceCumulativeImmunity(t *testing.T) {
	// Node 0 sources two flows: seq 1 to node 1 and seqs 2-3 to node 2.
	// The second flow's sequence block starts at 2, so its cumulative
	// prefix must anchor at FirstSeq=2 — a table of 3 then covers the
	// whole flow, and relay 3 purges its copies after hearing the table
	// second-hand from relay 4 (which never received the bundles).
	s := sched(5,
		contact.Contact{A: 0, B: 3, Start: 0, End: 350},     // 3 copies to relay 3
		contact.Contact{A: 0, B: 2, Start: 1000, End: 1350}, // deliver seqs 2,3 to dst 2
		contact.Contact{A: 2, B: 4, Start: 2000, End: 2150}, // relay 4 learns the table
		contact.Contact{A: 3, B: 4, Start: 3000, End: 3100}, // relay 3 purges via table
	)
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewCumulativeImmunity(),
		Flows: []Flow{
			{Src: 0, Dst: 1, Count: 1},
			{Src: 0, Dst: 2, Count: 2},
		},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 2 {
		t.Fatalf("delivered %d, want 2 (flow to node 2)", r.Delivered)
	}
	// Relay 3 received seqs 1, 2, 3; the table ack of 3 for flow (0→2)
	// must purge seqs 2 and 3, leaving only the seq-1 copy bound for
	// node 1. A prefix wrongly anchored at 1 would never advance and
	// relay 3 would still hold all three copies.
	if r.FinalBuffered[3] != 1 {
		t.Errorf("relay 3 ended with %d buffered copies, want 1 (delivered flow purged by table)",
			r.FinalBuffered[3])
	}
}

func TestMultiFlowSameSrcDstOutOfOrderBursts(t *testing.T) {
	// Two bursts from node 0 to node 1 where the LATER-declared block
	// (seqs 3-4) starts — and delivers — first. Both blocks share the
	// cumulative-immunity flow key (0→1), so the early delivery of the
	// second block must not anchor an acknowledgement that falsely
	// covers the still-undelivered seqs 1-2 (which would purge them
	// everywhere, including the pinned source copies, and lose them).
	s := sched(2,
		contact.Contact{A: 0, B: 1, Start: 100, End: 350},   // seqs 3-4 delivered
		contact.Contact{A: 0, B: 1, Start: 6000, End: 6250}, // seqs 1-2 delivered
	)
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewCumulativeImmunity(),
		Flows: []Flow{
			{Src: 0, Dst: 1, Count: 2, StartAt: 5000}, // seqs 1-2, created late
			{Src: 0, Dst: 1, Count: 2, StartAt: 0},    // seqs 3-4, created first
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed || r.Delivered != 4 {
		t.Fatalf("delivered %d/4, completed=%v; the first block was lost to a false ack",
			r.Delivered, r.Completed)
	}
	// Deliveries: seqs 3-4 at 200, 300 (created 0); seqs 1-2 at 6100,
	// 6200 (created 5000) → delays 200, 300, 1100, 1200.
	if r.MeanDelay != 700 {
		t.Errorf("MeanDelay = %v, want 700", r.MeanDelay)
	}
}

func TestTTLExpiryEndToEnd(t *testing.T) {
	// 0→1 at t=0 (relay copy, TTL 300); 1 meets 2 at t=1000 — too late,
	// the copy expired at 400. Source 0 never meets 2.
	s := sched(3,
		contact.Contact{A: 0, B: 1, Start: 0, End: 150},
		contact.Contact{A: 1, B: 2, Start: 1000, End: 1150},
	)
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewTTL(300),
		Flows:    []Flow{{Src: 0, Dst: 2, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Delivered != 0 {
		t.Fatal("expired copy was delivered")
	}
	if r.Expired != 1 {
		t.Errorf("Expired = %d, want 1", r.Expired)
	}
	// Same topology with a TTL long enough succeeds.
	r2, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewTTL(2000),
		Flows:    []Flow{{Src: 0, Dst: 2, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r2.Completed {
		t.Error("long-TTL copy not delivered")
	}
}

func TestDynamicTTLSurvivesWhereConstantDies(t *testing.T) {
	// Relay 1's encounter rhythm: meets 0 at t=0 and t=2000 (interval
	// 2000), receives the bundle at the second meeting → TTL 4000,
	// surviving until it meets 2 at t=5000. Constant TTL 300 dies.
	s := sched(3,
		contact.Contact{A: 0, B: 1, Start: 0, End: 150},
		contact.Contact{A: 0, B: 1, Start: 2000, End: 2150},
		contact.Contact{A: 1, B: 2, Start: 5000, End: 5150},
	)
	flow := []Flow{{Src: 0, Dst: 2, Count: 1}}
	rConst, err := Run(Config{Schedule: s, Protocol: protocol.NewTTL(300), Flows: flow})
	if err != nil {
		t.Fatal(err)
	}
	rDyn, err := Run(Config{Schedule: s, Protocol: protocol.NewDynamicTTL(), Flows: flow})
	if err != nil {
		t.Fatal(err)
	}
	if rConst.Delivered != 0 {
		t.Error("constant TTL=300 should fail in this topology")
	}
	if rDyn.Delivered != 1 {
		t.Error("dynamic TTL should deliver (TTL = 2×2000)")
	}
}

func TestCumulativeOverheadBelowImmunity(t *testing.T) {
	gen := mobility.SyntheticCambridge{Seed: 5, Nodes: 10, Span: 300000}
	s, err := materialize(gen.Stream())
	if err != nil {
		t.Fatal(err)
	}
	flows := []Flow{{Src: 0, Dst: 7, Count: 40}}
	rImm, err := Run(Config{Schedule: s, Protocol: protocol.NewImmunity(), Flows: flows, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	rCum, err := Run(Config{Schedule: s, Protocol: protocol.NewCumulativeImmunity(), Flows: flows, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if rCum.ControlRecords >= rImm.ControlRecords {
		t.Errorf("cumulative overhead %d not below immunity %d",
			rCum.ControlRecords, rImm.ControlRecords)
	}
}

func TestConservationInvariants(t *testing.T) {
	// Across protocols: delivered ⊆ generated; ratio in [0,1]; counters
	// non-negative.
	gen := mobility.SyntheticCambridge{Seed: 21, Nodes: 8, Span: 200000}
	s, err := materialize(gen.Stream())
	if err != nil {
		t.Fatal(err)
	}
	protos := []protocol.Protocol{
		protocol.NewPure(), protocol.NewPQ(0.5, 0.5), protocol.NewTTL(300),
		protocol.NewDynamicTTL(), protocol.NewEC(), protocol.NewECTTL(),
		protocol.NewImmunity(), protocol.NewCumulativeImmunity(),
	}
	for _, p := range protos {
		r, err := Run(Config{
			Schedule: s,
			Protocol: p,
			Flows:    []Flow{{Src: 1, Dst: 6, Count: 25}},
			Seed:     7,
		})
		if err != nil {
			t.Fatalf("%s: %v", p.Name(), err)
		}
		if r.Delivered > r.Generated || r.DeliveryRatio < 0 || r.DeliveryRatio > 1 {
			t.Errorf("%s: impossible delivery accounting %+v", p.Name(), r)
		}
		if r.MeanOccupancy < 0 || r.MeanDuplication < 0 || r.MeanDuplication > 1 {
			t.Errorf("%s: metric out of range: occ=%v dup=%v", p.Name(), r.MeanOccupancy, r.MeanDuplication)
		}
		if r.ControlRecords < 0 || r.DataTransmissions < 0 {
			t.Errorf("%s: negative counters", p.Name())
		}
		for id, at := range r.DeliveryTimes {
			if id.Seq < 1 || id.Seq > 25 || at < 0 {
				t.Errorf("%s: bogus delivery record %v@%v", p.Name(), id, at)
			}
		}
	}
}

func TestDelayQuantiles(t *testing.T) {
	// Deliveries at 100, 200, 300 → P50 = 200, mean = 200.
	s := sched(2, contact.Contact{A: 0, B: 1, Start: 0, End: 350})
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 3}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.DelayP50 != 200 {
		t.Errorf("DelayP50 = %v, want 200", r.DelayP50)
	}
	if r.DelayP95 < 280 || r.DelayP95 > 300 {
		t.Errorf("DelayP95 = %v, want near 300", r.DelayP95)
	}
	if r.MeanDelay != 200 {
		t.Errorf("MeanDelay = %v, want 200", r.MeanDelay)
	}
	// No deliveries → zero quantiles.
	empty := sched(3, contact.Contact{A: 1, B: 2, Start: 0, End: 150})
	r2, err := Run(Config{
		Schedule: empty,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 2, Count: 1}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if r2.DelayP50 != 0 || r2.DelayP95 != 0 {
		t.Error("quantiles nonzero with no deliveries")
	}
}

// TestIdleNodesAllocateNothing: per-node working memory is sized by
// what a node holds, so nodes that never meet anyone cost a run no
// allocation. The same four nodes meet in the same pure run over a
// population of n and of 4n nodes; both runs allocate the same count.
func TestIdleNodesAllocateNothing(t *testing.T) {
	allocs := func(nodes int) float64 {
		var cs []contact.Contact
		for i := 0; i < 20; i++ {
			start := sim.Time(1000 * i)
			cs = append(cs,
				contact.Contact{A: 0, B: 1, Start: start, End: start + 300},
				contact.Contact{A: 1, B: 2, Start: start + 400, End: start + 700},
				contact.Contact{A: 2, B: 3, Start: start + 800, End: start + 950})
		}
		cfg := Config{
			Schedule:     sched(nodes, cs...),
			Protocol:     protocol.NewPure(),
			Flows:        []Flow{{Src: 0, Dst: 3, Count: 12}},
			RunToHorizon: true,
		}
		return testing.AllocsPerRun(5, func() {
			if _, err := Run(cfg); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(50), allocs(200); small != large {
		t.Errorf("a run allocates %v objects over 50 nodes but %v over 200", small, large)
	}
}
