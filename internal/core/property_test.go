package core

import (
	"math/rand/v2"
	"testing"
	"testing/quick"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// randomSchedule builds a random valid schedule over n nodes.
func randomSchedule(r *rand.Rand, n, contacts int) *contact.Schedule {
	s := &contact.Schedule{Nodes: n}
	for len(s.Contacts) < contacts {
		a := contact.NodeID(r.IntN(n))
		b := contact.NodeID(r.IntN(n))
		if a == b {
			continue
		}
		start := sim.Time(r.IntN(100000))
		dur := sim.Time(r.IntN(900) + 50)
		s.Contacts = append(s.Contacts, contact.Contact{A: a, B: b, Start: start, End: start + dur}.Normalize())
	}
	s.Sort()
	return s
}

// mergeSchedules combines two schedules over the same node population
// into one sorted schedule. It does not coalesce overlapping windows.
func mergeSchedules(a, b *contact.Schedule) *contact.Schedule {
	out := &contact.Schedule{Nodes: max(a.Nodes, b.Nodes)}
	out.Contacts = append(out.Contacts, a.Contacts...)
	out.Contacts = append(out.Contacts, b.Contacts...)
	out.Sort()
	return out
}

func TestMergeSorts(t *testing.T) {
	a := &contact.Schedule{Nodes: 3, Contacts: []contact.Contact{{A: 0, B: 1, Start: 100, End: 110}}}
	b := &contact.Schedule{Nodes: 3, Contacts: []contact.Contact{{A: 1, B: 2, Start: 50, End: 60}, {A: 0, B: 2, Start: 150, End: 160}}}
	m := mergeSchedules(a, b)
	if err := m.Validate(); err != nil {
		t.Fatalf("merged schedule invalid: %v", err)
	}
	if m.Contacts[0].Start != 50 || m.Contacts[2].Start != 150 {
		t.Errorf("merge not sorted: %v", m.Contacts)
	}
}

func allProtocols() []func() protocol.Protocol {
	return []func() protocol.Protocol{
		func() protocol.Protocol { return protocol.NewPure() },
		func() protocol.Protocol { return protocol.NewPQ(0.7, 0.4) },
		func() protocol.Protocol { return protocol.NewPQ(1, 1).WithAntiPackets() },
		func() protocol.Protocol { return protocol.NewTTL(500) },
		func() protocol.Protocol { return protocol.NewDynamicTTL() },
		func() protocol.Protocol { return protocol.NewEC() },
		func() protocol.Protocol { return protocol.NewECTTL() },
		func() protocol.Protocol { return protocol.NewImmunity() },
		func() protocol.Protocol { return protocol.NewCumulativeImmunity() },
	}
}

// TestEngineInvariantsProperty fuzzes random scenarios through every
// protocol and checks the engine's global invariants.
func TestEngineInvariantsProperty(t *testing.T) {
	protos := allProtocols()
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 23))
		nodes := r.IntN(8) + 3
		s := randomSchedule(r, nodes, r.IntN(200)+20)
		src := contact.NodeID(r.IntN(nodes))
		dst := contact.NodeID(r.IntN(nodes - 1))
		if dst >= src {
			dst++
		}
		count := r.IntN(40) + 1
		proto := protos[r.IntN(len(protos))]()
		cfg := Config{
			Schedule:     s,
			Protocol:     proto,
			Flows:        []Flow{{Src: src, Dst: dst, Count: count}},
			Seed:         seed,
			RunToHorizon: r.IntN(2) == 0,
		}
		res, err := Run(cfg)
		if err != nil {
			t.Logf("%s: %v", proto.Name(), err)
			return false
		}
		// Conservation: delivered ⊆ generated, each at most once.
		if res.Delivered != len(res.DeliveryTimes) || res.Delivered > count {
			t.Logf("%s: delivery accounting %d/%d", proto.Name(), res.Delivered, count)
			return false
		}
		for id, at := range res.DeliveryTimes {
			if id.Src != src || id.Seq < 1 || id.Seq > count {
				t.Logf("%s: alien delivery %v", proto.Name(), id)
				return false
			}
			if at < 0 || at > res.FinishedAt {
				t.Logf("%s: delivery at %v outside run (end %v)", proto.Name(), at, res.FinishedAt)
				return false
			}
		}
		// Completed ⇔ all delivered; makespan only when completed.
		if res.Completed != (res.Delivered == count) {
			return false
		}
		if !res.Completed && res.Makespan != -1 {
			return false
		}
		if res.Completed && res.Makespan < 0 {
			return false
		}
		// Buffer discipline: relays never exceed capacity with unpinned
		// copies (the source may hold pinned bundles beyond cap).
		for i, buffered := range res.FinalBuffered {
			limit := DefaultBufferCap
			if contact.NodeID(i) == src {
				limit += count
			}
			if buffered > limit {
				t.Logf("%s: node %d holds %d > %d", proto.Name(), i, buffered, limit)
				return false
			}
			if res.FinalOccupancy[i] < 0 {
				return false
			}
		}
		// Counters sane.
		if res.Refused < 0 || res.Evicted < 0 || res.Expired < 0 ||
			res.ControlRecords < 0 || res.DataTransmissions < 0 {
			return false
		}
		// Every refusal/eviction/expiry implies the bundle was
		// transmitted at least once overall.
		if res.DataTransmissions == 0 && (res.Refused > 0 || res.Delivered > 0) {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineDeterminismProperty: same seed ⇒ identical results, across
// random scenarios and protocols.
func TestEngineDeterminismProperty(t *testing.T) {
	protos := allProtocols()
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 29))
		nodes := r.IntN(6) + 3
		s := randomSchedule(r, nodes, 80)
		proto := protos[r.IntN(len(protos))]
		cfg := func() Config {
			return Config{
				Schedule: s,
				Protocol: proto(),
				Flows:    []Flow{{Src: 0, Dst: contact.NodeID(nodes - 1), Count: 15}},
				Seed:     seed,
			}
		}
		a, err := Run(cfg())
		if err != nil {
			return false
		}
		b, err := Run(cfg())
		if err != nil {
			return false
		}
		if a.Delivered != b.Delivered || a.Makespan != b.Makespan ||
			a.ControlRecords != b.ControlRecords ||
			a.DataTransmissions != b.DataTransmissions ||
			a.MeanOccupancy != b.MeanOccupancy {
			return false
		}
		for id, at := range a.DeliveryTimes {
			if b.DeliveryTimes[id] != at {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// TestEngineMoreContactsNeverHurtsPure: adding contacts to a schedule
// cannot reduce pure epidemic's delivered count (monotonicity of
// flooding under extra connectivity) — a relation-style property the
// engine must respect.
func TestEngineMoreContactsNeverHurtsPure(t *testing.T) {
	f := func(seed uint64) bool {
		r := rand.New(rand.NewPCG(seed, 31))
		nodes := 6
		base := randomSchedule(r, nodes, 30)
		extra := randomSchedule(r, nodes, 30)
		merged := mergeSchedules(base, extra)
		run := func(s *contact.Schedule) int {
			res, err := Run(Config{
				Schedule: s,
				Protocol: protocol.NewPure(),
				Flows:    []Flow{{Src: 0, Dst: 5, Count: 8}},
				Seed:     1,
			})
			if err != nil {
				t.Fatal(err)
			}
			return res.Delivered
		}
		return run(merged) >= run(base)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFlowStartAtDelaysGeneration(t *testing.T) {
	s := sched(2,
		contact.Contact{A: 0, B: 1, Start: 100, End: 250},
		contact.Contact{A: 0, B: 1, Start: 5000, End: 5150},
	)
	r, err := Run(Config{
		Schedule: s,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 1, StartAt: 1000}},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The first contact predates the flow; delivery must use the second.
	if !r.Completed {
		t.Fatal("not delivered")
	}
	if at := r.DeliveryTimes[bundle.ID{Src: 0, Seq: 1}]; at != 5100 {
		t.Errorf("delivered at %v, want 5100", at)
	}
	// Makespan counts from the flow start.
	if r.Makespan != 4100 {
		t.Errorf("Makespan = %v, want 4100", r.Makespan)
	}
}

func TestShortContactCarriesRecordsOnly(t *testing.T) {
	// A 50 s contact has no bundle slot (tx time 100 s) but carries
	// 5 control records — immunity knowledge can spread through
	// contacts too short for data.
	s := sched(3,
		contact.Contact{A: 0, B: 1, Start: 0, End: 350},     // source hands 3 copies to relay 1
		contact.Contact{A: 1, B: 2, Start: 500, End: 850},   // 1 delivers to 2 (dst)
		contact.Contact{A: 0, B: 1, Start: 1000, End: 1050}, // 50 s: records only
	)
	r, err := Run(Config{
		Schedule:     s,
		Protocol:     protocol.NewImmunity(),
		Flows:        []Flow{{Src: 0, Dst: 2, Count: 3}},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !r.Completed {
		t.Fatalf("delivered %d/3", r.Delivered)
	}
	// After the third (short) contact, node 0 must have learned the
	// deliveries from node 1's i-list and purged its pinned copies.
	if r.FinalBuffered[0] != 0 {
		t.Errorf("source still holds %d copies after record-only contact", r.FinalBuffered[0])
	}
}
