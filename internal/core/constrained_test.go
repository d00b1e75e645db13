package core_test

// Tests of the finite-bandwidth contact model (DESIGN.md §9): byte
// budgets, strict Wants-order consumption with partial-transfer =
// not-carried semantics, control-record byte charging, byte-capacity
// admission through the DropPolicy registry, and the bit-identity of
// the unconstrained default (the golden grid pins the latter across the
// whole protocol registry; the tests here pin it on targeted cells).

import (
	"errors"
	"reflect"
	"testing"

	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
)

// lineSchedule is a 3-node plan with one long 0<->1 contact: ten
// 100-second slots, so slot budget never binds before byte budget does
// in the tests below.
func lineSchedule() *contact.Schedule {
	return &contact.Schedule{
		Nodes: 3,
		Contacts: []contact.Contact{
			{A: 0, B: 1, Start: 0, End: 1000},
		},
	}
}

func TestBandwidthCapsContactBytes(t *testing.T) {
	// 5 bundles of 1000 B each; 1000 s x 3 B/s = 3000 B budget => the
	// contact carries exactly 3 bundles even though 10 slots are free.
	res, err := core.Run(core.Config{
		Schedule:     lineSchedule(),
		Protocol:     protocol.NewPure(),
		Flows:        []core.Flow{{Src: 0, Dst: 2, Count: 5, Size: 1000}},
		Bandwidth:    3,
		Seed:         1,
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataTransmissions != 3 {
		t.Fatalf("DataTransmissions = %d, want 3 (3000 B budget / 1000 B bundles)", res.DataTransmissions)
	}
}

func TestBandwidthUnsetIsUnlimited(t *testing.T) {
	res, err := core.Run(core.Config{
		Schedule:     lineSchedule(),
		Protocol:     protocol.NewPure(),
		Flows:        []core.Flow{{Src: 0, Dst: 2, Count: 5, Size: 1000}},
		Seed:         1,
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataTransmissions != 5 {
		t.Fatalf("DataTransmissions = %d, want all 5 with no bandwidth set", res.DataTransmissions)
	}
}

func TestPerContactBandwidthOverridesGlobal(t *testing.T) {
	sched := lineSchedule()
	sched.Contacts[0].Bandwidth = 1 // 1000 B: one bundle, despite a generous global
	res, err := core.Run(core.Config{
		Schedule:     sched,
		Protocol:     protocol.NewPure(),
		Flows:        []core.Flow{{Src: 0, Dst: 2, Count: 5, Size: 1000}},
		Bandwidth:    1e9,
		Seed:         1,
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.DataTransmissions != 1 {
		t.Fatalf("DataTransmissions = %d, want 1 (per-contact bandwidth wins)", res.DataTransmissions)
	}
}

// TestPartialTransferEndsBatch pins the strict Wants-order semantics: a
// bundle the remaining budget cannot carry whole ends the direction's
// batch — later, smaller bundles are NOT sent around it.
func TestPartialTransferEndsBatch(t *testing.T) {
	// Direct traffic to node 1, so Wants order is ascending sequence:
	// seq 1 is 5000 B, seq 2 is 50 B. Budget 4000 B fits neither seq 1
	// nor (because the batch ends there) seq 2.
	res, err := core.Run(core.Config{
		Schedule: lineSchedule(),
		Protocol: protocol.NewPure(),
		Flows: []core.Flow{
			{Src: 0, Dst: 1, Count: 1, Size: 5000},
			{Src: 0, Dst: 1, Count: 1, Size: 50},
		},
		Bandwidth:    4, // 4000 B over the 1000 s contact
		Seed:         1,
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 0 || res.DataTransmissions != 0 {
		t.Fatalf("delivered %d / transmitted %d; want 0/0 (oversized head must not be skipped)",
			res.Delivered, res.DataTransmissions)
	}

	// Raising the budget above seq 1's size delivers both in order.
	res, err = core.Run(core.Config{
		Schedule: lineSchedule(),
		Protocol: protocol.NewPure(),
		Flows: []core.Flow{
			{Src: 0, Dst: 1, Count: 1, Size: 5000},
			{Src: 0, Dst: 1, Count: 1, Size: 50},
		},
		Bandwidth:    6,
		Seed:         1,
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 {
		t.Fatalf("delivered %d, want 2 once the head fits", res.Delivered)
	}
}

// TestZeroSizeBundlesFlowUnderBandwidth: size-less bundles consume no
// budget, so even a tiny bandwidth carries them all — the legacy
// workload is unaffected by turning bandwidth on.
func TestZeroSizeBundlesFlowUnderBandwidth(t *testing.T) {
	res, err := core.Run(core.Config{
		Schedule:     lineSchedule(),
		Protocol:     protocol.NewPure(),
		Flows:        []core.Flow{{Src: 0, Dst: 1, Count: 5}},
		Bandwidth:    1e-9,
		Seed:         1,
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 5 {
		t.Fatalf("delivered %d, want 5 (zero-size bundles are budget-free)", res.Delivered)
	}
}

// TestControlBytesChargeBudget: with immunity's record exchange charged
// per record, signaling crowds out data on a tight contact.
func TestControlBytesChargeBudget(t *testing.T) {
	sched := &contact.Schedule{
		Nodes: 2,
		Contacts: []contact.Contact{
			{A: 0, B: 1, Start: 0, End: 400},
			{A: 0, B: 1, Start: 1000, End: 1400},
		},
	}
	run := func(controlBytes float64) *core.Result {
		res, err := core.Run(core.Config{
			Schedule: sched,
			Protocol: protocol.NewImmunity(),
			// Two 300 B bundles; each 400 s contact has a 400 B budget,
			// so exactly one bundle fits per contact when signaling is
			// free.
			Flows:        []core.Flow{{Src: 0, Dst: 1, Count: 2, Size: 300}},
			Bandwidth:    1,
			ControlBytes: controlBytes,
			Seed:         1,
			RunToHorizon: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run(0)
	if free.Delivered != 2 {
		t.Fatalf("free signaling: delivered %d, want 2", free.Delivered)
	}
	// After contact 1 delivers seq 1, both nodes hold its immunity
	// record; contact 2's exchange then carries 2 records (one each
	// way). At 150 B per record that is 300 B of the 400 B budget —
	// seq 2 (300 B) no longer fits.
	charged := run(150)
	if charged.Delivered != 1 {
		t.Fatalf("charged signaling: delivered %d, want 1 (records crowd out data)", charged.Delivered)
	}
	if charged.ControlRecords == 0 {
		t.Fatal("expected control records to have been exchanged")
	}
}

// TestControlBytesChargeOnlyThisContact: a contact is charged for the
// records its own exchange carried, not for what either node sent in
// earlier contacts — here the higher-ID node 2 has already sent a
// record when the budgeted contact begins.
func TestControlBytesChargeOnlyThisContact(t *testing.T) {
	sched := &contact.Schedule{
		Nodes: 3,
		Contacts: []contact.Contact{
			// Delivers seq 1 of the 1->2 flow: 1 and 2 learn its record.
			{A: 1, B: 2, Start: 0, End: 400},
			// Node 2 sends that record to node 0, which sends none.
			{A: 0, B: 2, Start: 500, End: 900},
			// 500 B budget: one record each way at 100 B leaves exactly
			// the 300 B bundle of the 0->2 flow.
			{A: 0, B: 2, Start: 1000, End: 1500},
		},
	}
	res, err := core.Run(core.Config{
		Schedule: sched,
		Protocol: protocol.NewImmunity(),
		Flows: []core.Flow{
			{Src: 1, Dst: 2, Count: 1, Size: 100},
			{Src: 0, Dst: 2, Count: 1, Size: 300, StartAt: 1000},
		},
		Bandwidth:    1,
		ControlBytes: 100,
		Seed:         1,
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Delivered != 2 || res.DataTransmissions != 2 {
		t.Fatalf("delivered %d / transmitted %d; want 2/2 (the last contact charges its own 2 records, 200 B)",
			res.Delivered, res.DataTransmissions)
	}
	if res.ControlRecords != 3 {
		t.Fatalf("ControlRecords = %d, want 3 (1 in the second contact, 2 in the third)", res.ControlRecords)
	}
}

func TestBytePressureDropFront(t *testing.T) {
	coll := metrics.NewCollector()
	res, err := core.Run(core.Config{
		Schedule: lineSchedule(),
		Protocol: protocol.NewPure(),
		// Relay 1 takes 1000 B bundles under a 2500 B byte capacity:
		// the third arrival forces the dropfront policy to shed the
		// oldest stored copy.
		Flows:        []core.Flow{{Src: 0, Dst: 2, Count: 3, Size: 1000}},
		BufferBytes:  2500,
		DropPolicy:   "dropfront",
		Seed:         1,
		Observers:    []core.Observer{coll},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByteDropped != 1 {
		t.Fatalf("ByteDropped = %d, want 1", res.ByteDropped)
	}
	if res.Refused != 0 {
		t.Fatalf("Refused = %d, want 0 (dropfront makes room instead)", res.Refused)
	}
	if got := coll.DropsByReason(node.DropBytePressure); got != 1 {
		t.Fatalf("observer bytepressure drops = %d, want 1", got)
	}
	if got := coll.InvalidDrops(); got != 0 {
		t.Fatalf("observer saw %d drops with invalid reasons", got)
	}
}

func TestBytePressureDropTailRefuses(t *testing.T) {
	coll := metrics.NewCollector()
	res, err := core.Run(core.Config{
		Schedule:     lineSchedule(),
		Protocol:     protocol.NewPure(),
		Flows:        []core.Flow{{Src: 0, Dst: 2, Count: 3, Size: 1000}},
		BufferBytes:  2500,
		DropPolicy:   "droptail",
		Seed:         1,
		Observers:    []core.Observer{coll},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.ByteDropped != 0 {
		t.Fatalf("ByteDropped = %d, want 0 under droptail", res.ByteDropped)
	}
	if res.Refused != 1 {
		t.Fatalf("Refused = %d, want 1 (third arrival refused)", res.Refused)
	}
	if got := coll.DropsByReason(node.DropRefused); got != 1 {
		t.Fatalf("observer refused drops = %d, want 1", got)
	}
}

func TestBytePressureDropRandomSeeded(t *testing.T) {
	run := func(seed uint64) *core.Result {
		res, err := core.Run(core.Config{
			Schedule:     lineSchedule(),
			Protocol:     protocol.NewPure(),
			Flows:        []core.Flow{{Src: 0, Dst: 2, Count: 5, Size: 1000}},
			BufferBytes:  2500,
			DropPolicy:   "droprandom",
			Seed:         seed,
			RunToHorizon: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(7), run(7)
	if !reflect.DeepEqual(toGolden(a), toGolden(b)) {
		t.Fatal("droprandom runs with the same seed diverged")
	}
	if a.ByteDropped != 3 {
		t.Fatalf("ByteDropped = %d, want 3 (5 arrivals into 2 byte-slots)", a.ByteDropped)
	}
}

// TestByteRefusalBeforeSlotEviction: byte admission runs before the
// protocol's slot-count Admit, so a byte-refused incoming bundle must
// not trigger a destructive protocol eviction (EC would otherwise shed
// its highest-count copy for nothing).
func TestByteRefusalBeforeSlotEviction(t *testing.T) {
	sched := &contact.Schedule{
		Nodes: 3,
		Contacts: []contact.Contact{
			{A: 0, B: 1, Start: 0, End: 1000},
			{A: 0, B: 1, Start: 3000, End: 4000},
		},
	}
	res, err := core.Run(core.Config{
		Schedule: sched,
		Protocol: protocol.NewEC(),
		Flows: []core.Flow{
			// Contact 1 fills relay 1 to its exact byte capacity.
			{Src: 0, Dst: 2, Count: 5, Size: 500},
			// Contact 2 offers a bundle droptail cannot make room for.
			{Src: 0, Dst: 2, Count: 1, Size: 2000, StartAt: 2000},
		},
		BufferBytes:  2500,
		DropPolicy:   "droptail",
		Seed:         1,
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Evicted != 0 {
		t.Fatalf("Evicted = %d, want 0: byte refusal must precede EC's slot eviction", res.Evicted)
	}
	if res.Refused != 1 {
		t.Fatalf("Refused = %d, want 1 (the oversized arrival)", res.Refused)
	}
	if res.ByteDropped != 0 {
		t.Fatalf("ByteDropped = %d, want 0 under droptail", res.ByteDropped)
	}
}

// TestConstrainedInertIsBitIdentical: turning the constrained machinery
// on without letting it bind (huge bandwidth and byte capacity, size-
// less bundles) reproduces the unconstrained run bit for bit — the
// compiled-in resource model is invisible until it binds.
func TestConstrainedInertIsBitIdentical(t *testing.T) {
	for _, protoSpec := range []string{"pure", "immunity", "ecttl"} {
		base := goldenConfig(t, protoSpec, goldenMobilities[0], false)
		want, err := core.Run(base)
		if err != nil {
			t.Fatal(err)
		}
		inert := goldenConfig(t, protoSpec, goldenMobilities[0], false)
		inert.Bandwidth = 1e18
		inert.BufferBytes = 1 << 60
		inert.DropPolicy = "dropfront"
		got, err := core.Run(inert)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(toGolden(want), toGolden(got)) {
			t.Errorf("%s: inert constrained run diverged from unconstrained", protoSpec)
		}
	}
}

func TestConstrainedConfigValidation(t *testing.T) {
	valid := func() core.Config {
		return core.Config{
			Schedule: lineSchedule(),
			Protocol: protocol.NewPure(),
			Flows:    []core.Flow{{Src: 0, Dst: 1, Count: 1}},
		}
	}
	cases := []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"negative bandwidth", func(c *core.Config) { c.Bandwidth = -1 }},
		{"negative buffer bytes", func(c *core.Config) { c.BufferBytes = -1 }},
		{"negative control bytes", func(c *core.Config) { c.ControlBytes = -5 }},
		{"unknown drop policy", func(c *core.Config) { c.DropPolicy = "nosuch" }},
		{"negative flow size", func(c *core.Config) { c.Flows[0].Size = -1 }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := valid()
			tc.mutate(&cfg)
			if _, err := core.Run(cfg); !errors.Is(err, core.ErrConfig) {
				t.Fatalf("err = %v, want ErrConfig", err)
			}
		})
	}
	// The valid baseline itself must run.
	if _, err := core.Run(valid()); err != nil {
		t.Fatalf("baseline config failed: %v", err)
	}
	// A drop policy without a byte capacity is accepted and inert.
	cfg := valid()
	cfg.DropPolicy = "droprandom"
	if _, err := core.Run(cfg); err != nil {
		t.Fatalf("drop policy without byte cap: %v", err)
	}
}

// TestMobilityStreamsCarryBandwidth: a contact's bandwidth rides
// through the streaming adapter untouched.
func TestMobilityStreamsCarryBandwidth(t *testing.T) {
	sched := lineSchedule()
	sched.Contacts[0].Bandwidth = 123
	src := sched.Stream()
	c, ok := src.Next()
	if !ok || c.Bandwidth != 123 {
		t.Fatalf("streamed contact = %+v (ok=%v), want bandwidth 123", c, ok)
	}
}
