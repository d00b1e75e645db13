package core_test

// Cross-check every event count a Result reports against a tally of the
// observer stream kept on the test's side. The run's collector is the
// one writer of DataTransmissions, the drop counts and ControlRecords,
// and the holder bookkeeping of Generated and Delivered; the tally
// counts the same stream independently, and a wrapper around the
// protocol sums what its exchanges returned, so a count that drifts
// from the events the observers saw, or from the records the sessions
// carried, cannot go unnoticed.

import (
	"fmt"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/metrics"
	"dtnsim/internal/node"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

func TestCollectorMatchesNodeCounters(t *testing.T) {
	if testing.Short() {
		t.Skip("full protocol grid is slow")
	}
	for _, protoSpec := range protocol.BuiltinSpecs() {
		for _, m := range goldenMobilities {
			t.Run(fmt.Sprintf("%s|%s", protoSpec, m.name), func(t *testing.T) {
				// The streamed path exercises the same books through the
				// pull-based contact pipeline.
				cfg := goldenConfig(t, protoSpec, m, true)
				reconcileCollector(t, cfg)
			})
			// The same cell again under the constrained resource model,
			// tuned so the byte capacity binds: the bytepressure drop
			// reason must reconcile end-to-end like the original four.
			t.Run(fmt.Sprintf("%s|%s|constrained", protoSpec, m.name), func(t *testing.T) {
				cfg := goldenConfig(t, protoSpec, m, true)
				for i := range cfg.Flows {
					cfg.Flows[i].Size = 1 << 20
				}
				cfg.Bandwidth = 50_000
				cfg.BufferBytes = 3 << 20
				cfg.DropPolicy = "dropfront"
				cfg.ControlBytes = 64
				reconcileCollector(t, cfg)
			})
		}
	}
}

// eventTally counts an observer stream by event kind and drop reason.
type eventTally struct {
	generated, delivered, sent, dropped int64
	byReason                            map[node.DropReason]int64
}

// recordTally wraps a protocol and sums the control records its
// exchanges return.
type recordTally struct {
	protocol.Protocol
	records int64
}

func (p *recordTally) Exchange(a, b *node.Node, now sim.Time, recordBudget int) int {
	sent := p.Protocol.Exchange(a, b, now, recordBudget)
	p.records += int64(sent)
	return sent
}

// reconcileCollector runs cfg with a tally observer and a second
// collector attached, and its protocol wrapped in a recordTally, and
// cross-checks the Result's counts against the tallies.
func reconcileCollector(t *testing.T, cfg core.Config) {
	t.Helper()
	proto := &recordTally{Protocol: cfg.Protocol}
	cfg.Protocol = proto
	tally := eventTally{byReason: map[node.DropReason]int64{}}
	obs := &core.FuncObserver{
		Generate: func(bundle.ID, contact.NodeID, sim.Time) { tally.generated++ },
		Transmit: func(_, _ contact.NodeID, _ bundle.ID, _ sim.Time) { tally.sent++ },
		Deliver:  func(bundle.ID, contact.NodeID, float64, sim.Time) { tally.delivered++ },
		Drop: func(at contact.NodeID, id bundle.ID, reason node.DropReason, now sim.Time) {
			// Every drop on the observer stream must carry a reason from
			// the node.DropReason enum — the unified taxonomy this test
			// pins.
			if !reason.Valid() {
				t.Errorf("drop of %v at node %d carries invalid reason %q", id, at, reason)
			}
			tally.dropped++
			tally.byReason[reason]++
		},
	}
	coll := metrics.NewCollector()
	cfg.Observers = []core.Observer{obs, coll}
	res, err := core.Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name     string
		got, res int64
	}{
		{"generated", tally.generated, int64(res.Generated)},
		{"delivered", tally.delivered, int64(res.Delivered)},
		{"transmissions", tally.sent, res.DataTransmissions},
		{"refused", tally.byReason[node.DropRefused], res.Refused},
		{"evicted", tally.byReason[node.DropEvicted], res.Evicted},
		{"expired", tally.byReason[node.DropExpired], res.Expired},
		{"bytepressure", tally.byReason[node.DropBytePressure], res.ByteDropped},
		{"control records", proto.records, res.ControlRecords},
	} {
		if c.got != c.res {
			t.Errorf("observed %s %d != result %d", c.name, c.got, c.res)
		}
	}
	// Summing the complete reason enum must reproduce the total drop
	// count exactly — a drop with a missing or double-counted reason
	// cannot hide.
	var sum int64
	for _, reason := range node.DropReasons() {
		sum += tally.byReason[reason]
	}
	if sum != tally.dropped || coll.Drops() != tally.dropped {
		t.Errorf("drop reasons do not sum: observed %d, by-reason sum %d, collector total %d",
			tally.dropped, sum, coll.Drops())
	}
	if got := coll.InvalidDrops(); got != 0 {
		t.Errorf("collector saw %d drops with reasons outside the enum", got)
	}
}
