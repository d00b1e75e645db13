package core_test

import (
	"fmt"
	"math/rand/v2"
	"slices"
	"sync/atomic"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/core"
	"dtnsim/internal/mobility"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// foremostArrival is an exact reference for one flooded bundle: the
// earliest arrival at dst of a bundle created at src at start, over the
// time-respecting contact graph of plan under the engine's link model
// (DESIGN.md §3.2). Three rules make it exact:
//   - a contact carries ⌊duration/txTime⌋ slots, so one shorter than
//     txTime carries nothing;
//   - a node holds a copy from the start event of the contact that
//     brought it, so a later contact in plan order — even one starting
//     at the same time — can pass it on;
//   - the first transfer of a contact completes at its start + txTime.
//
// It walks the plan once in its order (contact.Less) and reports false
// when no journey reaches dst.
func foremostArrival(plan *contact.Schedule, src, dst contact.NodeID, start sim.Time, txTime float64) (sim.Time, bool) {
	holds := make([]bool, plan.Nodes)
	holds[src] = true
	for _, c := range plan.Contacts {
		if c.Start < start || int(float64(c.Duration())/txTime) < 1 || holds[c.A] == holds[c.B] {
			continue
		}
		to := c.A
		if holds[c.A] {
			to = c.B
		}
		if to == dst {
			return c.Start + sim.Time(txTime), true
		}
		holds[to] = true
	}
	return 0, false
}

// TestFloodIsForemostJourney: with one bundle in flight, every protocol
// that never sheds a copy before delivery floods, so it delivers at
// exactly the foremost-journey time, and it delivers nothing when no
// journey exists; the two that expire copies (dynamic TTL, EC+TTL) may
// be later, never earlier. The matrix is four substrates × 12 seeds ×
// six (source, destination, start) draws × nine protocol specs, all on
// one Runner, so populations of 12 to 96 nodes grow and shrink between
// its runs and the oracle checks reuse as well.
func TestFloodIsForemostJourney(t *testing.T) {
	exact := []string{"pure", "immunity", "cumimmunity", "pq:p=1,q=1", "pq:p=1,q=1,anti", "ec", "ttl:1000000000"}
	neverEarly := []string{"dynttl", "ecttl"}
	var w core.Runner
	for _, next := range foremostPlans([]string{"subscriber", "cambridge", "rwp:nodes=40", "interval:max=2000"}, 12) {
		p := <-next
		if p.err != nil {
			t.Fatalf("%s seed %d: %v", p.spec, p.seed, p.err)
		}
		draw := rand.New(rand.NewPCG(p.seed, 12))
		for range 6 {
			src := contact.NodeID(draw.IntN(p.plan.Nodes))
			dst := contact.NodeID(draw.IntN(p.plan.Nodes - 1))
			if dst >= src {
				dst++
			}
			start := sim.Time(draw.IntN(int(p.plan.Horizon() / 2)))
			want, reachable := foremostArrival(p.plan, src, dst, start, core.DefaultTxTime)
			for _, proto := range append(exact, neverEarly...) {
				name := fmt.Sprintf("%s seed %d, %d→%d from %v, %s", p.spec, p.seed, src, dst, start, proto)
				f, err := protocol.Parse(proto)
				if err != nil {
					t.Fatal(err)
				}
				res, err := w.Run(core.Config{
					Schedule: p.plan,
					Protocol: f.New(),
					Flows:    []core.Flow{{Src: src, Dst: dst, Count: 1, StartAt: start}},
					Seed:     p.seed,
				})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				got, delivered := res.DeliveryTimes[bundle.ID{Src: src, Seq: 1}]
				switch {
				case delivered && !reachable:
					t.Errorf("%s: delivered at %v with no journey to the destination", name, got)
				case delivered && got < want:
					t.Errorf("%s: delivered at %v, before the foremost journey's %v", name, got, want)
				case slices.Contains(exact, proto) && (delivered != reachable || got != want):
					t.Errorf("%s: delivered %v at %v; the foremost journey arrives (%v) at %v",
						name, delivered, got, reachable, want)
				}
			}
		}
	}
}

// foremostPlan is one materialized contact plan of the oracle's matrix,
// or the error that kept it from being built.
type foremostPlan struct {
	spec string
	seed uint64
	plan *contact.Schedule
	err  error
}

// foremostPlans materializes the plans of every spec at seeds 1..seeds
// on two goroutines, each into its own slot, while the caller runs the
// plans in slot order: generating the 40-node classic-RWP plans takes
// longer than running them.
func foremostPlans(specs []string, seeds int) []chan foremostPlan {
	slots := make([]chan foremostPlan, len(specs)*seeds)
	for i := range slots {
		slots[i] = make(chan foremostPlan, 1)
	}
	var next atomic.Int64
	for range 2 {
		go func() {
			for i := int(next.Add(1) - 1); i < len(slots); i = int(next.Add(1) - 1) {
				p := foremostPlan{spec: specs[i/seeds], seed: uint64(i%seeds + 1)}
				var model mobility.Source
				if model, p.err = mobility.Parse(p.spec); p.err == nil {
					var stream contact.Source
					if stream, p.err = model.Stream(p.seed); p.err == nil {
						p.plan, p.err = contact.Materialize(stream)
					}
				}
				slots[i] <- p
			}
		}()
	}
	return slots
}
