package experiment

import (
	"io"
	"sync"

	"dtnsim/internal/contact"
	"dtnsim/internal/sim"
)

// replayBudget bounds the contacts one scenario retains across all its
// seeds: 1<<18 contacts at 40 B each is about 10 MiB.
const replayBudget = 1 << 18

// replay memoizes one scenario's contact plans by stream seed (see
// ScenarioFromSpec). A seed's first request gets the inner source
// itself; its second drains a fresh inner source once into a plan and
// publishes it; every later request, and every request made while the
// plan was being drained, replays it. A stream is deterministic, so a
// replay is the stream it recorded. A plan whose source erred, or that
// would push the retained total past the budget, is not kept: that
// seed streams per use.
type replay struct {
	stream func(seed uint64) (contact.Source, error)
	budget int

	mu    sync.Mutex
	kept  int                    // contacts in published plans
	plans map[uint64]*replayPlan // nil entry: requested once
}

// replayPlan is one seed's recording; plan and horizon are final once
// done is closed, and plan stays nil when the recording was not kept.
type replayPlan struct {
	done    chan struct{}
	plan    *contact.Schedule
	horizon sim.Time
}

func newReplay(stream func(uint64) (contact.Source, error), budget int) *replay {
	return &replay{stream: stream, budget: budget, plans: make(map[uint64]*replayPlan)}
}

// Stream has the signature of Scenario.Stream and is safe for
// concurrent calls; every source it returns is the caller's own.
func (r *replay) Stream(seed uint64) (contact.Source, error) {
	r.mu.Lock()
	p, seen := r.plans[seed]
	switch {
	case !seen:
		r.plans[seed] = nil
		r.mu.Unlock()
		return r.stream(seed)
	case p == nil:
		p = &replayPlan{done: make(chan struct{})}
		r.plans[seed] = p
		r.mu.Unlock()
		r.record(seed, p)
		close(p.done)
	default:
		r.mu.Unlock()
		<-p.done
	}
	if p.plan == nil {
		return r.stream(seed)
	}
	return &replaySource{*p.plan.Stream(), p.horizon}, nil
}

// record drains a fresh inner source for seed into p, if it ends
// cleanly and fits in what the budget has left.
func (r *replay) record(seed uint64, p *replayPlan) {
	src, err := r.stream(seed)
	if err != nil {
		return
	}
	if closer, ok := src.(io.Closer); ok {
		defer closer.Close() // a file-backed source abandoned over budget
	}
	plan, horizon := &contact.Schedule{Nodes: src.Nodes()}, src.Horizon()
	for c, ok := src.Next(); ok; c, ok = src.Next() {
		if len(plan.Contacts) == r.budget {
			return
		}
		plan.Contacts = append(plan.Contacts, c)
	}
	if src.Err() != nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.kept+len(plan.Contacts) > r.budget {
		return
	}
	r.kept += len(plan.Contacts)
	p.plan, p.horizon = plan, horizon
}

// replaySource replays a plan under the horizon its recording source
// reported, so the engine cannot tell the two apart.
type replaySource struct {
	contact.ScheduleSource
	horizon sim.Time
}

func (s *replaySource) Horizon() sim.Time { return s.horizon }
