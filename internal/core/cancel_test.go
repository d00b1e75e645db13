package core

import (
	"context"
	"errors"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/mobility"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// cancelConfig builds a deterministic trace-backed run for the
// cancellation tests.
func cancelConfig(t *testing.T) Config {
	t.Helper()
	sched, err := materialize(mobility.SyntheticCambridge{Seed: 42}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	fac, err := protocol.Parse("pure")
	if err != nil {
		t.Fatal(err)
	}
	return Config{
		Schedule:     sched,
		Protocol:     fac.New(),
		Flows:        []Flow{{Src: 0, Dst: 7, Count: 25}},
		Seed:         42,
		RunToHorizon: true,
	}
}

func TestRunPreCancelledContext(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cfg := cancelConfig(t)
	cfg.Context = ctx
	res, err := Run(cfg)
	if err == nil {
		t.Fatalf("pre-cancelled run returned a result: %+v", res)
	}
	if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
		t.Errorf("error should wrap ErrCancelled and context.Canceled: %v", err)
	}
	// Nothing ran: the run stopped at the first flow start, not at the
	// loop's "no epoch completed yet" sentinel.
	if want := "core: run cancelled at t=0s: context canceled"; err.Error() != want {
		t.Errorf("error = %q; want %q", err, want)
	}
}

func TestRunCancelMidRun(t *testing.T) {
	full, err := Run(cancelConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{0, 2} {
		// Cancel from inside the event stream: the first transmission
		// pulls the plug, so the run is provably past setup and
		// mid-simulation when the loop's next poll sees the cancel.
		ctx, cancel := context.WithCancel(context.Background())
		cfg := cancelConfig(t)
		cfg.Context = ctx
		cfg.Shards = shards
		transmits := 0
		cfg.Observers = []Observer{&FuncObserver{
			Transmit: func(from, to contact.NodeID, id bundle.ID, now sim.Time) {
				transmits++
				cancel()
			},
		}}
		res, err := Run(cfg)
		cancel()
		if err == nil {
			t.Fatalf("Shards=%d: cancelled run returned a result: %+v", shards, res)
		}
		if !errors.Is(err, ErrCancelled) || !errors.Is(err, context.Canceled) {
			t.Errorf("Shards=%d: error should wrap ErrCancelled and context.Canceled: %v", shards, err)
		}
		if transmits == 0 {
			t.Fatalf("Shards=%d: observer never fired; the run was not cancelled mid-stream", shards)
		}
		// After the cancel at the first transmission the run may finish
		// at most the epoch in flight — far short of draining the
		// schedule.
		if int64(transmits) >= full.DataTransmissions {
			t.Errorf("Shards=%d: cancelled run transmitted %d of %d bundles; cancellation did not truncate it",
				shards, transmits, full.DataTransmissions)
		}
	}
}

func TestRunDeadlineExceeded(t *testing.T) {
	// An already-expired deadline must abort with DeadlineExceeded; the
	// zero-duration timeout keeps the test wall-clock independent.
	ctx, cancel := context.WithTimeout(context.Background(), 0)
	defer cancel()
	cfg := cancelConfig(t)
	cfg.Context = ctx
	if _, err := Run(cfg); !errors.Is(err, context.DeadlineExceeded) {
		t.Errorf("expired deadline: got %v, want DeadlineExceeded", err)
	}
}

func TestRunLiveContextBitIdentical(t *testing.T) {
	// A context that never cancels must not perturb the run: the
	// interrupt only polls, the event stream is untouched.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	plain, err := Run(cancelConfig(t))
	if err != nil {
		t.Fatal(err)
	}
	cfg := cancelConfig(t)
	cfg.Context = ctx
	withCtx, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if plain.Delivered != withCtx.Delivered ||
		plain.FinishedAt != withCtx.FinishedAt ||
		plain.ControlRecords != withCtx.ControlRecords ||
		plain.DataTransmissions != withCtx.DataTransmissions ||
		plain.MeanOccupancy != withCtx.MeanOccupancy ||
		plain.MeanDuplication != withCtx.MeanDuplication {
		t.Errorf("live context perturbed the run:\nplain   %+v\nwithCtx %+v", plain, withCtx)
	}
}
