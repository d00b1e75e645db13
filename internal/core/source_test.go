package core

import (
	"context"
	"errors"
	"math"
	"reflect"
	"strings"
	"testing"
	"time"

	"dtnsim/internal/contact"
	"dtnsim/internal/mobility"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// fakeSource is a scriptable contact source for engine-level tests.
type fakeSource struct {
	contacts []contact.Contact
	nodes    int
	horizon  sim.Time
	i        int
	err      error
	closed   int
}

func (f *fakeSource) Next() (contact.Contact, bool) {
	if f.i >= len(f.contacts) {
		return contact.Contact{}, false
	}
	c := f.contacts[f.i]
	f.i++
	return c, true
}
func (f *fakeSource) Nodes() int        { return f.nodes }
func (f *fakeSource) Horizon() sim.Time { return f.horizon }
func (f *fakeSource) Err() error        { return f.err }
func (f *fakeSource) Close() error      { f.closed++; return nil }

func sourceConfig(src contact.Source) Config {
	return Config{
		Source:   src,
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 1}},
	}
}

func TestConfigRejectsBothPlans(t *testing.T) {
	cfg := validConfig(t)
	cfg.Source = cfg.Schedule.Stream()
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("both Schedule and Source: err = %v, want ErrConfig", err)
	}
}

func TestConfigRejectsNoPlan(t *testing.T) {
	cfg := validConfig(t)
	cfg.Schedule = nil
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("no contact plan: err = %v, want ErrConfig", err)
	}
}

// TestConfigRequiresHorizonForSource pins the satellite fix: a source
// that cannot report its extent must be paired with an explicit
// horizon, instead of the old silent run-to-t=0.
func TestConfigRequiresHorizonForSource(t *testing.T) {
	src := &fakeSource{nodes: 2, horizon: 0,
		contacts: []contact.Contact{{A: 0, B: 1, Start: 100, End: 1100}}}
	cfg := sourceConfig(src)
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Fatalf("zero-horizon source without explicit horizon: err = %v, want ErrConfig", err)
	}
	src.i = 0
	cfg.Horizon = 1100
	if _, err := Run(cfg); err != nil {
		t.Fatalf("explicit horizon must satisfy the source path: %v", err)
	}
}

func TestConfigRejectsNegativeHorizon(t *testing.T) {
	for _, h := range []float64{-10, math.NaN(), math.Inf(1)} {
		cfg := validConfig(t)
		cfg.Horizon = sim.Time(h)
		if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("horizon %v: err = %v, want ErrConfig", h, err)
		}
	}
}

func TestEmptySourceRejected(t *testing.T) {
	cfg := sourceConfig(&fakeSource{nodes: 2, horizon: 1000})
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("empty source: err = %v, want ErrConfig", err)
	}
}

func TestTinySourceRejected(t *testing.T) {
	cfg := sourceConfig(&fakeSource{nodes: 1, horizon: 1000,
		contacts: []contact.Contact{{A: 0, B: 1, Start: 1, End: 2}}})
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("1-node source: err = %v, want ErrConfig", err)
	}
}

// TestStreamedContactsValidatedIncrementally: invalid or out-of-order
// contacts surfaced mid-stream abort the run with an error instead of
// corrupting it.
func TestStreamedContactsValidatedIncrementally(t *testing.T) {
	for name, contacts := range map[string][]contact.Contact{
		"unsorted": {
			{A: 0, B: 1, Start: 500, End: 600},
			{A: 0, B: 1, Start: 100, End: 200},
		},
		"invalid": {
			{A: 0, B: 1, Start: 100, End: 200},
			{A: 1, B: 1, Start: 300, End: 400},
		},
		"out-of-range": {
			{A: 0, B: 1, Start: 100, End: 200},
			{A: 0, B: 7, Start: 300, End: 400},
		},
	} {
		cfg := sourceConfig(&fakeSource{nodes: 2, horizon: 1000, contacts: contacts})
		if _, err := Run(cfg); err == nil {
			t.Errorf("%s stream accepted", name)
		}
	}
}

// TestNonFiniteContactTimesRefused: a NaN or infinite contact time is
// an ErrConfig on a Config.Schedule and fails checkStreamed on a Source.
// An infinite end that got through would make the horizon +Inf, where a
// RunToHorizon run never ends; the context bounds the test in that case.
func TestNonFiniteContactTimesRefused(t *testing.T) {
	nan, inf := sim.Time(math.NaN()), sim.Time(math.Inf(1))
	for name, bad := range map[string]contact.Contact{
		"NaN start": {A: 0, B: 1, Start: nan, End: 5},
		"NaN end":   {A: 0, B: 1, Start: 1, End: nan},
		"Inf end":   {A: 0, B: 1, Start: 1, End: inf},
	} {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		cfg := validConfig(t)
		cfg.Schedule = &contact.Schedule{Nodes: 2, Contacts: []contact.Contact{bad}}
		cfg.RunToHorizon = true
		cfg.Context = ctx
		if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s on a Schedule: err = %v, want ErrConfig", name, err)
		}
		cfg = sourceConfig(&fakeSource{nodes: 2, horizon: 1000, contacts: []contact.Contact{bad}})
		cfg.RunToHorizon = true
		cfg.Context = ctx
		if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "streamed contact") {
			t.Errorf("%s on a Source: err = %v, want a streamed-contact error", name, err)
		}
		cancel()
	}
}

// TestRunRefusesEndlessHorizons: a run whose horizon never comes is
// refused before it starts, with no context deadline to stop it. A
// contact ending at sim.Infinity (the engine's "never") is invalid on
// either path into the engine; a finite horizon more than maxTicks
// sampling periods past the first flow start is a config error.
func TestRunRefusesEndlessHorizons(t *testing.T) {
	endless := contact.Contact{A: 0, B: 1, Start: 1, End: sim.Infinity}
	far := contact.Contact{A: 0, B: 1, Start: 1, End: sim.Infinity / 10}
	flows := []Flow{{Src: 0, Dst: 1, Count: 1}}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"schedule to sim.Infinity", Config{Schedule: sched(2, endless)}},
		{"schedule past the tick bound", Config{Schedule: sched(2, far)}},
		{"horizon past the tick bound", Config{Schedule: twoNodeSchedule(t), Horizon: sim.Infinity / 10}},
		{"sample period too short for the tick bound", Config{Schedule: sched(2, contact.Contact{A: 0, B: 1, Start: 1, End: 1e6}), SampleEvery: 1e-3}},
		{"source past the tick bound", Config{Source: sched(2, far).Stream()}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := tc.cfg
			cfg.Protocol, cfg.Flows, cfg.RunToHorizon = protocol.NewPure(), flows, true
			if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
				t.Errorf("err = %v, want ErrConfig", err)
			}
		})
	}
	// A streamed contact to sim.Infinity fails at its pull, the run's
	// first, whatever horizon the source reports.
	cfg := sourceConfig(&fakeSource{nodes: 2, horizon: 1000, contacts: []contact.Contact{endless}})
	cfg.RunToHorizon = true
	if _, err := Run(cfg); err == nil || !strings.Contains(err.Error(), "streamed contact") {
		t.Errorf("contact to sim.Infinity on a Source: err = %v, want a streamed-contact error", err)
	}
}

// TestShippedScenarioWithAddedContactRuns: the tick bound sits far
// above every shipped scenario. The default Cambridge plan with one more
// contact a day past its end still runs, to the new horizon.
func TestShippedScenarioWithAddedContactRuns(t *testing.T) {
	s, err := materialize(mobility.SyntheticCambridge{Seed: 42}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	end := s.Horizon() + 86400
	s.Contacts = append(s.Contacts, contact.Contact{A: 0, B: 1, Start: end - 600, End: end})
	r, err := Run(Config{
		Schedule:     s,
		Protocol:     protocol.NewImmunity(),
		Flows:        []Flow{{Src: 0, Dst: 7, Count: 50}},
		RunToHorizon: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.FinishedAt != end {
		t.Errorf("run finished at %v, want the added contact's end %v", r.FinishedAt, end)
	}
}

// TestSourceErrSurfaces: a source failing mid-stream (disk error)
// truncates the run with its error.
func TestSourceErrSurfaces(t *testing.T) {
	src := &fakeSource{nodes: 2, horizon: 1000,
		contacts: []contact.Contact{{A: 0, B: 1, Start: 100, End: 300}},
		err:      errors.New("disk on fire")}
	cfg := sourceConfig(src)
	cfg.Flows = []Flow{{Src: 0, Dst: 1, Count: 50}} // cannot finish in one contact
	cfg.RunToHorizon = true
	if _, err := Run(cfg); err == nil || !errors.Is(err, src.err) {
		t.Errorf("source error not surfaced: %v", err)
	}
}

// TestSourceClosedOnEarlyStop: a Closer source is released even when
// the run terminates before draining it.
func TestSourceClosedOnEarlyStop(t *testing.T) {
	src := &fakeSource{nodes: 2, horizon: 10000, contacts: []contact.Contact{
		{A: 0, B: 1, Start: 100, End: 1100},
		{A: 0, B: 1, Start: 2000, End: 3100},
		{A: 0, B: 1, Start: 4000, End: 5100},
	}}
	cfg := sourceConfig(src) // single bundle: delivered in the first contact
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	if src.closed == 0 {
		t.Error("io.Closer source not closed by Run")
	}
}

// TestAdaptiveHorizonMatchesMaterialized: a source reporting only a
// span upper bound must still end the run at the true latest contact
// end, exactly like the materialized schedule whose horizon is known up
// front.
func TestAdaptiveHorizonMatchesMaterialized(t *testing.T) {
	contacts := []contact.Contact{
		{A: 0, B: 1, Start: 100, End: 1100},
		{A: 1, B: 2, Start: 2500, End: 2600},
		{A: 0, B: 2, Start: 5000, End: 7300},
	}
	sched := &contact.Schedule{Nodes: 3, Contacts: contacts}
	if err := sched.Validate(); err != nil {
		t.Fatal(err)
	}
	run := func(cfg Config) *Result {
		cfg.Protocol = protocol.NewPure()
		cfg.Flows = []Flow{{Src: 0, Dst: 2, Count: 3}}
		cfg.RunToHorizon = true
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	mat := run(Config{Schedule: sched})
	// The source reports a generous span (the generator's configured
	// horizon), strictly above the real latest end.
	str := run(Config{Source: &fakeSource{nodes: 3, horizon: 50000, contacts: contacts}})
	if !reflect.DeepEqual(mat, str) {
		t.Errorf("adaptive horizon diverged:\nmaterialized: %+v\nstreamed:     %+v", mat, str)
	}
	if str.FinishedAt != 7300 {
		t.Errorf("run finished at %v, want the latest contact end 7300", str.FinishedAt)
	}
}
