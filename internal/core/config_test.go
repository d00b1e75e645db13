package core

import (
	"errors"
	"math"
	"testing"

	"dtnsim/internal/bundle"
	"dtnsim/internal/contact"
	"dtnsim/internal/metrics"
	"dtnsim/internal/protocol"
	"dtnsim/internal/sim"
)

// twoNodeSchedule returns a minimal valid schedule.
func twoNodeSchedule(t *testing.T) *contact.Schedule {
	t.Helper()
	// The contact starts after the first sampling tick at t=0, so even
	// a run that completes in its first contact records one sample.
	s := &contact.Schedule{
		Nodes:    2,
		Contacts: []contact.Contact{{A: 0, B: 1, Start: 100, End: 1100}},
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	return s
}

func validConfig(t *testing.T) Config {
	t.Helper()
	return Config{
		Schedule: twoNodeSchedule(t),
		Protocol: protocol.NewPure(),
		Flows:    []Flow{{Src: 0, Dst: 1, Count: 1}},
	}
}

func TestValidateRejectsNegativeSampleEvery(t *testing.T) {
	cfg := validConfig(t)
	cfg.SampleEvery = -5
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("negative SampleEvery: err = %v, want ErrConfig", err)
	}
}

func TestValidateRejectsNegativeRecordsPerSlot(t *testing.T) {
	cfg := validConfig(t)
	cfg.RecordsPerSlot = -1
	if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
		t.Errorf("negative RecordsPerSlot: err = %v, want ErrConfig", err)
	}
}

func TestValidateDefaultsStillApply(t *testing.T) {
	// Exact zeros keep taking the paper's defaults.
	cfg := validConfig(t)
	cfg.SampleEvery = 0
	cfg.RecordsPerSlot = 0
	if _, err := Run(cfg); err != nil {
		t.Errorf("zero knobs must default, got %v", err)
	}
}

func TestObserversSeeEvents(t *testing.T) {
	cfg := validConfig(t)
	cfg.Flows = []Flow{{Src: 0, Dst: 1, Count: 3}}
	var generated, transmitted, delivered, sampled int
	cfg.Observers = []Observer{&FuncObserver{
		Generate: func(bundle.ID, contact.NodeID, sim.Time) { generated++ },
		Transmit: func(_, _ contact.NodeID, _ bundle.ID, _ sim.Time) { transmitted++ },
		Deliver:  func(bundle.ID, contact.NodeID, float64, sim.Time) { delivered++ },
		Sample:   func(metrics.Sample) { sampled++ },
	}}
	r, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if generated != 3 {
		t.Errorf("generated events = %d, want 3", generated)
	}
	if delivered != r.Delivered {
		t.Errorf("deliver events = %d, want %d", delivered, r.Delivered)
	}
	if int64(transmitted) != r.DataTransmissions {
		t.Errorf("transmit events = %d, want %d", transmitted, r.DataTransmissions)
	}
	if sampled == 0 {
		t.Error("no sample events")
	}
}

func TestObserverDoesNotPerturbResult(t *testing.T) {
	run := func(obs []Observer) *Result {
		cfg := validConfig(t)
		cfg.Flows = []Flow{{Src: 0, Dst: 1, Count: 5}}
		cfg.Observers = obs
		r, err := Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	plain := run(nil)
	observed := run([]Observer{&FuncObserver{}})
	if plain.Delivered != observed.Delivered || plain.MeanOccupancy != observed.MeanOccupancy ||
		plain.MeanDuplication != observed.MeanDuplication || plain.Makespan != observed.Makespan {
		t.Error("attaching an observer changed the result")
	}
}

// pullCounter counts the contacts a run pulls from its source.
type pullCounter struct {
	contact.Source
	pulled int
}

func (p *pullCounter) Next() (contact.Contact, bool) {
	p.pulled++
	return p.Source.Next()
}

// TestValidateRejectsNonFiniteStart: a flow that starts at NaN or +Inf
// passes `StartAt < 0` and would never start, so the run would never
// end; validation refuses it before the first contact is pulled.
func TestValidateRejectsNonFiniteStart(t *testing.T) {
	for _, at := range []float64{math.NaN(), math.Inf(1)} {
		src := &pullCounter{Source: twoNodeSchedule(t).Stream()}
		cfg := validConfig(t)
		cfg.Schedule, cfg.Source = nil, src
		cfg.Flows[0].StartAt = sim.Time(at)
		if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("StartAt %v: err = %v, want ErrConfig", at, err)
		}
		if src.pulled != 0 {
			t.Errorf("StartAt %v: %d contacts pulled before the refusal", at, src.pulled)
		}
	}
}

func TestValidateRejectsNonFiniteKnobs(t *testing.T) {
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"NaN SampleEvery", func(c *Config) { c.SampleEvery = math.NaN() }},
		{"+Inf SampleEvery", func(c *Config) { c.SampleEvery = math.Inf(1) }},
		{"NaN TxTime", func(c *Config) { c.TxTime = math.NaN() }},
		{"+Inf TxTime", func(c *Config) { c.TxTime = math.Inf(1) }},
	} {
		cfg := validConfig(t)
		tc.mut(&cfg)
		if _, err := Run(cfg); !errors.Is(err, ErrConfig) {
			t.Errorf("%s: err = %v, want ErrConfig", tc.name, err)
		}
	}
}
