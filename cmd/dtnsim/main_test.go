package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtnsim"
)

// TestBuildScenarioKinds: each built-in -mob spec parses, says whether
// a sweep regenerates it per run (the synthetic models do; the fixed
// Cambridge trace does not), and streams a valid schedule; an unknown
// kind is refused.
func TestBuildScenarioKinds(t *testing.T) {
	perRun := map[string]bool{"cambridge": false, "subscriber": true, "rwp": true, "interval:max=400": true}
	for spec, want := range perRun {
		sc, err := dtnsim.ParseMobilitySpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if sc.PerRunSchedule != want {
			t.Errorf("%s: PerRunSchedule = %v, want %v", spec, sc.PerRunSchedule, want)
		}
		s, err := materialize(sc, 3)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	if _, err := dtnsim.ParseMobilitySpec("bogus"); err == nil {
		t.Error("unknown mobility accepted")
	}
}

// TestBuildScenarioFromFile: -mob trace:PATH replays the file, shared
// across sweep runs, contact for contact; a missing file parses (specs
// never touch the filesystem) but fails when the run opens it.
func TestBuildScenarioFromFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.txt")
	gen, err := dtnsim.CambridgeTrace(5)
	if err != nil {
		t.Fatal(err)
	}
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := dtnsim.WriteTrace(f, gen); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	sc, err := dtnsim.ParseMobilitySpec("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if sc.PerRunSchedule {
		t.Error("a fixed trace file must be shared across runs")
	}
	s, err := materialize(sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(s.Contacts) != len(gen.Contacts) {
		t.Errorf("file round trip: %d contacts, want %d", len(s.Contacts), len(gen.Contacts))
	}
	missing, err := dtnsim.ParseMobilitySpec("trace:" + filepath.Join(t.TempDir(), "missing"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := materialize(missing, 0); err == nil {
		t.Error("missing file accepted")
	}
}

func TestBuildProtocolKinds(t *testing.T) {
	specs := []string{"pure", "pq:p=0.5,q=0.5", "ttl:300", "dynttl", "ec", "ecttl", "immunity", "cumimmunity"}
	for _, spec := range specs {
		f, err := dtnsim.ParseProtocolSpec(spec)
		if err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
		if f.New().Name() == "" {
			t.Errorf("%s: empty name", spec)
		}
	}
	f, err := dtnsim.ParseProtocolSpec("pq:p=1,q=1,anti")
	if err != nil {
		t.Fatal(err)
	}
	if name := f.New().Name(); name != "P-Q epidemic (P=1,Q=1,anti-packets)" {
		t.Errorf("anti-packet variant name = %q", name)
	}
	if _, err := dtnsim.ParseProtocolSpec("bogus"); err == nil {
		t.Error("unknown protocol accepted")
	}
}

// TestBuildProtocolRejectsOutOfRange: bad P-Q probabilities and TTLs
// must surface as errors at the CLI boundary, not as panics.
func TestBuildProtocolRejectsOutOfRange(t *testing.T) {
	defer func() {
		if r := recover(); r != nil {
			t.Fatalf("ParseProtocolSpec panicked: %v", r)
		}
	}()
	for _, spec := range []string{"pq:p=2,q=0.5", "pq:p=0.5,q=-1", "ttl:-10", "ttl:0"} {
		if _, err := dtnsim.ParseProtocolSpec(spec); err == nil {
			t.Errorf("%s accepted", spec)
		}
	}
}

// TestNoOperands: an argument left after the flags is a usage error.
// Flag parsing stops at it, so "-dump -sweep nosuchfile.json -seed 3"
// used to dump the default sweep, exit 0 and drop -seed.
func TestNoOperands(t *testing.T) {
	if err := noOperands(nil); err != nil {
		t.Errorf("no arguments: %v", err)
	}
	for _, args := range [][]string{{"nosuchfile.json"}, {"nosuchfile.json", "-seed", "3"}} {
		err := noOperands(args)
		if err == nil {
			t.Errorf("%q accepted", args)
			continue
		}
		if !strings.Contains(err.Error(), "nosuchfile.json") {
			t.Errorf("%q: error %q does not name the argument", args, err)
		}
	}
}

// materialize drains the scenario's mobility stream for seed into a
// Schedule.
func materialize(sc dtnsim.ExperimentScenario, seed uint64) (*dtnsim.Schedule, error) {
	src, err := sc.Stream(seed)
	if err != nil {
		return nil, err
	}
	return dtnsim.MaterializeSource(src)
}
