package dtnsim_test

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"dtnsim"
)

// goProtocol builds the Go-constructor equivalent of each canonical
// registry spec, for the JSON-versus-Go determinism comparison.
func goProtocol(t *testing.T, spec string) dtnsim.Protocol {
	t.Helper()
	switch spec {
	case "pure":
		return dtnsim.Pure()
	case "pq:p=1,q=1":
		return dtnsim.PQ(1, 1)
	case "ttl:300":
		return dtnsim.TTL(300)
	case "ec":
		return dtnsim.EC()
	case "immunity":
		return dtnsim.Immunity()
	case "dynttl":
		return dtnsim.DynamicTTL()
	case "ecttl":
		return dtnsim.ECTTL()
	case "cumimmunity":
		return dtnsim.CumulativeImmunity()
	}
	t.Fatalf("no Go constructor mapped for %q", spec)
	return nil
}

// TestScenarioJSONMatchesGoConstruction is the paper-framework
// acceptance property: a scenario defined purely as JSON reproduces,
// bit-identically, the Result of the equivalent Go-constructed run —
// for a trace-based and an RWP-based scenario, across all 8 paper
// protocols via registry specs.
func TestScenarioJSONMatchesGoConstruction(t *testing.T) {
	mobilities := []struct {
		name string
		spec string
		gen  func(seed uint64) (*dtnsim.Schedule, error)
	}{
		{"trace", "cambridge", dtnsim.CambridgeTrace},
		{"rwp", "subscriber", dtnsim.SubscriberRWP},
	}
	for _, mob := range mobilities {
		for _, protoSpec := range dtnsim.BuiltinProtocolSpecs() {
			protoSpec := protoSpec
			t.Run(mob.name+"/"+string(protoSpec), func(t *testing.T) {
				const seed, load = 42, 5
				schedule, err := mob.gen(seed)
				if err != nil {
					t.Fatal(err)
				}
				want, err := dtnsim.Run(dtnsim.Config{
					Schedule: schedule,
					Protocol: goProtocol(t, string(protoSpec)),
					Flows:    []dtnsim.Flow{{Src: 0, Dst: 7, Count: load}},
					Seed:     seed,
				})
				if err != nil {
					t.Fatal(err)
				}

				raw := fmt.Sprintf(`{
					"mobility": %q,
					"protocol": %q,
					"flows": [{"src": 0, "dst": 7, "count": %d}],
					"seed": %d
				}`, mob.spec, protoSpec, load, seed)
				sc, err := dtnsim.ParseScenario([]byte(raw))
				if err != nil {
					t.Fatal(err)
				}
				got, err := dtnsim.RunScenario(sc)
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(got, want) {
					t.Errorf("JSON-defined run diverged from Go-constructed run:\n got: %+v\nwant: %+v", got, want)
				}
			})
		}
	}
}

func TestScenarioJSONRoundTrip(t *testing.T) {
	sc := dtnsim.Scenario{
		Name:         "rt",
		Mobility:     "interval:max=2000",
		Protocol:     "pq:p=0.8,q=0.5,anti",
		Flows:        []dtnsim.Flow{{Src: 1, Dst: 3, Count: 7, StartAt: 50, Size: 1 << 20}},
		BufferCap:    20,
		TxTime:       25,
		SampleEvery:  500,
		Seed:         9,
		RunToHorizon: true,
		Bandwidth:    5e4,
		BundleSize:   1 << 19,
		BufferBytes:  5 << 20,
		DropPolicy:   "dropfront",
		ControlBytes: 64,
	}
	data, err := sc.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := dtnsim.ParseScenario(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sc) {
		t.Errorf("round trip changed the scenario:\n got: %+v\nwant: %+v", back, sc)
	}
}

func TestParseScenarioRejectsBadInput(t *testing.T) {
	bad := map[string]string{
		"unknown field":    `{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":1,"count":1}],"wormholes":3}`,
		"missing mobility": `{"protocol":"pure","flows":[{"src":0,"dst":1,"count":1}]}`,
		"missing protocol": `{"mobility":"cambridge","flows":[{"src":0,"dst":1,"count":1}]}`,
		"bad proto spec":   `{"mobility":"cambridge","protocol":"pq:p=7","flows":[{"src":0,"dst":1,"count":1}]}`,
		"bad mob spec":     `{"mobility":"warpdrive","protocol":"pure","flows":[{"src":0,"dst":1,"count":1}]}`,
		"no flows":         `{"mobility":"cambridge","protocol":"pure"}`,
		"not json":         `mobility=cambridge`,
		"bad drop policy":  `{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":1,"count":1}],"drop":"nosuch"}`,
	}
	for name, raw := range bad {
		if _, err := dtnsim.ParseScenario([]byte(raw)); !errors.Is(err, dtnsim.ErrScenario) {
			t.Errorf("%s: err = %v, want ErrScenario", name, err)
		}
	}
}

// TestSweepSpecMatchesFigureSweep: a figure's serialized SweepSpec must
// compile back to a sweep that produces identical results.
func TestSweepSpecMatchesFigureSweep(t *testing.T) {
	fig, err := dtnsim.FigureByID("fig13")
	if err != nil {
		t.Fatal(err)
	}
	fig.Sweep.Runs = 2
	fig.Sweep.BaseSeed = 7
	fig.Sweep.Loads = []int{5, 10}
	want, err := dtnsim.RunSweep(fig.Sweep)
	if err != nil {
		t.Fatal(err)
	}

	spec, err := dtnsim.SweepSpecOf(fig.ID, fig.Sweep)
	if err != nil {
		t.Fatal(err)
	}
	data, err := spec.JSON()
	if err != nil {
		t.Fatal(err)
	}
	parsed, err := dtnsim.ParseSweepSpec(data)
	if err != nil {
		t.Fatal(err)
	}
	got, err := dtnsim.RunSweepSpec(parsed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("SweepSpec-defined sweep diverged from figure sweep:\n got: %+v\nwant: %+v", got, want)
	}
}

// TestEveryFigureSerializes: every figure and ablation must be
// expressible as data now that scenarios and factories carry specs.
func TestEveryFigureSerializes(t *testing.T) {
	for _, f := range dtnsim.AllExperiments() {
		if f.ID == "fig14" {
			continue // runs as a scenario pair; covered via Fig14Pair below
		}
		spec, err := dtnsim.SweepSpecOf(f.ID, f.Sweep)
		if err != nil {
			t.Errorf("%s: %v", f.ID, err)
			continue
		}
		if _, err := spec.Compile(); err != nil {
			t.Errorf("%s: serialized spec does not compile: %v", f.ID, err)
		}
	}
	short, long := dtnsim.Fig14Pair()
	for i, sw := range []dtnsim.Sweep{short, long} {
		if _, err := dtnsim.SweepSpecOf("fig14", sw); err != nil {
			t.Errorf("fig14 pair %d: %v", i, err)
		}
	}
}

// TestStreamObserverWritesSeries checks the streaming CSV observer's
// shape: a header, sample rows in time order, and event rows only when
// enabled.
func TestStreamObserverWritesSeries(t *testing.T) {
	sc, err := dtnsim.ParseScenario([]byte(
		`{"mobility":"cambridge","protocol":"ttl:300","flows":[{"src":0,"dst":7,"count":5}],"seed":3}`))
	if err != nil {
		t.Fatal(err)
	}
	var series, events strings.Builder
	samplesOnly := dtnsim.NewStreamObserver(&series, false)
	everything := dtnsim.NewStreamObserver(&events, true)
	if _, err := dtnsim.RunScenario(sc, samplesOnly, everything); err != nil {
		t.Fatal(err)
	}
	if err := samplesOnly.Err(); err != nil {
		t.Fatal(err)
	}
	if err := everything.Err(); err != nil {
		t.Fatal(err)
	}

	sLines := strings.Split(strings.TrimSpace(series.String()), "\n")
	if sLines[0] != "time,event,node,peer,bundle,detail,occupancy,duplication" {
		t.Errorf("header = %q", sLines[0])
	}
	if len(sLines) < 2 {
		t.Fatal("no sample rows")
	}
	for _, line := range sLines[1:] {
		if !strings.Contains(line, ",sample,") {
			t.Errorf("series stream contains non-sample row %q", line)
		}
	}
	ev := events.String()
	for _, kind := range []string{",generate,", ",transmit,", ",deliver,", ",sample,"} {
		if !strings.Contains(ev, kind) {
			t.Errorf("event stream lacks %q rows", kind)
		}
	}
	if len(ev) <= len(series.String()) {
		t.Error("event stream should be a superset of the sample stream")
	}
}

// TestTraceFileRunsInCanonicalOrder: a run on -mob trace:PATH is the
// run on the same file parsed into Config.Schedule, event for event.
// The file's two 1000 s records are sorted by start but not by (A, B);
// the streamed file used to run them in file order, which moved the
// immunity run's events and its mean occupancy (0.0800 vs 0.0767).
func TestTraceFileRunsInCanonicalOrder(t *testing.T) {
	const trace = "0 2 0 300\n2 5 1000 1100\n2 1 1000 1100\n1 4 2000 2100\n"
	path := filepath.Join(t.TempDir(), "ties.txt")
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	run := func(cfg dtnsim.Config) (*dtnsim.Result, string) {
		var events strings.Builder
		obs := dtnsim.NewStreamObserver(&events, true)
		cfg.Observers = append(cfg.Observers, obs)
		res, err := dtnsim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := obs.Err(); err != nil {
			t.Fatal(err)
		}
		return res, events.String()
	}
	sc := dtnsim.Scenario{
		Mobility: dtnsim.MobilitySpec("trace:" + path),
		Protocol: "immunity",
		Flows:    []dtnsim.Flow{{Src: 0, Dst: 5, Count: 2}},
	}
	cfg, err := sc.Compile()
	if err != nil {
		t.Fatal(err)
	}
	streamed, streamedEvents := run(cfg)

	schedule, err := dtnsim.ParseTrace(strings.NewReader(trace))
	if err != nil {
		t.Fatal(err)
	}
	parsed, parsedEvents := run(dtnsim.Config{Schedule: schedule, Protocol: dtnsim.Immunity(), Flows: sc.Flows})

	if streamedEvents != parsedEvents {
		t.Errorf("events differ:\ntrace:PATH\n%s\nParseTrace\n%s", streamedEvents, parsedEvents)
	}
	if !reflect.DeepEqual(streamed, parsed) {
		t.Errorf("results differ:\ntrace:PATH %+v\nParseTrace %+v", streamed, parsed)
	}
}

// TestScenarioNormalize pins the canonicalization used by -dump.
func TestScenarioNormalize(t *testing.T) {
	sc := dtnsim.Scenario{
		Mobility: "interval:min=100,max=400",
		Protocol: "pq:q=0.5,p=0.8",
		Flows:    []dtnsim.Flow{{Src: 0, Dst: 1, Count: 1}},
	}
	norm, err := sc.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if norm.Mobility != "interval:max=400,min=100" {
		t.Errorf("mobility canonical = %q", norm.Mobility)
	}
	if norm.Protocol != "pq:p=0.8,q=0.5" {
		t.Errorf("protocol canonical = %q", norm.Protocol)
	}
	data, err := json.Marshal(norm)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(string(data), `"name"`) {
		t.Error("empty name serialized")
	}
}

func TestParseScenarioRejectsTrailingContent(t *testing.T) {
	raw := `{"mobility":"cambridge","protocol":"pure","flows":[{"src":0,"dst":1,"count":1}]}{"protocol":"ttl:300"}`
	if _, err := dtnsim.ParseScenario([]byte(raw)); !errors.Is(err, dtnsim.ErrScenario) {
		t.Errorf("trailing content: err = %v, want ErrScenario", err)
	}
	sweep := `{"scenario":{"mobility":"cambridge"},"protocols":["pure"]} garbage`
	if _, err := dtnsim.ParseSweepSpec([]byte(sweep)); !errors.Is(err, dtnsim.ErrScenario) {
		t.Errorf("sweep trailing content: err = %v, want ErrScenario", err)
	}
}

func TestSweepSpecRejectsUnsupportedTemplateKnobs(t *testing.T) {
	for _, raw := range []string{
		`{"scenario":{"mobility":"cambridge","sample_every":50},"protocols":["pure"]}`,
		`{"scenario":{"mobility":"cambridge","records_per_slot":3},"protocols":["pure"]}`,
		`{"scenario":{"mobility":"cambridge","horizon":100},"protocols":["pure"]}`,
		// A load must be a positive bundle count and runs non-negative:
		// these used to parse, then fail mid-grid or run (and key) as 10.
		`{"scenario":{"mobility":"cambridge"},"protocols":["pure"],"loads":[0]}`,
		`{"scenario":{"mobility":"cambridge"},"protocols":["pure"],"loads":[5,-5]}`,
		`{"scenario":{"mobility":"cambridge"},"protocols":["pure"],"runs":-3}`,
		// Nor may workers be negative: it used to run on every CPU.
		`{"scenario":{"mobility":"cambridge"},"protocols":["pure"],"workers":-3}`,
	} {
		if _, err := dtnsim.ParseSweepSpec([]byte(raw)); !errors.Is(err, dtnsim.ErrScenario) {
			t.Errorf("%s: err = %v, want ErrScenario", raw, err)
		}
	}
	// run_to_horizon true matches what sweeps do anyway and is accepted.
	ok := `{"scenario":{"mobility":"cambridge","run_to_horizon":true},"protocols":["pure"]}`
	if _, err := dtnsim.ParseSweepSpec([]byte(ok)); err != nil {
		t.Errorf("run_to_horizon=true rejected: %v", err)
	}
}

// TestScenarioResourceKeysBind: the bw/size keys in a scenario file
// reach the engine — a starved bandwidth delivers strictly less than
// the same scenario unconstrained.
func TestScenarioResourceKeysBind(t *testing.T) {
	base := `{"mobility":"cambridge:seed=7","protocol":"pure",
		"flows":[{"src":0,"dst":7,"count":30}],
		"run_to_horizon":true,"seed":7%s}`
	run := func(extra string) *dtnsim.Result {
		sc, err := dtnsim.ParseScenario([]byte(fmt.Sprintf(base, extra)))
		if err != nil {
			t.Fatal(err)
		}
		res, err := dtnsim.RunScenario(sc)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	free := run("")
	starved := run(`,"bw":1000,"size":1048576`)
	if !(starved.Delivered < free.Delivered) {
		t.Errorf("starved scenario delivered %d, unconstrained %d; want strictly less",
			starved.Delivered, free.Delivered)
	}
	// Byte capacity with a drop policy binds too and is accounted.
	pressured := run(`,"size":1048576,"bufbytes":3145728,"drop":"dropfront"`)
	if pressured.ByteDropped == 0 {
		t.Error("bufbytes+drop keys did not produce byte-pressure drops")
	}
}

// TestSweepSpecOfRefusesWhatItCannotSpell: SweepSpec has no key for a
// sweep's axis or its drop-policy series, so SweepSpecOf refuses a
// bandwidth sweep and a load sweep with policy series instead of
// writing a spec that would run a different experiment.
func TestSweepSpecOfRefusesWhatItCannotSpell(t *testing.T) {
	withPolicies := dtnsim.BandwidthSweep()
	withPolicies.Axis = dtnsim.SweepAxis{}
	plain := withPolicies
	plain.DropPolicies = nil
	if _, err := dtnsim.SweepSpecOf("load", plain); err != nil {
		t.Fatalf("plain load sweep refused: %v", err)
	}
	for name, sw := range map[string]dtnsim.Sweep{"bandwidth": dtnsim.BandwidthSweep(), "policies": withPolicies} {
		if _, err := dtnsim.SweepSpecOf(name, sw); !errors.Is(err, dtnsim.ErrScenario) {
			t.Errorf("%s sweep: SweepSpecOf error %v, want ErrScenario", name, err)
		}
	}
}

// TestConstrainedSweepSpecRoundTrip: a sweep template carrying the
// resource keys serializes and compiles back to the same runnable
// sweep, results included.
func TestConstrainedSweepSpecRoundTrip(t *testing.T) {
	raw := `{"scenario":{"mobility":"cambridge","bw":3000,"size":1048576,
		"bufbytes":5242880,"drop":"dropfront","ctlbytes":16,"seed":2012},
		"protocols":["pure"],"loads":[10],"runs":1,"metrics":["delivery"]}`
	spec, err := dtnsim.ParseSweepSpec([]byte(raw))
	if err != nil {
		t.Fatal(err)
	}
	sweep, err := spec.Compile()
	if err != nil {
		t.Fatal(err)
	}
	if sweep.Scenario.Bandwidth != 3000 || sweep.Scenario.BundleSize != 1048576 ||
		sweep.Scenario.BufferBytes != 5242880 || sweep.Scenario.DropPolicy != "dropfront" ||
		sweep.Scenario.ControlBytes != 16 {
		t.Fatalf("resource knobs lost in Compile: %+v", sweep.Scenario)
	}
	want, err := dtnsim.RunSweep(sweep)
	if err != nil {
		t.Fatal(err)
	}
	// Serialize back and re-run: bit-identical.
	back, err := dtnsim.SweepSpecOf("rt", sweep)
	if err != nil {
		t.Fatal(err)
	}
	if back.Scenario.Bandwidth != 3000 || back.Scenario.DropPolicy != "dropfront" {
		t.Fatalf("SweepSpecOf dropped resource knobs: %+v", back.Scenario)
	}
	got, err := dtnsim.RunSweepSpec(back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("re-serialized constrained sweep diverged:\n got: %+v\nwant: %+v", got, want)
	}
	// The unknown-policy template is rejected at compile time.
	badRaw := `{"scenario":{"mobility":"cambridge","drop":"nosuch"},"protocols":["pure"]}`
	if _, err := dtnsim.ParseSweepSpec([]byte(badRaw)); !errors.Is(err, dtnsim.ErrScenario) {
		t.Errorf("bad template policy: err = %v, want ErrScenario", err)
	}
}
