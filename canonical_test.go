package dtnsim_test

// Property tests for the canonical content keys (canonical.go): a key
// must be invariant under every non-semantic respelling of a spec —
// JSON key order, whitespace, spec-parameter order, worker count — and
// distinct under every semantic field change. These two properties are
// what make the key safe as a result-cache address (DESIGN.md §11):
// invariance gives cache hits for equal runs, distinctness rules out
// serving one run's results for another.

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"dtnsim"
)

// keyScenario is the reference scenario every mutation test perturbs.
func keyScenario() dtnsim.Scenario {
	return dtnsim.Scenario{
		Name:         "ref",
		Mobility:     "cambridge:seed=7",
		Protocol:     "pq:p=0.8,q=0.5",
		Flows:        []dtnsim.Flow{{Src: 0, Dst: 7, Count: 25}},
		BufferCap:    20,
		TxTime:       50,
		Seed:         42,
		Bandwidth:    50000,
		BundleSize:   1 << 20,
		BufferBytes:  5 << 20,
		DropPolicy:   "dropfront",
		ControlBytes: 16,
	}
}

func mustKey(t *testing.T, s dtnsim.Scenario) string {
	t.Helper()
	k, err := s.CanonicalKey()
	if err != nil {
		t.Fatalf("CanonicalKey: %v", err)
	}
	return k
}

func TestScenarioKeyInvariantUnderJSONPermutation(t *testing.T) {
	// The same run spelled with permuted JSON key order, permuted
	// whitespace, and permuted spec parameters (q before p; explicit
	// default anti omitted) must map to the same key; so must a run
	// that spells out the engine defaults another omits.
	defaults := keyScenario()
	defaults.BufferCap, defaults.TxTime, defaults.DropPolicy = 0, 0, ""
	respellings := []struct {
		want dtnsim.Scenario
		raw  string
	}{
		{keyScenario(), `{
		  "seed": 42, "protocol": "pq:q=0.5,p=0.8",
		  "flows": [ {"count":25, "dst":7, "src":0} ],
		  "mobility":"cambridge:seed=7",
		  "drop":"dropfront","bufbytes":5242880,"size":1048576,"bw":50000,
		  "ctlbytes":16,"tx_time":50,"buffer_cap":20,"name":"ref"}`},
		{keyScenario(), "{\"name\":\"ref\",\"tx_time\":50,\"buffer_cap\":20,\"ctlbytes\":16,\n\t\"bw\":5e4,\"size\":1048576,\"bufbytes\":5242880,\"drop\":\"dropfront\",\n\t\"protocol\":\"pq:p=0.8,q=0.5\",\"mobility\":\"cambridge:seed=7\",\n\t\"flows\":[{\"src\":0,\"dst\":7,\"count\":25}],\"seed\":42}"},
		{defaults, `{"name":"ref","mobility":"cambridge:seed=7","protocol":"pq:p=0.8,q=0.5",
		  "flows":[{"src":0,"dst":7,"count":25}],"seed":42,"bw":50000,"size":1048576,
		  "bufbytes":5242880,"ctlbytes":16,"buffer_cap":10,"tx_time":100,
		  "records_per_slot":10,"sample_every":1000,"drop":"droptail"}`},
	}
	for i, tc := range respellings {
		ref := mustKey(t, tc.want)
		sc, err := dtnsim.ParseScenario([]byte(tc.raw))
		if err != nil {
			t.Fatalf("respelling %d does not parse: %v", i, err)
		}
		if got := mustKey(t, sc); got != ref {
			t.Errorf("respelling %d changed the key:\n got %s\nwant %s", i, got, ref)
		}
	}
}

func TestScenarioKeyDistinctUnderSemanticChange(t *testing.T) {
	ref := keyScenario()
	refKey := mustKey(t, ref)
	mutations := map[string]func(*dtnsim.Scenario){
		"name":        func(s *dtnsim.Scenario) { s.Name = "other" },
		"mobility":    func(s *dtnsim.Scenario) { s.Mobility = "cambridge:seed=8" },
		"protocol":    func(s *dtnsim.Scenario) { s.Protocol = "pq:p=0.8,q=0.6" },
		"flow-src":    func(s *dtnsim.Scenario) { s.Flows[0].Src = 1 },
		"flow-dst":    func(s *dtnsim.Scenario) { s.Flows[0].Dst = 6 },
		"flow-count":  func(s *dtnsim.Scenario) { s.Flows[0].Count = 26 },
		"flow-start":  func(s *dtnsim.Scenario) { s.Flows[0].StartAt = 10 },
		"flow-size":   func(s *dtnsim.Scenario) { s.Flows[0].Size = 9 },
		"extra-flow":  func(s *dtnsim.Scenario) { s.Flows = append(s.Flows, dtnsim.Flow{Src: 2, Dst: 3, Count: 1}) },
		"buffer-cap":  func(s *dtnsim.Scenario) { s.BufferCap = 21 },
		"tx-time":     func(s *dtnsim.Scenario) { s.TxTime = 51 },
		"sample":      func(s *dtnsim.Scenario) { s.SampleEvery = 500 },
		"records":     func(s *dtnsim.Scenario) { s.RecordsPerSlot = 5 },
		"horizon":     func(s *dtnsim.Scenario) { s.Horizon = 1000 },
		"seed":        func(s *dtnsim.Scenario) { s.Seed = 43 },
		"to-horizon":  func(s *dtnsim.Scenario) { s.RunToHorizon = true },
		"bandwidth":   func(s *dtnsim.Scenario) { s.Bandwidth = 50001 },
		"bundle-size": func(s *dtnsim.Scenario) { s.BundleSize = 1<<20 + 1 },
		"buf-bytes":   func(s *dtnsim.Scenario) { s.BufferBytes = 5<<20 + 1 },
		"drop":        func(s *dtnsim.Scenario) { s.DropPolicy = "droprandom" },
		"ctl-bytes":   func(s *dtnsim.Scenario) { s.ControlBytes = 17 },
	}
	seen := map[string]string{refKey: "reference"}
	for name, mutate := range mutations {
		s := keyScenario()
		s.Flows = append([]dtnsim.Flow(nil), keyScenario().Flows...)
		mutate(&s)
		k := mustKey(t, s)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q: key %s", name, prev, k)
			continue
		}
		seen[k] = name
	}
}

// TestShardsNeverEnterKey pins "shards" as an inert key: files written
// when it selected a multi-kernel executor must keep parsing, and no
// value of it — negative, small or absurd — may reach the engine, move
// a result, enter a cache address or survive into a canonical form.
func TestShardsNeverEnterKey(t *testing.T) {
	const base = `{"mobility":"cambridge:seed=7","protocol":"pq:p=0.8,q=0.5",
	  "flows":[{"src":0,"dst":7,"count":25}],"buffer_cap":20,"tx_time":50,
	  "seed":42,"bw":50000,"size":1048576,"bufbytes":5242880,
	  "drop":"dropfront","ctlbytes":16,"name":"ref"`
	run := func(sc dtnsim.Scenario) *dtnsim.Result {
		t.Helper()
		cfg, err := sc.Compile()
		if err != nil {
			t.Fatal(err)
		}
		if cfg.Shards != 0 {
			t.Errorf("Compile passed Shards=%d to the engine, want 0", cfg.Shards)
		}
		res, err := dtnsim.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	plain, err := dtnsim.ParseScenario([]byte(base + "}"))
	if err != nil {
		t.Fatal(err)
	}
	ref := mustKey(t, plain)
	want := run(plain)
	sweepRef := mustSweepKey(t, keySweep())
	for _, k := range []int{-1, 2, 3000000} {
		sc, err := dtnsim.ParseScenario([]byte(fmt.Sprintf(`%s,"shards":%d}`, base, k)))
		if err != nil {
			t.Fatalf("shards=%d: scenario does not parse: %v", k, err)
		}
		if got := mustKey(t, sc); got != ref {
			t.Errorf("shards=%d changed the scenario key: %s vs %s", k, got, ref)
		}
		norm, err := sc.Normalize()
		if err != nil {
			t.Fatal(err)
		}
		if norm.Shards != 0 {
			t.Errorf("shards=%d: Normalize kept Shards=%d, want 0", k, norm.Shards)
		}
		if got := run(sc); !reflect.DeepEqual(got, want) {
			t.Errorf("shards=%d changed the result:\n got: %+v\nwant: %+v", k, got, want)
		}

		spec := keySweep()
		spec.Scenario.Shards = k
		if got := mustSweepKey(t, spec); got != sweepRef {
			t.Errorf("shards=%d changed the sweep key: %s vs %s", k, got, sweepRef)
		}
		sw, err := spec.Compile()
		if err != nil {
			t.Fatal(err)
		}
		back, err := dtnsim.SweepSpecOf(spec.Name, sw)
		if err != nil {
			t.Fatal(err)
		}
		data, err := back.JSON()
		if err != nil {
			t.Fatal(err)
		}
		if back.Scenario.Shards != 0 || strings.Contains(string(data), "shards") {
			t.Errorf("shards=%d: SweepSpecOf of the compiled sweep carries it:\n%s", k, data)
		}
	}
}

func TestScenarioKeyMatchesNormalizedForm(t *testing.T) {
	s := keyScenario()
	norm, err := s.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if k1, k2 := mustKey(t, s), mustKey(t, norm); k1 != k2 {
		t.Errorf("normalizing changed the key: %s vs %s", k1, k2)
	}
	if _, err := (dtnsim.Scenario{Mobility: "cambridge"}).CanonicalKey(); err == nil {
		t.Error("CanonicalKey accepted an invalid scenario (no protocol, no flows)")
	}
}

// keySweep is the reference sweep the mutation tests perturb.
func keySweep() dtnsim.SweepSpec {
	return dtnsim.SweepSpec{
		Name: "ref",
		Scenario: dtnsim.Scenario{
			Mobility:  "cambridge",
			Seed:      2012,
			TxTime:    25,
			BufferCap: 20,
		},
		Protocols: []dtnsim.ProtocolSpec{"pure", "ttl:300"},
		Loads:     []int{5, 10},
		Runs:      2,
		Metrics:   []dtnsim.Metric{dtnsim.MetricDelivery},
	}
}

func mustSweepKey(t *testing.T, s dtnsim.SweepSpec) string {
	t.Helper()
	k, err := s.CanonicalKey()
	if err != nil {
		t.Fatalf("SweepSpec.CanonicalKey: %v", err)
	}
	return k
}

func TestSweepKeyInvariants(t *testing.T) {
	ref := mustSweepKey(t, keySweep())

	// Workers is an execution knob: the grid's results are bit-identical
	// for every value (PR-1 contract), so it must not enter the key.
	workers := keySweep()
	workers.Workers = 7
	if got := mustSweepKey(t, workers); got != ref {
		t.Errorf("Workers changed the key: %s vs %s", got, ref)
	}

	// Template fields the harness ignores must not enter the key.
	ignored := keySweep()
	ignored.Scenario.Protocol = "pure"
	ignored.Scenario.Flows = []dtnsim.Flow{{Src: 0, Dst: 1, Count: 1}}
	ignored.Scenario.RunToHorizon = true
	if got := mustSweepKey(t, ignored); got != ref {
		t.Errorf("ignored template fields changed the key: %s vs %s", got, ref)
	}

	// Harness defaults spelled explicitly must equal the elided form.
	elided := keySweep()
	elided.Loads, elided.Runs, elided.Metrics = nil, 0, nil
	explicit := keySweep()
	explicit.Loads, explicit.Runs, explicit.Metrics = dtnsim.DefaultLoads(), 10, dtnsim.AllMetrics()
	if k1, k2 := mustSweepKey(t, elided), mustSweepKey(t, explicit); k1 != k2 {
		t.Errorf("explicit defaults changed the key: %s vs %s", k1, k2)
	}

	// So must the engine defaults a template may spell, interval's
	// preset link included.
	for _, tc := range []struct {
		mobility dtnsim.MobilitySpec
		txTime   float64
	}{{"cambridge", 100}, {"interval", 25}} {
		elided, explicit := keySweep(), keySweep()
		elided.Scenario.Mobility, explicit.Scenario.Mobility = tc.mobility, tc.mobility
		elided.Scenario.BufferCap, elided.Scenario.TxTime = 0, 0
		explicit.Scenario.BufferCap, explicit.Scenario.TxTime, explicit.Scenario.DropPolicy = 10, tc.txTime, "droptail"
		if k1, k2 := mustSweepKey(t, elided), mustSweepKey(t, explicit); k1 != k2 {
			t.Errorf("%s: explicit engine defaults changed the key: %s vs %s", tc.mobility, k1, k2)
		}
	}

	// Default labels spelled explicitly must equal the elided form, and
	// a JSON respelling with permuted keys must hit the same key.
	raw := `{"runs":2,"loads":[ 5, 10 ],"metrics":["delivery"],
	  "protocols":["pure","ttl:300"],"name":"ref",
	  "scenario":{"buffer_cap":20,"tx_time":25,"seed":2012,"mobility":"cambridge"}}`
	sp, err := dtnsim.ParseSweepSpec([]byte(raw))
	if err != nil {
		t.Fatalf("respelled sweep does not parse: %v", err)
	}
	if got := mustSweepKey(t, sp); got != ref {
		t.Errorf("JSON respelling changed the key: %s vs %s", got, ref)
	}
}

func TestSweepKeyDistinctUnderSemanticChange(t *testing.T) {
	refKey := mustSweepKey(t, keySweep())
	mutations := map[string]func(*dtnsim.SweepSpec){
		"name":      func(s *dtnsim.SweepSpec) { s.Name = "other" },
		"mobility":  func(s *dtnsim.SweepSpec) { s.Scenario.Mobility = "subscriber" },
		"seed":      func(s *dtnsim.SweepSpec) { s.Scenario.Seed = 2013 },
		"tx-time":   func(s *dtnsim.SweepSpec) { s.Scenario.TxTime = 26 },
		"buf-cap":   func(s *dtnsim.SweepSpec) { s.Scenario.BufferCap = 21 },
		"bandwidth": func(s *dtnsim.SweepSpec) { s.Scenario.Bandwidth = 1000 },
		"protocols": func(s *dtnsim.SweepSpec) { s.Protocols = []dtnsim.ProtocolSpec{"pure", "ttl:400"} },
		"order":     func(s *dtnsim.SweepSpec) { s.Protocols = []dtnsim.ProtocolSpec{"ttl:300", "pure"} },
		"labels":    func(s *dtnsim.SweepSpec) { s.Labels = []string{"A", "B"} },
		"loads":     func(s *dtnsim.SweepSpec) { s.Loads = []int{5, 15} },
		"runs":      func(s *dtnsim.SweepSpec) { s.Runs = 3 },
		"metrics":   func(s *dtnsim.SweepSpec) { s.Metrics = []dtnsim.Metric{dtnsim.MetricDelay} },
	}
	seen := map[string]string{refKey: "reference"}
	for name, mutate := range mutations {
		s := keySweep()
		s.Protocols = append([]dtnsim.ProtocolSpec(nil), keySweep().Protocols...)
		s.Loads = append([]int(nil), keySweep().Loads...)
		mutate(&s)
		k := mustSweepKey(t, s)
		if prev, dup := seen[k]; dup {
			t.Errorf("mutation %q collides with %q: key %s", name, prev, k)
			continue
		}
		seen[k] = name
	}
}

func TestSweepNormalizeIdempotent(t *testing.T) {
	norm, err := keySweep().Normalize()
	if err != nil {
		t.Fatal(err)
	}
	again, err := norm.Normalize()
	if err != nil {
		t.Fatalf("normalized sweep does not re-normalize: %v", err)
	}
	b1, _ := norm.JSON()
	b2, _ := again.JSON()
	if string(b1) != string(b2) {
		t.Errorf("Normalize not idempotent:\n first %s\n again %s", b1, b2)
	}
	if len(norm.Loads) != 2 || norm.Runs != 2 || norm.Workers != 0 {
		t.Errorf("normalized sweep knobs wrong: loads=%v runs=%d workers=%d",
			norm.Loads, norm.Runs, norm.Workers)
	}
	// A sweep leaning on the harness defaults normalizes to their
	// explicit spellings.
	bare := dtnsim.SweepSpec{
		Scenario:  dtnsim.Scenario{Mobility: "cambridge"},
		Protocols: []dtnsim.ProtocolSpec{"pure"},
	}
	bnorm, err := bare.Normalize()
	if err != nil {
		t.Fatal(err)
	}
	if len(bnorm.Loads) != 10 || bnorm.Runs != 10 || len(bnorm.Metrics) != 5 {
		t.Errorf("default-elided sweep did not normalize to explicit defaults: loads=%v runs=%d metrics=%v",
			bnorm.Loads, bnorm.Runs, bnorm.Metrics)
	}
	if data, _ := bnorm.JSON(); !strings.Contains(string(data), `"loads"`) {
		t.Errorf("normalized form should spell loads explicitly:\n%s", data)
	}
}
