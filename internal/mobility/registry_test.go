package mobility

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"dtnsim/internal/contact"
	"dtnsim/internal/spec"
	"dtnsim/internal/spec/spectest"
)

var update = flag.Bool("update", false, "rewrite testdata/specs.golden from its own inputs")

// TestSpecGolden pins what Parse makes of every spelling in the frozen
// corpus: the canonical Spec, Kind and PerRun, or a rejection.
// Fixed-point fuzzing cannot see a spelling that moved to a different
// fixed point.
func TestSpecGolden(t *testing.T) {
	spectest.Golden(t, "testdata/specs.golden", *update, func(in string) string {
		src, err := Parse(in)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Errorf("Parse(%q): non-ErrSpec error %v", in, err)
			}
			return "ERR"
		}
		return fmt.Sprintf("%q\t%s\t%v", src.Spec, src.Kind, src.PerRun)
	})
}

// TestParsedSpecsStream: a spec Parse accepts is one Stream can run.
// Every rwp, interval and subscriber row the golden corpus accepts, at
// up to 10⁴ nodes, must open a stream. (Cambridge may still find no
// contact within a short span: that is known only once its pairs are
// drawn.) An interval row's pre-pass is bounded at parse, so every
// accepted one streams in seconds at most.
func TestParsedSpecsStream(t *testing.T) {
	data, err := os.ReadFile("testdata/specs.golden")
	if err != nil {
		t.Fatal(err)
	}
	checked := 0
	for _, line := range strings.Split(string(data), "\n") {
		quoted, _, ok := strings.Cut(line, "\t")
		if !ok || strings.HasPrefix(line, "#") {
			continue
		}
		in, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatal(err)
		}
		src, err := Parse(in)
		if err != nil || src.Kind != "rwp" && src.Kind != "interval" && src.Kind != "subscriber" {
			continue
		}
		_, args := spec.Split(src.Spec)
		p, err := spec.Parse(args)
		if err != nil {
			t.Fatal(err)
		}
		count := func(key string, def int) int {
			if v, ok := p.Take(key); ok {
				n, err := strconv.Atoi(v)
				if err != nil {
					t.Fatalf("%s: %s=%q", src.Spec, key, v)
				}
				return n
			}
			return def
		}
		if count("nodes", 20) > 1e4 { // 20: the largest default
			continue
		}
		if _, err := src.Stream(1); err != nil {
			t.Errorf("%s parses as %s, but Stream: %v", quoted, src.Spec, err)
		}
		checked++
	}
	if checked < 300 {
		t.Errorf("only %d rows checked", checked)
	}
}

func TestMobilitySpecsRoundTrip(t *testing.T) {
	specs := append(BuiltinSpecs(),
		"cambridge:seed=42", "cambridge:nodes=8,seed=7", "cambridge:span=100000",
		"subscriber:nodes=20", "subscriber:seed=3,points=50,area=2000",
		"rwp:nodes=40", "rwp:area=500,range=50", "rwp:nodes=24,dt=5",
		"interval:max=2000", "interval:max=400,min=100,nodes=10,encounters=5",
		"trace:/tmp/contacts.txt", "trace:odd:path,with=chars",
	)
	for _, s := range specs {
		src, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		again, err := Parse(src.Spec)
		if err != nil {
			t.Fatalf("Parse(canonical %q of %q): %v", src.Spec, s, err)
		}
		if again.Spec != src.Spec {
			t.Errorf("%q: canonical %q re-parses to %q", s, src.Spec, again.Spec)
		}
		if again.Kind != src.Kind || again.PerRun != src.PerRun {
			t.Errorf("%q: canonical re-parse changed Kind/PerRun", s)
		}
	}
}

// TestGeneratorsMatchDirectConstruction: for every built-in spec, the
// registry Source's stream, drained, must be identical to the schedule
// the model's reference generator (reference_test.go) builds.
func TestGeneratorsMatchDirectConstruction(t *testing.T) {
	direct := map[string]func(seed uint64) (*contact.Schedule, error){
		"cambridge":  func(s uint64) (*contact.Schedule, error) { return generateCambridge(SyntheticCambridge{Seed: s}) },
		"subscriber": func(s uint64) (*contact.Schedule, error) { return generateSubscriber(SubscriberPointRWP{Seed: s}) },
		"rwp":        func(s uint64) (*contact.Schedule, error) { return generateClassic(ClassicRWP{Seed: s}) },
		"interval:max=400": func(s uint64) (*contact.Schedule, error) {
			return generateInterval(ControlledInterval{Seed: s, MaxInterval: 400})
		},
	}
	for _, spec := range BuiltinSpecs() {
		generate, ok := direct[spec]
		if !ok {
			t.Errorf("built-in spec %q has no direct construction to compare against", spec)
			continue
		}
		src, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		got, err := materialized(src.Stream(11))
		if err != nil {
			t.Fatalf("%q: %v", spec, err)
		}
		want, err := generate(11)
		if err != nil {
			t.Fatal(err)
		}
		if got.Nodes != want.Nodes || len(got.Contacts) != len(want.Contacts) {
			t.Errorf("%q: spec-built schedule differs from direct construction", spec)
			continue
		}
		for i := range got.Contacts {
			if got.Contacts[i] != want.Contacts[i] {
				t.Errorf("%q: contact %d differs", spec, i)
				break
			}
		}
	}
}

func TestPinnedSeedFixesSchedule(t *testing.T) {
	src, err := Parse("subscriber:seed=9")
	if err != nil {
		t.Fatal(err)
	}
	if src.PerRun {
		t.Error("seed-pinned generator should not be per-run")
	}
	a, err := materialized(src.Stream(1))
	if err != nil {
		t.Fatal(err)
	}
	b, err := materialized(src.Stream(2))
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Contacts) != len(b.Contacts) {
		t.Fatal("pinned seed still varies with the run seed")
	}
	for i := range a.Contacts {
		if a.Contacts[i] != b.Contacts[i] {
			t.Fatal("pinned seed still varies with the run seed")
		}
	}
}

func TestTraceSpecReadsFile(t *testing.T) {
	want, err := materialized(SyntheticCambridge{Seed: 5}.Stream())
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "contacts.txt")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteTrace(f, want); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	src, err := Parse("trace:" + path)
	if err != nil {
		t.Fatal(err)
	}
	if src.PerRun {
		t.Error("a trace file must be shared across runs")
	}
	got, err := materialized(src.Stream(0))
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Contacts) != len(want.Contacts) {
		t.Errorf("trace round trip: %d contacts, want %d", len(got.Contacts), len(want.Contacts))
	}

	missing, err := Parse("trace:" + filepath.Join(t.TempDir(), "nope"))
	if err != nil {
		t.Fatalf("parse must not touch the filesystem: %v", err)
	}
	if _, err := missing.Stream(0); err == nil {
		t.Error("missing trace file accepted at Stream")
	}
}

func TestParseErrorsWrapErrSpec(t *testing.T) {
	bad := []string{
		"",
		"bogus",
		"cambridge:nodes=-1",
		"cambridge:nodes=two",
		"cambridge:seed=-1",
		"cambridge:zap=1",
		"subscriber:area=nan",
		"rwp:range=inf",
		"interval:max=-5",
		"interval:max=1,max=2",
		"trace:",
		"cambridge:,",
	}
	for _, s := range bad {
		if _, err := Parse(s); !errors.Is(err, ErrSpec) {
			t.Errorf("Parse(%q): err = %v, want ErrSpec", s, err)
		}
	}
}

// TestNodesBound: a population the process cannot hold is refused at
// Parse, before anything allocates for it. Each generated kind accepts
// its bound and rejects one past it; Cambridge, O(pairs), has its own.
// Below, one node — which no model can stream — is refused at Parse
// too, while 0, the model's default, and 2 still parse.
func TestNodesBound(t *testing.T) {
	for kind, bound := range map[string]int{
		"cambridge":  MaxCambridgeNodes,
		"subscriber": MaxNodes,
		"rwp":        MaxNodes,
		"interval":   MaxNodes,
	} {
		for _, n := range []int{0, 2, bound} {
			at := fmt.Sprintf("%s:nodes=%d", kind, n)
			if _, err := Parse(at); err != nil {
				t.Errorf("Parse(%q): %v", at, err)
			}
		}
		for _, n := range []int{1, bound + 1} {
			past := fmt.Sprintf("%s:nodes=%d", kind, n)
			if _, err := Parse(past); !errors.Is(err, ErrSpec) {
				t.Errorf("Parse(%q): err = %v, want ErrSpec", past, err)
			}
		}
	}
	if _, err := (ClassicRWP{Nodes: MaxNodes + 1}).Stream(); err == nil {
		t.Error("ClassicRWP streamed a population past MaxNodes")
	}
}

// TestIntervalDrawsBound: an interval spec whose pre-pass would play
// more than maxIntervalDraws draws is refused at Parse, and a hand-built
// one by Stream, before any draw; the bound itself, and MaxNodes at the
// default encounter count, still parse.
func TestIntervalDrawsBound(t *testing.T) {
	for spec, ok := range map[string]bool{
		fmt.Sprintf("interval:encounters=%d", maxIntervalDraws/20):   true,
		fmt.Sprintf("interval:nodes=%d", MaxNodes):                   true,
		fmt.Sprintf("interval:encounters=%d", maxIntervalDraws/20+1): false,
		fmt.Sprintf("interval:nodes=%d,encounters=21", MaxNodes):     false,
		"interval:encounters=2147483647":                             false,
		"interval:nodes=2,encounters=9223372036854775807":            false,
	} {
		_, err := Parse(spec)
		if ok && err != nil {
			t.Errorf("Parse(%q): %v", spec, err)
		}
		if !ok && !errors.Is(err, ErrSpec) {
			t.Errorf("Parse(%q) err = %v, want ErrSpec", spec, err)
		}
	}
	if _, err := (ControlledInterval{Nodes: 20, Encounters: 1 << 30}).Stream(); !errors.Is(err, ErrSpec) {
		t.Errorf("Stream of 2³⁰ encounters: err = %v, want ErrSpec", err)
	}
}

// TestRWPSampleStepsRange: a span/dt whose step count does not fit an
// int is an invalid spec, refused by Parse and, for a hand-built model,
// by Stream and the reference alike. Converted anyway it went negative,
// the run ended on its first step, and twenty nodes in a 500 m box with
// 100 m radios reported an empty schedule.
func TestRWPSampleStepsRange(t *testing.T) {
	for spec, ok := range map[string]bool{
		"rwp:nodes=20,area=500,range=100,span=1e17,dt=0.001":   false,
		"rwp:nodes=20,area=500,range=100,dt=1e-320":            false,
		"rwp:nodes=20,area=500,range=100,span=1e308,dt=1e-300": false,
		"rwp:nodes=20,area=500,range=100,span=1e15,dt=0.001":   true,
		"rwp:nodes=20,area=500,range=100,span=1000,dt=7":       true,
	} {
		src, err := Parse(spec)
		if !ok {
			if !errors.Is(err, ErrSpec) {
				t.Errorf("Parse(%q) err = %v, want ErrSpec", spec, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if _, err = src.Stream(1); err != nil {
			t.Errorf("%q: Stream err = %v", spec, err)
		}
	}
	g := ClassicRWP{Nodes: 20, AreaSide: 500, Range: 100, Span: 1e17, SampleDT: 0.001}
	if _, err := g.Stream(); !errors.Is(err, ErrSpec) {
		t.Errorf("Stream err = %v, want ErrSpec", err)
	}
	if _, err := generateClassic(g); !errors.Is(err, ErrSpec) {
		t.Errorf("reference err = %v, want ErrSpec", err)
	}
}

func TestSpecsListsEveryBuiltin(t *testing.T) {
	names := map[string]bool{}
	for _, in := range Default.Specs() {
		names[in.Name] = true
		if in.Usage == "" {
			t.Errorf("%s: empty usage", in.Name)
		}
	}
	for _, s := range append(BuiltinSpecs(), "trace:x") {
		name := s
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		if !names[name] {
			t.Errorf("builtin spec %q has no registry entry", s)
		}
	}
}

// FuzzParse: Parse must never panic and never touch the filesystem,
// and every accepted spec must canonicalize to a fixed point.
func FuzzParse(f *testing.F) {
	for _, s := range BuiltinSpecs() {
		f.Add(s)
	}
	f.Add("trace:/some/path")
	f.Add("cambridge:seed=18446744073709551615")
	f.Add("interval:max=1e308")
	f.Add("subscriber:nodes=0,points=0")
	f.Add(":::")
	f.Fuzz(func(t *testing.T, s string) {
		src, err := Parse(s)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("Parse(%q): non-ErrSpec error %v", s, err)
			}
			return
		}
		again, err := Parse(src.Spec)
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", src.Spec, s, err)
		}
		if again.Spec != src.Spec {
			t.Fatalf("canonical of %q is not a fixed point: %q → %q", s, src.Spec, again.Spec)
		}
	})
}
