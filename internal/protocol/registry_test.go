package protocol

import (
	"errors"
	"flag"
	"fmt"
	"strings"
	"testing"

	"dtnsim/internal/spec/spectest"
)

var update = flag.Bool("update", false, "rewrite testdata/specs.golden from its own inputs")

// TestSpecGolden pins what Parse makes of every spelling in the frozen
// corpus: the canonical Spec and Label, or a rejection. Fixed-point
// fuzzing cannot see a spelling that moved to a different fixed point.
func TestSpecGolden(t *testing.T) {
	spectest.Golden(t, "testdata/specs.golden", *update, func(in string) string {
		f, err := Parse(in)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Errorf("Parse(%q): non-ErrSpec error %v", in, err)
			}
			return "ERR"
		}
		return fmt.Sprintf("%q\t%q", f.Spec, f.Label)
	})
}

// TestBuiltinSpecsRoundTrip: parse → Spec → parse must be a fixed
// point for every built-in spec and for spelled-out variants.
func TestBuiltinSpecsRoundTrip(t *testing.T) {
	specs := append(BuiltinSpecs(),
		"pq", "pq:p=0.8,q=0.5", "pq:q=0.5,p=0.8", "pq:p=1,q=1,anti",
		"ttl", "ttl:50", "dynttl:mult=4", "ecttl:thresh=4", "ecttl:minec=5,thresh=12",
	)
	for _, s := range specs {
		f, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		again, err := Parse(f.Spec)
		if err != nil {
			t.Fatalf("Parse(canonical %q of %q): %v", f.Spec, s, err)
		}
		if again.Spec != f.Spec {
			t.Errorf("%q: canonical %q re-parses to %q", s, f.Spec, again.Spec)
		}
		if again.Label != f.Label {
			t.Errorf("%q: label %q re-parses to %q", s, f.Label, again.Label)
		}
		if f.New() == nil || f.New().Name() == "" {
			t.Errorf("%q: factory builds an unusable protocol", s)
		}
	}
	// -0 is 0: one protocol must not split into two canonical keys and
	// two legend labels.
	zero, err := Parse("pq:p=0")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []string{"pq:p=-0", "pq:p=-0.0,q=1"} {
		f, err := Parse(s)
		if err != nil {
			t.Fatalf("Parse(%q): %v", s, err)
		}
		if f.Spec != zero.Spec || f.Label != zero.Label {
			t.Errorf("Parse(%q) = %q / %q, want %q / %q", s, f.Spec, f.Label, zero.Spec, zero.Label)
		}
	}
}

// TestParseMatchesConstructors: registry-built instances must equal the
// Go-constructor ones where the paper pins parameters.
func TestParseMatchesConstructors(t *testing.T) {
	cases := []struct {
		spec string
		want string // protocol display name
	}{
		{"pure", NewPure().Name()},
		{"pq:p=1,q=1", NewPQ(1, 1).Name()},
		{"pq:p=0.5,q=0.25", NewPQ(0.5, 0.25).Name()},
		{"ttl:300", NewTTL(300).Name()},
		{"ec", NewEC().Name()},
		{"immunity", NewImmunity().Name()},
		{"dynttl", NewDynamicTTL().Name()},
		{"ecttl", NewECTTL().Name()},
		{"cumimmunity", NewCumulativeImmunity().Name()},
	}
	for _, c := range cases {
		f, err := Parse(c.spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", c.spec, err)
		}
		if got := f.New().Name(); got != c.want {
			t.Errorf("Parse(%q).New().Name() = %q, want %q", c.spec, got, c.want)
		}
	}
}

func TestParseErrorsWrapErrSpec(t *testing.T) {
	bad := []string{
		"",                  // empty
		"bogus",             // unknown name
		"pq:p=2",            // out of range (would panic in NewPQ)
		"pq:p=-0.1",         // out of range
		"pq:p=nan",          // non-finite
		"pq:p=inf,q=1",      // non-finite
		"pq:zap=1",          // unknown argument
		"pq:p=1,p=1",        // duplicate argument
		"ttl:0",             // non-positive (would panic in NewTTL)
		"ttl:-3",            // negative
		"ttl:nan",           // non-finite
		"ttl:many",          // not a number
		"pure:x=1",          // arguments on an argument-free protocol
		"dynttl:mult=0",     // non-positive multiplier
		"dynttl:mult=",      // empty value
		"ecttl:thresh=-1",   // negative threshold
		"ecttl:thresh=1.5",  // non-integer
		"pq:,",              // empty argument fields
		"cumimmunity:extra", // args on arg-free protocol
	}
	for _, s := range bad {
		if _, err := Parse(s); !errors.Is(err, ErrSpec) {
			t.Errorf("Parse(%q): err = %v, want ErrSpec", s, err)
		}
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
	for _, s := range BuiltinSpecs() {
		name := s
		if i := strings.IndexByte(name, ':'); i >= 0 {
			name = name[:i]
		}
		if !names[name] {
			t.Errorf("builtin spec %q has no registry entry", s)
		}
	}
}

// FuzzParse: Parse must never panic, and every accepted spec must
// canonicalize to a fixed point.
func FuzzParse(f *testing.F) {
	for _, s := range BuiltinSpecs() {
		f.Add(s)
	}
	f.Add("pq:p=0.8,q=0.5")
	f.Add("ttl:1e6")
	f.Add("pq:p=nan,q=inf")
	f.Add("::::")
	f.Add("pq:p==1")
	f.Add("ecttl:thresh=99999999999999999999")
	f.Fuzz(func(t *testing.T, s string) {
		fac, err := Parse(s)
		if err != nil {
			if !errors.Is(err, ErrSpec) {
				t.Fatalf("Parse(%q): non-ErrSpec error %v", s, err)
			}
			return
		}
		again, err := Parse(fac.Spec)
		if err != nil {
			t.Fatalf("canonical %q of %q does not re-parse: %v", fac.Spec, s, err)
		}
		if again.Spec != fac.Spec {
			t.Fatalf("canonical of %q is not a fixed point: %q → %q", s, fac.Spec, again.Spec)
		}
		if fac.New() == nil {
			t.Fatalf("Parse(%q): nil protocol", s)
		}
	})
}
