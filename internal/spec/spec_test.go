package spec

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"strings"
	"testing"
)

// Three synthetic tables that between them exercise every Type, bound
// and canonical-order rule.
var (
	keyed = Table{
		{Name: "f", Default: 1, Max: 1, Always: true, Meta: "F"}, // closed [0,1], always shown
		{Name: "g", Default: 2, Open: true, Meta: "G"},           // (0,∞)
		{Name: "h", Min: -5, Max: 5, Meta: "H"},                  // a negative Min
		{Name: "n", Type: Int, Default: 8, Meta: "N"},
		{Name: "m", Type: Int, Meta: "N"},
		{Name: "u", Type: Uint, Meta: "N"},
		{Name: "on", Type: Flag},
	}
	positional = Table{{Name: "ttl", Default: 300, Open: true, Max: 1e17, Always: true, Positional: true, Meta: "SECONDS"}}
	population = Table{{Name: "nodes", Type: Int, Min: 2, Max: 9, Meta: "N"}} // 0 (default) or 2..9
	raw        = Table{{Name: "path", Type: Raw, Positional: true, Meta: "PATH"}}
)

func TestSplit(t *testing.T) {
	for _, c := range []struct{ in, name, args string }{
		{"", "", ""},
		{"pure", "pure", ""},
		{" pure ", "pure", ""},
		{"pq:p=1", "pq", "p=1"},
		{" pq : p=1 ", "pq", "p=1"},
		{"trace:C:/a,b=c", "trace", "C:/a,b=c"},
		{":x", "", "x"},
		{"ttl:", "ttl", ""},
	} {
		if name, args := Split(c.in); name != c.name || args != c.args {
			t.Errorf("Split(%q) = %q, %q; want %q, %q", c.in, name, args, c.name, c.args)
		}
	}
}

// TestTableParseCanonical drives Parse and Canonical together: want is
// the canonical spelling under the kind name "k", or "" for a rejection.
func TestTableParseCanonical(t *testing.T) {
	maxInt := strconv.Itoa(math.MaxInt)
	for _, c := range []struct {
		table      Table
		args, want string
	}{
		// Defaults: only Always rows are spelled out.
		{keyed, "", "k:f=1"},
		{keyed, "  ", "k:f=1"},
		{keyed, "f=1,g=2,h=0,n=8,m=0", "k:f=1"},
		// Declared order, whatever the input order; whitespace is trimmed.
		{keyed, "on, u=3 ,m=4,n=5,h=-5,g=0.5,f=0", "k:f=0,g=0.5,h=-5,n=5,m=4,u=3,on"},
		// Float: canonical %g, -0 is 0, finite only.
		{keyed, "f=5e-1", "k:f=0.5"},
		{keyed, "f=-0", "k:f=0"},
		{keyed, "h=-0", "k:f=1"},
		{keyed, "f=nan", ""},
		{keyed, "g=inf", ""},
		{keyed, "g=1e400", ""},
		{keyed, "f=x", ""},
		{keyed, "f=", ""},
		// Closed, open and negative bounds.
		{keyed, "f=1.0000000000000002", ""},
		{keyed, "f=-1e-300", ""},
		{keyed, "g=0", ""},
		{keyed, "g=5e-324", "k:f=1,g=5e-324"},
		{keyed, "g=1e308", "k:f=1,g=1e+308"},
		{keyed, "h=5", "k:f=1,h=5"},
		{keyed, "h=5.1", ""},
		{keyed, "h=-5.1", ""},
		// Int: full int range reaches the build func as an int.
		{keyed, "m=" + maxInt, "k:f=1,m=" + maxInt},
		{keyed, "m=9223372036854775808", ""},
		{keyed, "m=-1", ""},
		{keyed, "m=+7", "k:f=1,m=7"},
		{keyed, "n=-0", "k:f=1,n=0"},
		{keyed, "n=1.5", ""},
		{keyed, "n", ""},
		// Uint: shown whenever supplied, even at 0.
		{keyed, "u=0", "k:f=1,u=0"},
		{keyed, "u=18446744073709551615", "k:f=1,u=18446744073709551615"},
		{keyed, "u=18446744073709551616", ""},
		{keyed, "u=-1", ""},
		{keyed, "u=+1", ""},
		// Flag spellings.
		{keyed, "on", "k:f=1,on"},
		{keyed, "on=", "k:f=1,on"},
		{keyed, "on=yes", "k:f=1,on"},
		{keyed, "on=off", "k:f=1"},
		{keyed, "on=0", "k:f=1"},
		{keyed, "on=maybe", ""},
		// Structure: duplicate, unknown and empty keys.
		{keyed, "f=1,f=1", ""},
		{keyed, "zap=1", ""},
		{keyed, "F=1", ""},
		{keyed, ",", ""},
		{keyed, "f=1,", ""},
		{keyed, "=1", ""},
		{keyed, "f==1", ""},
		// A default outside the range still parses, and only it.
		{population, "nodes=0", "k"},
		{population, "nodes=-0", "k"},
		{population, "nodes=1", ""},
		{population, "nodes=2", "k:nodes=2"},
		{population, "nodes=10", ""},
		{population, "nodes=-1", ""},
		// Positional: the whole argument string is the value.
		{positional, "", "k:300"},
		{positional, "50", "k:50"},
		{positional, "3e2", "k:300"},
		{positional, "1e17", "k:1e+17"},
		{positional, "1.0000001e17", ""},
		{positional, "0", ""},
		{positional, "-0", ""},
		{positional, "ttl=300", ""},
		{positional, "300,x=1", ""},
		// Raw: verbatim and required.
		{raw, "/a:b,c=d", "k:/a:b,c=d"},
		{raw, "=", "k:="},
		{raw, "", ""},
		// No parameters: no arguments.
		{nil, "", "k"},
		{nil, "x", ""},
		{nil, ",", ""},
	} {
		v, err := c.table.Parse(c.args)
		if err != nil {
			if c.want != "" {
				t.Errorf("Parse(%q): %v, want %q", c.args, err, c.want)
			}
			continue
		}
		got := c.table.Canonical("k", v)
		if got != c.want {
			t.Errorf("Parse(%q) canonical = %q, want %q", c.args, got, c.want)
		}
		_, again := Split(got)
		if v2, err := c.table.Parse(again); err != nil || c.table.Canonical("k", v2) != got {
			t.Errorf("canonical %q of %q is not a fixed point (%v)", got, c.args, err)
		}
	}
}

func TestValuesAccessors(t *testing.T) {
	v, err := keyed.Parse("m=" + strconv.Itoa(math.MaxInt) + ",g=0.25,on")
	if err != nil {
		t.Fatal(err)
	}
	if v.Float("f") != 1 || v.Float("g") != 0.25 || v.Int("n") != 8 || v.Int("m") != math.MaxInt || !v.Flag("on") {
		t.Errorf("accessors returned %v %v %v %v %v", v.Float("f"), v.Float("g"), v.Int("n"), v.Int("m"), v.Flag("on"))
	}
	if n, set := v.Uint("u"); n != 0 || set {
		t.Errorf("absent Uint = %d, %v", n, set)
	}
	zero, _ := keyed.Parse("u=0")
	if n, set := zero.Uint("u"); n != 0 || !set {
		t.Errorf("u=0 read back as %d, %v", n, set)
	}
	if path, _ := raw.Parse("a b"); path.Raw("path") != "a b" {
		t.Errorf("Raw = %q", path.Raw("path"))
	}
	defer func() {
		if recover() == nil {
			t.Error("reading an undeclared parameter did not panic")
		}
	}()
	v.Int("f") // declared, but as a Float
}

func TestUsage(t *testing.T) {
	for _, c := range []struct {
		table Table
		want  string
	}{
		{nil, "k — doc"},
		{raw, "k:PATH — doc"},
		{positional, "k[:SECONDS] — doc; SECONDS in (0,1e+17] default 300"},
		{keyed, "k[:f=F,g=G,h=H,n=N,m=N,u=N,on] — doc; f in [0,1] default 1, g in (0,∞) default 2, h in [-5,5] default 0, n in [0,∞) default 8"},
	} {
		if got := c.table.Usage("k", "doc"); got != c.want {
			t.Errorf("Usage = %q, want %q", got, c.want)
		}
	}
}

var errTest = errors.New("spectest: invalid spec")

func testRegistry() *Registry[string] {
	r := NewRegistry[string]("thing", errTest)
	build := func(canonical string, _ Values) (string, error) { return canonical, nil }
	r.Register("keyed", "doc", keyed, build)
	r.Register("pos", "doc", positional, build)
	r.Register("raw", "doc", raw, build)
	r.Register("plain", "doc", nil, build)
	return r
}

func TestRegistry(t *testing.T) {
	r := testRegistry()
	if got := strings.Join(r.Names(), ","); got != "keyed,pos,raw,plain" {
		t.Errorf("Names = %s", got)
	}
	infos := r.Specs()
	if len(infos) != 4 || infos[1].Name != "pos" || infos[1].Usage != positional.Usage("pos", "doc") {
		t.Errorf("Specs = %+v", infos)
	}
	if got, err := r.Parse(" keyed : on , f=0.5 "); err != nil || got != "keyed:f=0.5,on" {
		t.Errorf("Parse = %q, %v", got, err)
	}
	for _, bad := range []string{"", ":", "nope", "keyed:zap", "pos:0", "raw", "plain:x"} {
		if _, err := r.Parse(bad); !errors.Is(err, errTest) {
			t.Errorf("Parse(%q): err = %v, want the registry's sentinel", bad, err)
		}
	}
}

// TestRegistryBuildRefuses: a kind's build may refuse values that pass
// their rows one by one; Parse returns the refusal wrapped in the
// sentinel, once.
func TestRegistryBuildRefuses(t *testing.T) {
	r := NewRegistry[string]("thing", errTest)
	r.Register("span", "doc", Table{{Name: "lo"}, {Name: "hi"}}, func(c string, v Values) (string, error) {
		if v.Float("lo") > v.Float("hi") {
			return "", errors.New("lo above hi")
		}
		if v.Float("hi") > 100 {
			return "", fmt.Errorf("%w: span: hi above 100", errTest)
		}
		return c, nil
	})
	if got, err := r.Parse("span:lo=1,hi=2"); err != nil || got != "span:lo=1,hi=2" {
		t.Errorf("Parse = %q, %v", got, err)
	}
	for in, want := range map[string]string{
		"span:lo=3,hi=2": "spectest: invalid spec: span: lo above hi",
		"span:hi=200":    "spectest: invalid spec: span: hi above 100",
	} {
		if _, err := r.Parse(in); !errors.Is(err, errTest) || err.Error() != want {
			t.Errorf("Parse(%q): err = %v, want %q", in, err, want)
		}
	}
}

func TestRegistryRejectsDuplicates(t *testing.T) {
	build := func(string, Values) (string, error) { return "", nil }
	for _, c := range []struct {
		name     string
		register func(r *Registry[string])
	}{
		{"duplicate kind", func(r *Registry[string]) { r.Register("keyed", "", nil, build) }},
		{"empty name", func(r *Registry[string]) { r.Register("", "", nil, build) }},
		{"nil build", func(r *Registry[string]) { r.Register("x", "", nil, nil) }},
		{"repeated parameter", func(r *Registry[string]) { r.Register("x", "", Table{{Name: "a"}, {Name: "a"}}, build) }},
		{"positional with more", func(r *Registry[string]) {
			r.Register("x", "", Table{{Name: "a", Positional: true}, {Name: "b"}}, build)
		}},
		{"keyed raw", func(r *Registry[string]) { r.Register("x", "", Table{{Name: "a", Type: Raw}}, build) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Error("Register did not panic")
				}
			}()
			c.register(testRegistry())
		})
	}
}

// FuzzTable: over tables exercising every Type, Parse never panics,
// every error wraps the sentinel, and Parse∘Canonical is a fixed point.
// protocol.FuzzParse and mobility.FuzzParse are its real-table instances.
func FuzzTable(f *testing.F) {
	for _, s := range []string{
		"keyed", "keyed:f=0.5,g=3,h=-1,n=2,m=9223372036854775807,u=0,on", "keyed:on=false,f=-0",
		"pos", "pos:1e17", "pos:nan", "raw:/p:q,r=s", "raw", "plain", "plain:x", "::", "keyed:f==1,",
		"keyed:u=18446744073709551616", "keyed:n=99999999999999999999",
	} {
		f.Add(s)
	}
	r := testRegistry()
	f.Fuzz(func(t *testing.T, s string) {
		canonical, err := r.Parse(s)
		if err != nil {
			if !errors.Is(err, errTest) {
				t.Fatalf("Parse(%q): error %v does not wrap the sentinel", s, err)
			}
			return
		}
		again, err := r.Parse(canonical)
		if err != nil || again != canonical {
			t.Fatalf("canonical %q of %q re-parses to %q (%v)", canonical, s, again, err)
		}
	})
}
