package mobility

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"dtnsim/internal/contact"
)

func TestParseTraceBasic(t *testing.T) {
	in := `# nodes: 15
# a comment
3 9 3568 3882

0 1 10 20
`
	s, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if s.Nodes != 15 {
		t.Errorf("Nodes = %d, want 15 (header raises inferred count)", s.Nodes)
	}
	if len(s.Contacts) != 2 {
		t.Fatalf("parsed %d contacts", len(s.Contacts))
	}
	// Sorted by start: (0,1) first.
	if s.Contacts[0] != (contact.Contact{A: 0, B: 1, Start: 10, End: 20}) {
		t.Errorf("first contact = %v", s.Contacts[0])
	}
	// The paper's worked example: nodes 3 and 9 meet for 314 s.
	if got := s.Contacts[1].Duration(); got != 314 {
		t.Errorf("example contact duration = %v, want 314", got)
	}
}

func TestParseTraceNormalizes(t *testing.T) {
	s, err := ParseTrace(strings.NewReader("7 2 0 5\n"))
	if err != nil {
		t.Fatal(err)
	}
	if s.Contacts[0].A != 2 || s.Contacts[0].B != 7 {
		t.Errorf("contact not normalized: %v", s.Contacts[0])
	}
	if s.Nodes != 8 {
		t.Errorf("Nodes inferred = %d, want 8", s.Nodes)
	}
}

func TestParseTraceErrors(t *testing.T) {
	cases := []struct{ name, in string }{
		{"too few fields", "1 2 3\n"},
		{"non-numeric", "a b 0 5\n"},
		{"fractional node id", "1.5 2 0 5\n"},
		{"negative node id", "-1 2 0 5\n"},
		{"self contact", "2 2 0 5\n"},
		{"inverted window", "1 2 10 5\n"},
		{"empty window", "1 2 5 5\n"},
		{"NaN start", "1 2 NaN 5\n"},
		{"NaN end", "1 2 0 nan\n"},
		{"infinite end", "1 2 0 +Inf\n"},
		{"empty trace", "# nothing\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseTrace(strings.NewReader(tc.in)); err == nil {
				t.Errorf("ParseTrace(%q) succeeded, want error", tc.in)
			}
		})
	}
}

func TestTraceRoundTrip(t *testing.T) {
	g := SyntheticCambridge{Seed: 42, Nodes: 6, Span: 50000}
	s, err := materialized(g.Stream())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, s); err != nil {
		t.Fatal(err)
	}
	back, err := ParseTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Nodes != s.Nodes {
		t.Errorf("round-trip Nodes = %d, want %d", back.Nodes, s.Nodes)
	}
	if len(back.Contacts) != len(s.Contacts) {
		t.Fatalf("round-trip contacts = %d, want %d", len(back.Contacts), len(s.Contacts))
	}
	for i := range s.Contacts {
		if back.Contacts[i] != s.Contacts[i] {
			t.Fatalf("contact %d: %v != %v", i, back.Contacts[i], s.Contacts[i])
		}
	}
}

func TestParseNodesHeader(t *testing.T) {
	if n, ok := parseNodesHeader("# nodes: 12"); !ok || n != 12 {
		t.Errorf("parseNodesHeader = %d,%v", n, ok)
	}
	if _, ok := parseNodesHeader("# contacts: 12"); ok {
		t.Error("contacts header misparsed as nodes")
	}
	if _, ok := parseNodesHeader("# nodes: x"); ok {
		t.Error("bad count accepted")
	}
}

// TestTraceNodesBound: a trace that declares or names a population past
// MaxNodes is a parse error on both read paths, not an engine sized by it.
func TestTraceNodesBound(t *testing.T) {
	for name, text := range map[string]string{
		"header": fmt.Sprintf("# nodes: %d\n0 1 0 10\n", MaxNodes+1),
		"record": fmt.Sprintf("0 %d 0 10\n", MaxNodes),
	} {
		if _, err := ParseTrace(strings.NewReader(text)); err == nil {
			t.Errorf("%s: ParseTrace accepted a population past %d", name, MaxNodes)
		}
		path := filepath.Join(t.TempDir(), "big.txt")
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		if src, err := OpenTraceSource(path); err == nil {
			src.(io.Closer).Close()
			t.Errorf("%s: OpenTraceSource accepted a population past %d", name, MaxNodes)
		}
	}
	at := fmt.Sprintf("# nodes: %d\n0 1 0 10\n", MaxNodes)
	if s, err := ParseTrace(strings.NewReader(at)); err != nil || s.Nodes != MaxNodes {
		t.Errorf("header at the bound: %v", err)
	}
}

// TestWriteTraceRoundTripsExactly: ParseTrace reads back exactly the
// schedule WriteTrace wrote — for every built-in kind, for a classic
// cell sampled every 2.5 s (contacts close at half seconds), and for a
// trace file with sub-second times.
func TestWriteTraceRoundTripsExactly(t *testing.T) {
	schedules := map[string]*contact.Schedule{}
	for _, spec := range append(BuiltinSpecs(), "rwp:nodes=12,area=600,range=100,span=5000,dt=2.5") {
		src, err := Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		if schedules[spec], err = materialized(src.Stream(3)); err != nil {
			t.Fatalf("%s: %v", spec, err)
		}
	}
	fractional, err := ParseTrace(strings.NewReader("# nodes: 5\n0 1 1.2 1.4\n2 1 0.001 7.25\n3 4 86399.999 86400.0005\n"))
	if err != nil {
		t.Fatal(err)
	}
	schedules["fractional trace"] = fractional
	for name, s := range schedules {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, s); err != nil {
			t.Fatal(err)
		}
		back, err := ParseTrace(&buf)
		if err != nil {
			t.Errorf("%s: written trace does not parse: %v", name, err)
			continue
		}
		if back.Nodes != s.Nodes || !slices.Equal(back.Contacts, s.Contacts) {
			t.Errorf("%s: round trip changed the schedule", name)
		}
	}
}
