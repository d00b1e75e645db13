package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"flag"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"dtnsim"
	"dtnsim/internal/contact"
	"dtnsim/internal/mobility"
)

// runOK runs the command and returns its stdout and stderr.
func runOK(t *testing.T, args ...string) (stdout, stderr string) {
	t.Helper()
	var out, errOut bytes.Buffer
	if err := run(args, &out, &errOut); err != nil {
		t.Fatalf("tracegen %s: %v", strings.Join(args, " "), err)
	}
	return out.String(), errOut.String()
}

// TestMigrationTable pins each spelling of the doc comment's migration
// table, plus -nodes/-span/-maxinterval as spec arguments, to the
// output of the flags it replaces: the SHA-256 of the trace and the
// statistics line, both recorded from the last version that took
// -model.
func TestMigrationTable(t *testing.T) {
	for _, tc := range []struct {
		old    string // the replaced invocation, for the failure message
		args   []string
		sha256 string
		stats  string
	}{
		{"-model trace", []string{"-mob", "cambridge"},
			"bba71fceec344134e2d2aabca89e03b31f2a3b8fcdd4fade19d0e27cf27c2229",
			"contacts=538 nodes=12 span=523633s meanDur=346s meanGap=5314s pairs=62"},
		{"-model rwp", []string{"-mob", "subscriber"},
			"5675246ec5890aba9088198a1098ae8277bb259c4b69db5669e3c3a080fc14a3",
			"contacts=925 nodes=12 span=599418s meanDur=248s meanGap=3845s pairs=66"},
		{"-model classic", []string{"-mob", "rwp"},
			"fd75efc36e307b3458d18a67d3df0cb4b036506c0a4beb1c7188cdc69a09a2e0",
			"contacts=4816 nodes=12 span=599640s meanDur=65s meanGap=757s pairs=66"},
		{"-model interval", []string{"-mob", "interval:max=400"},
			"c122c840392ba1b58063bf54c621b67e36c987ffdc5edae435797437a201a3c2",
			"contacts=200 nodes=20 span=6709s meanDur=195s meanGap=158s pairs=128"},
		{"-model trace -nodes 6 -span 100000 -seed 3", []string{"-mob", "cambridge:nodes=6,span=100000", "-seed", "3"},
			"b2ca86b591838ad1691ee663718ee7587895aa8f0265af1f98287b14ba901a6a",
			"contacts=22 nodes=6 span=100000s meanDur=361s meanGap=8477s pairs=10"},
		{"-model rwp -nodes 20 -span 50000", []string{"-mob", "subscriber:nodes=20,span=50000"},
			"3d25795c8cc6072af689cb4658a32bd73b16ca9c2ab16fa949afaa75caec6182",
			"contacts=207 nodes=20 span=50000s meanDur=234s meanGap=2394s pairs=130"},
		{"-model classic -nodes 8 -span 20000 -seed 9", []string{"-mob", "rwp:nodes=8,span=20000", "-seed", "9"},
			"84445522438c5701add06b1dd544957ca4b47618a1431dae26dae455e065cd92",
			"contacts=55 nodes=8 span=19630s meanDur=66s meanGap=1320s pairs=23"},
		{"-model interval -maxinterval 2000 -nodes 10", []string{"-mob", "interval:max=2000,nodes=10"},
			"72fdfe532f35c351d639fe415ca9fbe9ab35e1784d00d1a5f5b32bbd613e69ff",
			"contacts=100 nodes=10 span=32354s meanDur=188s meanGap=1448s pairs=41"},
	} {
		stdout, stderr := runOK(t, tc.args...)
		sum := sha256.Sum256([]byte(stdout))
		if got := hex.EncodeToString(sum[:]); got != tc.sha256 {
			t.Errorf("%v (was %s): trace sha256 %s, want %s", tc.args, tc.old, got, tc.sha256)
		}
		if stderr != tc.stats+"\n" {
			t.Errorf("%v (was %s): stats %q, want %q", tc.args, tc.old, stderr, tc.stats)
		}
	}
}

// TestWritesMaterializedStream: for every built-in kind, -mob writes
// exactly WriteTrace over the spec's drained stream, to stdout and to
// the -o file alike.
func TestWritesMaterializedStream(t *testing.T) {
	for _, spec := range mobility.BuiltinSpecs() {
		src, err := mobility.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		stream, err := src.Stream(7)
		if err != nil {
			t.Fatal(err)
		}
		s, err := contact.Materialize(stream)
		if err != nil {
			t.Fatal(err)
		}
		var want bytes.Buffer
		if err := mobility.WriteTrace(&want, s); err != nil {
			t.Fatal(err)
		}
		if stdout, _ := runOK(t, "-mob", spec, "-seed", "7"); stdout != want.String() {
			t.Errorf("%s: stdout differs from WriteTrace(Materialize(Stream))", spec)
		}
		path := filepath.Join(t.TempDir(), "trace.txt")
		if stdout, _ := runOK(t, "-mob", spec, "-seed", "7", "-o", path); stdout != "" {
			t.Errorf("%s: -o also wrote %d bytes to stdout", spec, len(stdout))
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want.Bytes()) {
			t.Errorf("%s: -o file differs from WriteTrace(Materialize(Stream)) (read err %v)", spec, err)
		}
		if stdout, stderr := runOK(t, "-mob", spec, "-seed", "7", "-stats"); stdout != "" || stderr == "" {
			t.Errorf("%s: -stats wrote %d trace bytes and stats %q", spec, len(stdout), stderr)
		}
	}
}

// TestFractionalTimesRoundTrip: classic RWP sampled every 2.5 s closes
// contacts at half seconds; the written trace must parse back to the
// very schedule the spec streams.
func TestFractionalTimesRoundTrip(t *testing.T) {
	const spec = "rwp:nodes=12,area=600,range=100,span=5000,dt=2.5"
	want, err := dtnsim.Scenario{Mobility: spec, Seed: 3}.Materialize()
	if err != nil {
		t.Fatal(err)
	}
	stdout, _ := runOK(t, "-mob", spec, "-seed", "3")
	got, err := dtnsim.ParseTrace(strings.NewReader(stdout))
	if err != nil {
		t.Fatal(err)
	}
	fractional := 0
	for _, c := range want.Contacts {
		if c.End != dtnsim.Time(int64(c.End)) {
			fractional++
		}
	}
	if fractional == 0 {
		t.Fatal("no contact ends off the whole second; the case proves nothing")
	}
	if got.Nodes != want.Nodes || !slices.Equal(got.Contacts, want.Contacts) {
		t.Errorf("round trip changed the schedule (%d of %d contacts end off the whole second)", fractional, len(want.Contacts))
	}
}

// TestFlags: -h lists exactly the four flags and is not an error;
// unknown flags, stray arguments and bad specs are.
func TestFlags(t *testing.T) {
	var stderr bytes.Buffer
	if err := run([]string{"-h"}, &bytes.Buffer{}, &stderr); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("-h: err %v, want flag.ErrHelp", err)
	}
	listed := regexp.MustCompile(`(?m)^  -(\w+)`).FindAllStringSubmatch(stderr.String(), -1)
	var names []string
	for _, m := range listed {
		names = append(names, m[1])
	}
	if want := []string{"mob", "o", "seed", "stats"}; !slices.Equal(names, want) {
		t.Errorf("-h lists %v, want %v", names, want)
	}
	for _, args := range [][]string{
		{"-model", "trace"},
		{"-mob", "cambridge", "extra"},
		{"-mob", "bogus"},
		{"-mob", "rwp:nodes=1"},
		{"-o", filepath.Join(t.TempDir(), "missing", "trace.txt")},
	} {
		if err := run(args, &bytes.Buffer{}, &bytes.Buffer{}); err == nil || errors.Is(err, flag.ErrHelp) {
			t.Errorf("%v: err %v, want a failure", args, err)
		}
	}
}
