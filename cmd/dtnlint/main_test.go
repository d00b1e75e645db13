package main

import (
	"bytes"
	"strings"
	"testing"
)

// TestTreeIsClean is the smoke test CI leans on: the full module must
// carry zero unsuppressed diagnostics and stay inside the committed
// suppression budget. A new violation anywhere in internal/ or cmd/
// turns this red before the lint job even runs.
func TestTreeIsClean(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-C", "../..", "./..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("dtnlint over the tree exited %d\nstdout:\n%s\nstderr:\n%s",
			code, stdout.String(), stderr.String())
	}
	if out := stdout.String(); out != "" {
		t.Errorf("expected no diagnostics on stdout, got:\n%s", out)
	}
}

// TestSeededMapRangeFails pins the acceptance criterion from the issue:
// a deliberate order-sensitive map range must fail the lint gate, both
// in dtnsim/internal/core and in dtnsim/internal/sim, which maporder
// covers because its scope is every internal package but
// internal/server. The fixture modules in testdata/badcore and
// testdata/badsim claim those import paths.
func TestSeededMapRangeFails(t *testing.T) {
	for _, dir := range []string{"testdata/badcore", "testdata/badsim"} {
		var stdout, stderr bytes.Buffer
		code := run([]string{"-C", dir, "./..."}, &stdout, &stderr)
		if code != 1 {
			t.Fatalf("%s: exit code = %d, want 1\nstdout:\n%s\nstderr:\n%s",
				dir, code, stdout.String(), stderr.String())
		}
		out := stdout.String()
		if !strings.Contains(out, "maporder") || !strings.Contains(out, "bad.go") {
			t.Errorf("%s: diagnostic should name maporder and bad.go, got:\n%s", dir, out)
		}
	}
}

// TestSeededMapRangeFailsJSON checks the machine-readable output path
// on the same fixture.
func TestSeededMapRangeFailsJSON(t *testing.T) {
	var stdout, stderr bytes.Buffer
	code := run([]string{"-C", "testdata/badcore", "-json", "./..."}, &stdout, &stderr)
	if code != 1 {
		t.Fatalf("exit code = %d, want 1\nstderr:\n%s", code, stderr.String())
	}
	out := stdout.String()
	for _, want := range []string{`"diagnostics"`, `"analyzer": "maporder"`, `bad.go`} {
		if !strings.Contains(out, want) {
			t.Errorf("JSON output missing %s:\n%s", want, out)
		}
	}
}

// TestListAnalyzers keeps the composed suite honest: all four passes
// must be registered.
func TestListAnalyzers(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("-list exited %d", code)
	}
	out := stdout.String()
	for _, name := range []string{"maporder", "rngdiscipline", "hotpathalloc", "errsentinel"} {
		if !strings.Contains(out, name) {
			t.Errorf("-list output missing analyzer %s:\n%s", name, out)
		}
	}
}
