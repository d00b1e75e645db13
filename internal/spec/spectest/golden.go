// Package spectest replays the frozen spec-spelling corpora
// (testdata/specs.golden) of the protocol and mobility registries.
package spectest

import (
	"bytes"
	"os"
	"strconv"
	"strings"
	"testing"
)

// Golden replays a corpus file. Every non-comment line is a quoted
// input, a tab, and what the registry made of it; render produces that
// second half (by convention "ERR" for a rejected spec). A canonical
// spelling that moves orphans every cached result keyed by it, so a
// mismatch is a failure, not a diff to wave through. With update set
// the file is rewritten from its own inputs instead.
func Golden(t *testing.T, path string, update bool, render func(input string) string) {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	for i, line := range strings.Split(strings.TrimRight(string(data), "\n"), "\n") {
		if line == "" || strings.HasPrefix(line, "#") {
			out.WriteString(line + "\n")
			continue
		}
		quoted, want, _ := strings.Cut(line, "\t")
		input, err := strconv.Unquote(quoted)
		if err != nil {
			t.Fatalf("%s:%d: input %s is not a quoted string: %v", path, i+1, quoted, err)
		}
		got := render(input)
		if !update && got != want {
			t.Errorf("%s:%d: %s\n got %s\nwant %s", path, i+1, quoted, got, want)
		}
		out.WriteString(quoted + "\t" + got + "\n")
	}
	if update {
		if err := os.WriteFile(path, out.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
