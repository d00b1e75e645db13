package main

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSweepCSVGoldens pins the bytes of constrained.csv and scale.csv
// for the cells CI runs (`-only constrained -runs 2` and `-only scale
// -scale-nodes 300,100,600 -scale-span 5000 -scale-runs 2`, seed 2012)
// against testdata, at one worker and at every CPU. A change to the
// sweep harness that moves a seed, a fold or a column shows here.
func TestSweepCSVGoldens(t *testing.T) {
	for _, workers := range []int{1, 0} {
		dir := t.TempDir()
		runConstrained(dir, 2, 2012, workers, true)
		runScale(dir, "300,100,600", 2, 2012, workers, 5000, true)
		for _, name := range []string{"constrained.csv", "scale.csv"} {
			got, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			want, err := os.ReadFile(filepath.Join("testdata", name))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("workers=%d: %s differs from testdata:\n got:\n%s\nwant:\n%s", workers, name, got, want)
			}
		}
	}
}

// TestCheckFlags: a run count or scale span the sweeps would silently
// replace with their default is refused, naming the flag, when a
// selected experiment reads it; every positive value, fractional spans
// included, passes, and a flag no selected experiment reads is not
// checked. A negative worker count, which every experiment reads, is
// always refused; 0 (all CPUs) and 1 (sequential) pass.
func TestCheckFlags(t *testing.T) {
	for _, tc := range []struct {
		name      string
		only      string
		runs      int
		scaleRuns int
		workers   int
		scaleSpan float64
		flag      string // "" = accepted; else the flag the error names
	}{
		{"defaults", "", 10, 3, 0, 50000, ""},
		{"defaults with scale", "fig07,scale", 10, 3, 0, 50000, ""},
		{"one run each", "fig07,scale", 1, 1, 1, 1, ""},
		{"fractional span", "scale", 2, 2, 4, 0.4, ""},
		{"zero runs", "", 0, 3, 0, 50000, "-runs"},
		{"negative runs", "constrained", -2, 3, 0, 50000, "-runs"},
		{"negative runs beside scale", "fig07,scale", -2, 3, 0, 50000, "-runs"},
		{"zero scale runs", "scale", 10, 0, 0, 50000, "-scale-runs"},
		{"negative scale runs", "scale", 10, -1, 0, 50000, "-scale-runs"},
		{"zero span", "scale", 10, 3, 0, 0, "-scale-span"},
		{"negative span", "scale", 10, 3, 0, -5, "-scale-span"},
		{"NaN span", "scale", 10, 3, 0, math.NaN(), "-scale-span"},
		{"scale runs unread", "fig07", 10, 0, 0, 50000, ""},
		{"span unread", "", 10, 3, 0, -5, ""},
		{"runs unread", "scale", -2, 3, 0, 50000, ""},
		{"negative workers", "", 10, 3, -3, 50000, "-workers"},
		{"negative workers for scale", "scale", 10, 3, -1, 50000, "-workers"},
	} {
		selected := map[string]bool{}
		for _, id := range strings.Split(tc.only, ",") {
			if id != "" {
				selected[id] = true
			}
		}
		err := checkFlags(selected, tc.runs, tc.scaleRuns, tc.workers, tc.scaleSpan)
		switch {
		case tc.flag == "" && err != nil:
			t.Errorf("%s: refused: %v", tc.name, err)
		case tc.flag != "" && err == nil:
			t.Errorf("%s: accepted", tc.name)
		case tc.flag != "" && !strings.HasPrefix(err.Error(), tc.flag+" "):
			t.Errorf("%s: error %q does not name %s", tc.name, err, tc.flag)
		}
	}
}
