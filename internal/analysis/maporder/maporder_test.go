package maporder_test

import (
	"path/filepath"
	"testing"

	"dtnsim/internal/analysis/analysistest"
	"dtnsim/internal/analysis/maporder"
)

func TestMapOrder(t *testing.T) {
	res := analysistest.Run(t, filepath.Join("testdata", "src", "a"), maporder.Analyzer)
	// Twenty-one flagged loops, the sanctioned idiom sorted through
	// sort and through slices, one suppression.
	analysistest.MustFindings(t, res, 21)
	if got := res.AllowCounts["maporder"]; got != 1 {
		t.Errorf("AllowCounts[maporder] = %d, want 1", got)
	}
}

func TestMatchScopesToSimPackages(t *testing.T) {
	for pkg, want := range map[string]bool{
		"dtnsim/internal/core":              true,
		"dtnsim/internal/protocol":          true,
		"dtnsim/internal/experiment":        true,
		"dtnsim/internal/sim":               true,
		"dtnsim/internal/dist":              true,
		"dtnsim/internal/dist/frame":        true,
		"dtnsim/internal/report":            true,
		"dtnsim/internal/spec":              true,
		"dtnsim/internal/bundle":            true,
		"dtnsim/internal/stats":             true,
		"dtnsim/internal/analysis":          true,
		"dtnsim/internal/analysis/maporder": true,
		"dtnsim/internal/server":            false,
		"dtnsim":                            false,
		"dtnsim/cmd/dtnsim":                 false,
		"dtnsim/cmd/dtnlint":                false,
		"dtnsim/bench":                      false,
		"dtnsim/client":                     false,
		"example.com/dtnsim/internal/core":  false,
	} {
		if got := maporder.Analyzer.Match(pkg); got != want {
			t.Errorf("Match(%q) = %v, want %v", pkg, got, want)
		}
	}
}
