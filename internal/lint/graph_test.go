package lint_test

import (
	"testing"

	"mlpeering/internal/lint"
	"mlpeering/internal/lint/linttest"
)

func TestWorldWall(t *testing.T) {
	// core reaches topology through relation, relation directly; the
	// finding names the chain. bgp reaches nothing of the world, and
	// topology is on the world side.
	for pkg, want := range map[string]int{
		"wallfix/internal/core":     1,
		"wallfix/internal/relation": 1,
		"wallfix/internal/bgp":      0,
		"wallfix/internal/topology": 0,
	} {
		if live, _ := linttest.Run(t, "testdata", lint.WorldWall, pkg); len(live) != want {
			t.Errorf("%s: live diagnostics = %d, want %d", pkg, len(live), want)
		}
	}
}

func TestOrphans(t *testing.T) {
	// lonely has no importer; used is imported by app, testonly only
	// by used's test; app is outside internal/.
	for pkg, want := range map[string]int{
		"orphanfix/internal/lonely":   1,
		"orphanfix/internal/used":     0,
		"orphanfix/internal/testonly": 0,
		"orphanfix/app":               0,
	} {
		if live, _ := linttest.Run(t, "testdata", lint.Orphans, pkg); len(live) != want {
			t.Errorf("%s: live diagnostics = %d, want %d", pkg, len(live), want)
		}
	}
}
