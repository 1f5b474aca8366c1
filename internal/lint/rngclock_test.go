package lint_test

import (
	"testing"

	"mlpeering/internal/lint"
	"mlpeering/internal/lint/linttest"
)

func TestRNGClock(t *testing.T) {
	diags, _ := linttest.Run(t, "testdata", lint.RNGClock, "internal/rngfix")
	if got, want := len(diags), 3; got != want {
		t.Errorf("diagnostics = %d, want %d", got, want)
	}
}

// TestRNGClockOutsideInternal pins the jurisdiction: the same code
// under a non-internal path produces no findings (cmd/ timing code is
// exempt by construction).
func TestRNGClockOutsideInternal(t *testing.T) {
	diags, _ := linttest.Run(t, "testdata", lint.RNGClock, "clockexempt")
	if len(diags) != 0 {
		t.Errorf("expected no diagnostics outside internal/, got %d", len(diags))
	}
}
