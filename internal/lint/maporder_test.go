package lint_test

import (
	"testing"

	"mlpeering/internal/lint"
	"mlpeering/internal/lint/linttest"
)

func TestMapOrder(t *testing.T) {
	diags, _ := linttest.Run(t, "testdata", lint.MapOrder, "maporderfix")
	// The fixture carries five real findings plus one
	// reasonless-waiver report; waived and sorted cases are silent.
	if got, want := len(diags), 6; got != want {
		t.Errorf("diagnostics = %d, want %d", got, want)
	}
}
