package lint_test

import (
	"testing"

	"mlpeering/internal/lint"
	"mlpeering/internal/lint/linttest"
)

func TestShardDiscipline(t *testing.T) {
	diags, _ := linttest.Run(t, "testdata", lint.ShardDiscipline, "shardfix")
	if got, want := len(diags), 2; got != want {
		t.Errorf("diagnostics = %d, want %d", got, want)
	}
}
