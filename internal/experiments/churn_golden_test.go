package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"mlpeering/internal/churn"
	"mlpeering/internal/topology"
)

const churnGoldenFile = "testdata/churn_golden.txt"

// churnGolden renders the churn experiment's scoring columns for a
// test-scale 6-epoch trace of every registered scenario, one line per
// window: the inferred mesh size, the ground-truth mesh size after the
// window's epoch, the true positives, and precision and recall as the
// table prints them. The true positives are read back from the
// precision (exact: tp/n*n rounds to tp for any mesh this size), and
// the recall must be that count over the epoch's TruthLinks, so the
// columns cannot drift apart.
func churnGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# scenario window links truth_links true_positives precision recall\n")
	for _, name := range topology.ScenarioNames() {
		cfg := topology.TestConfig()
		cfg.Scenario = name
		ccfg := churn.DefaultConfig(20130501)
		ccfg.Epochs = 6
		ct, err := BuildChurnTrace(cfg, ccfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := ct.Run()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(res.Rows) != len(ct.Trace.Epochs) {
			t.Fatalf("%s: %d rows for %d epochs", name, len(res.Rows), len(ct.Trace.Epochs))
		}
		for k, row := range res.Rows {
			truth := ct.Trace.Epochs[k].TruthLinks
			tp := int(math.Round(row.Precision * float64(row.Links)))
			if truth > 0 && row.Recall != float64(tp)/float64(truth) {
				t.Fatalf("%s window %d: recall %v is not %d/%d", name, k, row.Recall, tp, truth)
			}
			fmt.Fprintf(&b, "%s %d %d %d %d %.3f %.3f\n", name, row.Window,
				row.Links, truth, tp, row.Precision, row.Recall)
		}
	}
	return b.String()
}

// TestChurnGolden pins the churn table's scoring columns on all five
// scenarios to a checked-in file, so a change to how the per-epoch
// ground truth is built or folded that moves any window's score fails
// here. Regenerate with `go test ./internal/experiments -run
// TestChurnGolden -update` only when the scores are meant to move.
func TestChurnGolden(t *testing.T) {
	checkGolden(t, churnGoldenFile, churnGolden(t))
}
