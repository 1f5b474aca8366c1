package experiments

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/core"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

const accuracyGoldenFile = "testdata/accuracy_golden.txt"

// accuracyLine scores one inferred mesh against the world's ground
// truth:
//   - precision and recall of the distinct links against
//     AllGroundTruthReciprocalLinks;
//   - per-IXP false positives: links inferred at an IXP that are not
//     reciprocal there, summed over IXPs;
//   - over-permissive setters: covered (IXP, setter) pairs whose
//     reconstructed export filter allows an RS member the true filter
//     blocks.
func accuracyLine(scenario, mode string, topo *topology.Topology, truth map[bgp.LinkKey]bool, res *core.Result) string {
	tp := 0
	for link := range res.Links {
		if truth[link] {
			tp++
		}
	}
	var precision, recall float64
	if n := res.TotalLinks(); n > 0 {
		precision = float64(tp) / float64(n)
	}
	if len(truth) > 0 {
		recall = float64(tp) / float64(len(truth))
	}
	perIXPFP, overPermissive := 0, 0
	for _, x := range topo.IXPs {
		inf := res.PerIXP[x.Name]
		if inf == nil {
			continue
		}
		local := topo.GroundTruthReciprocalLinks(x.Name)
		for _, link := range res.IXPLinks(x.Name) {
			if !local[link] {
				perIXPFP++
			}
		}
		members := x.SortedRSMembers()
		for _, c := range inf.Covered {
			s, got := c.ASN, c.Filter
			want, ok := topo.Policy(x.Name, s)
			if !ok {
				overPermissive++ // no true filter: any allowance is too much
				continue
			}
			for _, m := range members {
				if m != s && got.Allows(m) && !want.Export.Allows(m) {
					overPermissive++
					break
				}
			}
		}
	}
	return fmt.Sprintf("%s %s %d %d %d %.4f %.4f %d %d\n", scenario, mode,
		res.TotalLinks(), tp, len(truth), precision, recall, perIXPFP, overPermissive)
}

// accuracyGolden scores, for every registered scenario at test scale,
// three runs against ground truth: batch RunInference (passive plus the
// active LG survey), batch passive-only (InferLinks over the passive
// observations alone), and the incremental windowed pipeline over the
// same world's archives (two one-hour windows from the RIB dump).
func accuracyGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# scenario mode links true_pos truth precision recall perixp_fp over_permissive\n")
	for _, name := range topology.ScenarioNames() {
		cfg := topology.TestConfig()
		cfg.Scenario = name
		w, err := pipeline.BuildWorld(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		truth := w.Topo.AllGroundTruthReciprocalLinks()

		// The windowed run reads the dictionary as published, before the
		// survey refines its member lists.
		dict, err := w.Dictionary()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		windows, err := core.RunPassiveWindows(w.Dumps, w.Updates, dict, core.WindowOptions{
			Start:  pipeline.Timestamp,
			Window: time.Hour,
			Count:  2,
			Mode:   core.WindowsIncremental,
		})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}

		run, err := w.RunInference(context.Background(), core.DefaultActiveConfig())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		b.WriteString(accuracyLine(name, "batch", w.Topo, truth, run.Result))
		b.WriteString(accuracyLine(name, "passive-only", w.Topo, truth, core.InferLinks(run.Dict, run.Passive.Obs)))
		for i := range windows.Windows {
			b.WriteString(accuracyLine(name, fmt.Sprintf("window-%d", i), w.Topo, truth, windows.Windows[i].Result))
		}
		w.Close()
	}
	return b.String()
}

// TestAccuracyGolden pins how right the inference is, not only what it
// outputs: precision, recall, per-IXP false positives and
// over-permissive setters of batch, passive-only and windowed runs on
// all five scenarios. A change that moves any of them fails here;
// regenerate with `go test ./internal/experiments -run
// TestAccuracyGolden -update` only when it is meant to, and say why.
func TestAccuracyGolden(t *testing.T) {
	checkGolden(t, accuracyGoldenFile, accuracyGolden(t))
}
