package experiments

import (
	"flag"
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden files under testdata from the current code")

const replayGoldenFile = "testdata/replay_golden.txt"

// replayGolden renders a test-scale 6-epoch incremental replay of every
// registered scenario as one line per window: the mesh fingerprint and
// the counters the window carries.
func replayGolden(t *testing.T) string {
	t.Helper()
	var b strings.Builder
	b.WriteString("# scenario window fingerprint mesh_links rel_links p2p_rels live_routes stability\n")
	for _, name := range topology.ScenarioNames() {
		cfg := topology.TestConfig()
		cfg.Scenario = name
		ccfg := churn.DefaultConfig(20130501)
		ccfg.Epochs = 6
		ct, err := BuildChurnTrace(cfg, ccfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		res, err := ct.Windows(core.WindowsIncremental, 0)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for i := range res.Windows {
			pw := &res.Windows[i]
			checkAttribution(t, fmt.Sprintf("%s window %d", name, i), pw.Result)
			fmt.Fprintf(&b, "%s %d %016x %d %d %d %d %s\n", name, i,
				pw.Result.Fingerprint(), pw.MeshLinks, pw.RelLinks, pw.P2PRels,
				pw.LiveRoutes, strconv.FormatFloat(pw.Stability, 'g', -1, 64))
		}
	}
	return b.String()
}

// checkAttribution holds a materialized Result against the per-IXP
// reciprocity oracle: each IXP's Covered is strictly ascending by ASN,
// and each link is attributed to exactly the IXPs whose covered filters
// allow it both ways.
func checkAttribution(t *testing.T, what string, res *core.Result) {
	t.Helper()
	want := make(map[topology.LinkKey][]string)
	for _, name := range slices.Sorted(maps.Keys(res.PerIXP)) {
		x := res.PerIXP[name]
		for i := 1; i < len(x.Covered); i++ {
			if x.Covered[i-1].ASN >= x.Covered[i].ASN {
				t.Fatalf("%s: %s covered AS%d before AS%d: not strictly ascending", what, name, x.Covered[i-1].ASN, x.Covered[i].ASN)
			}
		}
		for i, a := range x.Covered {
			for _, b := range x.Covered[i+1:] {
				if a.Filter.Allows(b.ASN) && b.Filter.Allows(a.ASN) {
					k := topology.MakeLinkKey(a.ASN, b.ASN)
					want[k] = append(want[k], name)
				}
			}
		}
	}
	if !maps.EqualFunc(res.Links, want, slices.Equal[[]string]) {
		t.Fatalf("%s: attribution map (%d links) differs from the reciprocity oracle (%d links)", what, len(res.Links), len(want))
	}
}

// TestReplayGolden pins the incremental replay's per-window output on
// all five scenarios to a checked-in file, so a refactor of the miner,
// the mesh or the relation oracle that changes any window's mesh or
// counters fails here. Regenerate with `go test ./internal/experiments
// -run TestReplayGolden -update` only when the output is meant to move.
func TestReplayGolden(t *testing.T) {
	checkGolden(t, replayGoldenFile, replayGolden(t))
}

// checkGolden compares got with the golden file at path line by line,
// or rewrites the file under -update.
func checkGolden(t *testing.T, path, got string) {
	t.Helper()
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create it)", err)
	}
	if got != string(want) {
		gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) || i < len(wl); i++ {
			var g, w string
			if i < len(gl) {
				g = gl[i]
			}
			if i < len(wl) {
				w = wl[i]
			}
			if g != w {
				t.Errorf("%s line %d:\n got  %q\n want %q", path, i+1, g, w)
			}
		}
	}
}
