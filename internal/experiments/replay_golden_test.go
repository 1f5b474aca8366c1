package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/topology"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/replay_golden.txt from the current code")

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
			fmt.Fprintf(&b, "%s %d %016x %d %d %d %d %s\n", name, i,
				pw.Result.Fingerprint(), pw.MeshLinks, pw.RelLinks, pw.P2PRels,
				pw.LiveRoutes, strconv.FormatFloat(pw.Stability, 'g', -1, 64))
		}
	}
	return b.String()
}

// TestReplayGolden pins the incremental replay's per-window output on
// all five scenarios to a checked-in file, so a refactor of the miner,
// the mesh or the relation oracle that changes any window's mesh or
// counters fails here. Regenerate with `go test ./internal/experiments
// -run TestReplayGolden -update` only when the output is meant to move.
func TestReplayGolden(t *testing.T) {
	got := replayGolden(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(replayGoldenFile), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(replayGoldenFile, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(replayGoldenFile)
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
				t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
			}
		}
	}
}
