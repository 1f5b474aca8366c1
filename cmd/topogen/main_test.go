package main

import (
	"crypto/sha256"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"mlpeering/internal/irr"
	"mlpeering/internal/mrt"
	"mlpeering/internal/peeringdb"
	"mlpeering/internal/topology"
)

// TestMain runs main instead of the tests when the test binary is
// re-executed by runMain, so the tests below exercise the real flag
// handling, file writing and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("TOPOGEN_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite the output goldens under testdata from the current code")

// runMain runs main with args in a child process and returns its
// combined output and whether it exited zero.
func runMain(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	return runMainEnv(t, nil, args...)
}

// runMainEnv is runMain with env added to the child's environment.
func runMainEnv(t *testing.T, env []string, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), env...), "TOPOGEN_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return string(out), err == nil
}

// TestWritesReadableArtifacts pins that every file topogen writes reads
// back with the parser a consumer would use, and that SUMMARY.txt
// describes the world topology.Generate builds from the same settings.
func TestWritesReadableArtifacts(t *testing.T) {
	dir := t.TempDir()
	log, ok := runMain(t, "-scale", "0.12", "-out", dir)
	if !ok {
		t.Fatalf("topogen failed: %s", log)
	}
	cfg := topology.DefaultConfig()
	cfg.Scale = 0.12
	topo, err := topology.Generate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	st := topo.Stats()

	dump, err := mrt.ReadDumpFile(filepath.Join(dir, "rib.mrt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(dump.RIBs) != st.Prefixes {
		t.Errorf("rib.mrt holds %d RIB records, want one per prefix: %d", len(dump.RIBs), st.Prefixes)
	}
	if _, err := mrt.ReadUpdatesFile(filepath.Join(dir, "updates.mrt")); err != nil {
		t.Fatal(err)
	}

	f, err := os.Open(filepath.Join(dir, "irr.rpsl"))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	objs, err := irr.Parse(f)
	if err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("irr.rpsl (%d objects)", len(objs)); !strings.Contains(log, want) {
		t.Errorf("log does not report the %d parsed IRR objects: %s", len(objs), log)
	}
	pf, err := os.Open(filepath.Join(dir, "peeringdb.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer pf.Close()
	pdb := peeringdb.NewRegistry()
	if _, err := pdb.ReadFrom(pf); err != nil {
		t.Fatal(err)
	}
	if want := fmt.Sprintf("peeringdb.json (%d records)", pdb.Len()); !strings.Contains(log, want) {
		t.Errorf("log does not report the %d loaded PeeringDB records: %s", pdb.Len(), log)
	}

	summary, err := os.ReadFile(filepath.Join(dir, "SUMMARY.txt"))
	if err != nil {
		t.Fatal(err)
	}
	head, ixps, found := strings.Cut(string(summary), "\nIXPs:\n")
	if !found {
		t.Fatalf("SUMMARY.txt has no IXP section:\n%s", summary)
	}
	if want := fmt.Sprintf("%+v", st); !strings.Contains(head, want) {
		t.Errorf("SUMMARY.txt stats:\n%s\nwant %s", head, want)
	}
	lines := strings.Split(strings.TrimSpace(ixps), "\n")
	if len(lines) != len(topo.IXPs) {
		t.Fatalf("SUMMARY.txt lists %d IXPs, want %d", len(lines), len(topo.IXPs))
	}
	for i, info := range topo.IXPs {
		var name string
		var members, rs int
		if _, err := fmt.Sscanf(lines[i], "%s members=%d rs=%d", &name, &members, &rs); err != nil {
			t.Fatalf("SUMMARY.txt line %q: %v", lines[i], err)
		}
		if name != info.Name || members != len(info.Members) || rs != len(info.RSMembers) {
			t.Errorf("SUMMARY.txt: %s members=%d rs=%d, want %s members=%d rs=%d",
				name, members, rs, info.Name, len(info.Members), len(info.RSMembers))
		}
	}
}

func TestListScenarios(t *testing.T) {
	out, ok := runMain(t, "-list-scenarios")
	if !ok {
		t.Fatalf("topogen -list-scenarios failed: %s", out)
	}
	var names []string
	for _, line := range strings.Split(strings.TrimSpace(out), "\n") {
		names = append(names, strings.Fields(line)[0])
	}
	want := []string{"baseline", "multi-ixp-hybrid", "pari-noise", "remote-peering", "scaled-world"}
	if !slices.Equal(names, want) {
		t.Errorf("topogen -list-scenarios lists %v, want %v", names, want)
	}
}

func TestUnknownScenarioRejected(t *testing.T) {
	out, ok := runMain(t, "-scenario", "nope", "-out", t.TempDir())
	if ok || !strings.Contains(out, `unknown scenario "nope"`) {
		t.Errorf("topogen -scenario nope: exit ok=%v, output %q; want a failure naming %q", ok, out, "nope")
	}
}

// TestOutputGolden pins every file topogen writes at -scale 0.12 for
// each scenario, at GOMAXPROCS=1 and at the default core count: the
// sha256 of each data file and SUMMARY.txt in full. The output is a pure
// function of the flags and the seed, so a change that must not move the
// generated world keeps the goldens green without -update, which
// rewrites them from the default-width run.
func TestOutputGolden(t *testing.T) {
	for _, scenario := range topology.ScenarioNames() {
		path := filepath.Join("testdata", scenario+"_scale0.12.golden")
		for _, env := range [][]string{nil, {"GOMAXPROCS=1"}} {
			dir := t.TempDir()
			if log, ok := runMainEnv(t, env, "-scale", "0.12", "-scenario", scenario, "-out", dir); !ok {
				t.Fatalf("topogen -scenario %s (env %v) failed: %s", scenario, env, log)
			}
			var b strings.Builder
			for _, name := range []string{"irr.rpsl", "peeringdb.json", "rib.mrt", "updates.mrt"} {
				data, err := os.ReadFile(filepath.Join(dir, name))
				if err != nil {
					t.Fatal(err)
				}
				fmt.Fprintf(&b, "%s %x\n", name, sha256.Sum256(data))
			}
			summary, err := os.ReadFile(filepath.Join(dir, "SUMMARY.txt"))
			if err != nil {
				t.Fatal(err)
			}
			b.WriteString("SUMMARY.txt:\n")
			b.Write(summary)
			got := b.String()
			if *update && env == nil {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (run with -update to create it)", err)
			}
			if got != string(want) {
				t.Errorf("topogen -scenario %s -scale 0.12 (env %v) differs from %s:\ngot\n%s\nwant\n%s", scenario, env, path, got, want)
			}
		}
	}
}
