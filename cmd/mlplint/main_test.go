package main

import (
	"errors"
	"os"
	"os/exec"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is
// re-executed by runMain, so the tests below exercise the real flag
// handling and exit codes.
func TestMain(m *testing.M) {
	if os.Getenv("MLPLINT_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// runMain runs main with args in a child process started in the module
// root and returns its combined output and exit code.
func runMain(t *testing.T, args ...string) (string, int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Dir = "../.."
	cmd.Env = append(os.Environ(), "MLPLINT_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if errors.As(err, &exit) {
		return string(out), exit.ExitCode()
	}
	if err != nil {
		t.Fatal(err)
	}
	return string(out), 0
}

func TestListAnalyzers(t *testing.T) {
	out, code := runMain(t, "-list")
	if code != 0 {
		t.Fatalf("mlplint -list exited %d: %s", code, out)
	}
	want := []string{"maporder", "rngclock", "sharddiscipline", "floatorder", "frozen", "guardedby", "allocfree", "orphans", "worldwall"}
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != len(want) {
		t.Fatalf("mlplint -list prints %d lines, want %d:\n%s", len(lines), len(want), out)
	}
	for i, name := range want {
		if f := strings.Fields(lines[i]); len(f) == 0 || f[0] != name {
			t.Errorf("mlplint -list line %d = %q, want analyzer %s", i, lines[i], name)
		}
	}
}

func TestUnknownRuleRejected(t *testing.T) {
	out, code := runMain(t, "-rules", "nope", "./internal/bgp")
	if code != 2 || !strings.Contains(out, `unknown analyzer "nope"`) {
		t.Errorf("mlplint -rules nope: exit %d, output %q; want exit 2 naming the analyzer", code, out)
	}
}

func TestCleanPackagePasses(t *testing.T) {
	if out, code := runMain(t, "./internal/bgp"); code != 0 {
		t.Errorf("mlplint ./internal/bgp exited %d:\n%s", code, out)
	}
}

// TestModuleClean runs the whole suite over the module, as CI's lint
// job does: the world wall and the frozen, memo and orphan rules hold
// on the tree.
func TestModuleClean(t *testing.T) {
	if out, code := runMain(t, "./..."); code != 0 {
		t.Errorf("mlplint ./... exited %d:\n%s", code, out)
	}
}
