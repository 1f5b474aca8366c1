package main

import (
	"bytes"
	"errors"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestMain runs main instead of the tests when the test binary is
// re-executed by runMain, so the refusals below exercise the real flag
// handling and exit path.
func TestMain(m *testing.M) {
	if os.Getenv("MLPEXPERIMENTS_RUN_MAIN") == "1" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

var update = flag.Bool("update", false, "rewrite the stdout goldens under testdata")

// runMain runs main with args in a child process whose environment adds
// env to this one's, and returns its standard output, its standard
// error and whether it exited zero.
func runMain(t *testing.T, env []string, args ...string) (stdout, stderr string, ok bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(append(os.Environ(), "MLPEXPERIMENTS_RUN_MAIN=1"), env...)
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), err == nil
}

// TestStdoutGolden pins main's standard output byte for byte: every
// paper table and figure at -scale 0.3, and the churn table at -churn
// -scale 0.3 -churn-epochs 6, each at GOMAXPROCS=1 and at the default
// core count. The output is a pure function of the flags and the seed,
// so a change that must not move a result keeps both goldens green
// without -update, which rewrites them from the GOMAXPROCS=1 run.
func TestStdoutGolden(t *testing.T) {
	for _, c := range []struct {
		golden string
		args   []string
	}{
		{"tables_scale0.3.golden", []string{"-scale", "0.3"}},
		{"churn_scale0.3_epochs6.golden", []string{"-churn", "-scale", "0.3", "-churn-epochs", "6"}},
	} {
		path := filepath.Join("testdata", c.golden)
		for _, env := range [][]string{{"GOMAXPROCS=1"}, nil} {
			got, stderr, ok := runMain(t, env, c.args...)
			if !ok {
				t.Fatalf("mlpexperiments %s (env %v) failed:\n%s", strings.Join(c.args, " "), env, stderr)
			}
			if *update && env != nil {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
				i := 0
				for i < min(len(gl), len(wl)) && gl[i] == wl[i] {
					i++
				}
				g, w := "(end of output)", "(end of output)"
				if i < len(gl) {
					g = gl[i]
				}
				if i < len(wl) {
					w = wl[i]
				}
				t.Errorf("mlpexperiments %s (env %v): stdout differs from %s at line %d:\ngot  %q\nwant %q",
					strings.Join(c.args, " "), env, path, i+1, g, w)
			}
		}
	}
}

// TestChurnFlagsRejected pins that a churn schedule or world scale main
// cannot run exits non-zero with a message naming the value, instead of
// being rewritten to one 10-minute epoch or a clamped minimum world, and
// so does a flag set outside the mode it belongs to, instead of being
// ignored.
func TestChurnFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-churn", "-churn-epochs", "0"}, "churn epochs must be at least 1, got 0"},
		{[]string{"-churn", "-churn-interval", "-5m"}, "churn interval must be positive, got -5m0s"},
		{[]string{"-scale", "NaN"}, "scale must be a positive finite number, got NaN"},
		// A flag outside its mode is refused, not ignored.
		{[]string{"-churn-epochs", "3"}, "-churn-epochs=3 only applies with -churn"},
		{[]string{"-churn-interval", "5m"}, "-churn-interval=5m0s only applies with -churn"},
		{[]string{"-cpuprofile", "cpu.prof"}, "-cpuprofile=cpu.prof only applies with -churn"},
		{[]string{"-memprofile", "mem.prof"}, "-memprofile=mem.prof only applies with -churn"},
	} {
		_, out, ok := runMain(t, nil, c.args...)
		if ok || !strings.Contains(out, c.want) {
			t.Errorf("mlpexperiments %s: exit ok=%v, output %q; want a failure naming %q",
				strings.Join(c.args, " "), ok, out, c.want)
		}
	}
}
