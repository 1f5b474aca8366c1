package main

import (
	"errors"
	"os"
	"os/exec"
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

// runMain runs main with args in a child process and returns its
// combined output and whether it exited zero.
func runMain(t *testing.T, args ...string) (string, bool) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), "MLPEXPERIMENTS_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return string(out), err == nil
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
		{[]string{"-churn", "-churn-stream", "-churn-windows", "-1"}, "-churn-windows must not be negative, got -1"},
		{[]string{"-scale", "NaN"}, "scale must be a positive finite number, got NaN"},
		// A flag outside its mode is refused, not ignored.
		{[]string{"-churn", "-churn-epochs", "1", "-churn-windows", "3", "-scale", "0.12"}, "-churn-windows=3 only applies with -churn-stream"},
		{[]string{"-churn-stream", "-churn-windows", "3"}, "-churn-stream=true only applies with -churn"},
		{[]string{"-churn-epochs", "3"}, "-churn-epochs=3 only applies with -churn"},
		{[]string{"-churn-interval", "5m"}, "-churn-interval=5m0s only applies with -churn"},
		{[]string{"-cpuprofile", "cpu.prof"}, "-cpuprofile=cpu.prof only applies with -churn"},
		{[]string{"-memprofile", "mem.prof"}, "-memprofile=mem.prof only applies with -churn"},
	} {
		out, ok := runMain(t, c.args...)
		if ok || !strings.Contains(out, c.want) {
			t.Errorf("mlpexperiments %s: exit ok=%v, output %q; want a failure naming %q",
				strings.Join(c.args, " "), ok, out, c.want)
		}
	}
}
