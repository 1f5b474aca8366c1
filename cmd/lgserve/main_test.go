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
	if os.Getenv("LGSERVE_RUN_MAIN") == "1" {
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
	cmd.Env = append(os.Environ(), "LGSERVE_RUN_MAIN=1")
	out, err := cmd.CombinedOutput()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		t.Fatal(err)
	}
	return string(out), err == nil
}

// TestServingFlagsRejected pins that a setting that means nothing exits
// non-zero with a message naming the value before any world is built
// and before the listener opens: no refused run announces a gateway.
func TestServingFlagsRejected(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"-drain", "-1s"}, "-drain -1s is negative"},
		{[]string{"-max-inflight", "-1"}, "in-flight cap -1 is negative"},
		{[]string{"-max-age", "500ms"}, "max-age 500ms is under the one second"},
		{[]string{"-epoch-interval", "-200ms"}, "epoch interval -200ms is negative"},
		{[]string{"-scale", "Inf"}, "scale must be a positive finite number, got +Inf"},
		{[]string{"-scenario", "nope"}, `unknown scenario "nope"`},
		{[]string{"-churn-epochs", "0"}, "churn epochs must be at least 1, got 0"},
		{[]string{"-churn-interval", "0s"}, "churn interval must be positive, got 0s"},
	} {
		args := append([]string{"-addr", "127.0.0.1:0"}, c.args...)
		out, ok := runMain(t, args...)
		if ok || !strings.Contains(out, c.want) {
			t.Errorf("lgserve %s: exit ok=%v, output %q; want a failure naming %q",
				strings.Join(c.args, " "), ok, out, c.want)
		}
		if strings.Contains(out, "gateway on") {
			t.Errorf("lgserve %s: refused after announcing a gateway: %q", strings.Join(c.args, " "), out)
		}
	}
}
