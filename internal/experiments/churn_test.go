package experiments

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"mlpeering/internal/churn"
	"mlpeering/internal/core"
	"mlpeering/internal/topology"
)

func churnResult(t *testing.T, seed int64) *ChurnResult {
	t.Helper()
	ccfg := churn.DefaultConfig(seed)
	ccfg.Epochs = 3
	ccfg.Interval = 10 * time.Minute
	ct, err := BuildChurnTrace(topology.TestConfig(), ccfg)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ct.Run()
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// TestRunChurnShape checks the windowed-inference table is well-formed:
// one row per epoch, real withdraw traffic, live inference per window,
// and sane stability/precision values.
func TestRunChurnShape(t *testing.T) {
	res := churnResult(t, 7)
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %d, want 3", len(res.Rows))
	}
	sawWithdraw, sawLinks := false, false
	for i, row := range res.Rows {
		if row.Window != i {
			t.Fatalf("row %d numbered %d", i, row.Window)
		}
		if row.Ops == 0 || row.DirtyDests == 0 {
			t.Fatalf("row %d: empty epoch (%+v)", i, row)
		}
		if row.Withdrawn > 0 {
			sawWithdraw = true
		}
		if row.Links > 0 {
			sawLinks = true
		}
		if row.Stability < 0 || row.Stability > 1 || row.Precision < 0 || row.Precision > 1 ||
			row.Recall < 0 || row.Recall > 1 {
			t.Fatalf("row %d: metrics out of range: %+v", i, row)
		}
		if row.LiveRoutes == 0 {
			t.Fatalf("row %d: live table empty", i)
		}
	}
	if !sawWithdraw {
		t.Fatal("no window saw withdrawals")
	}
	if !sawLinks {
		t.Fatal("no window inferred any links")
	}
	out := res.Render().String()
	if out == "" {
		t.Fatal("empty render")
	}
}

// TestRunChurnDeterministic pins the whole experiment: same config ⇒
// identical per-window rows.
func TestRunChurnDeterministic(t *testing.T) {
	a := churnResult(t, 7)
	b := churnResult(t, 7)
	if !reflect.DeepEqual(a.Rows, b.Rows) {
		t.Fatalf("rows diverge:\n%+v\n---\n%+v", a.Rows, b.Rows)
	}
}

// assertModesEquivalent replays one churn trace through both windowed
// modes — the incremental path and the remine fallback — and requires
// byte-identical per-window meshes plus identical counters (mesh size,
// relationship metrics, stability): the end-to-end form of the
// byte-identity contract between the two modes.
func assertModesEquivalent(t *testing.T, seed int64, cfg topology.Config) {
	t.Helper()
	ccfg := churn.DefaultConfig(seed)
	ccfg.Epochs = 3
	ccfg.Interval = 10 * time.Minute
	ct, err := BuildChurnTrace(cfg, ccfg)
	if err != nil {
		t.Fatal(err)
	}

	incW, err := ct.Windows(core.WindowsIncremental, 0)
	if err != nil {
		t.Fatal(err)
	}
	remW, err := ct.Windows(core.WindowsRemine, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(incW.Windows) != len(remW.Windows) {
		t.Fatalf("window counts diverge: %d incremental vs %d remine", len(incW.Windows), len(remW.Windows))
	}
	var a, b []byte
	for i := range incW.Windows {
		wi, wr := &incW.Windows[i], &remW.Windows[i]
		a = wi.Result.AppendMesh(a[:0])
		b = wr.Result.AppendMesh(b[:0])
		if !bytes.Equal(a, b) {
			t.Fatalf("window %d: meshes diverge between modes (%d vs %d links)",
				i, wi.Result.TotalLinks(), wr.Result.TotalLinks())
		}
		if wi.LiveRoutes != wr.LiveRoutes || wi.Dropped != wr.Dropped ||
			wi.RelLinks != wr.RelLinks || wi.P2PRels != wr.P2PRels ||
			wi.Announced != wr.Announced || wi.Withdrawn != wr.Withdrawn ||
			wi.WithdrawnOnlyUpdates != wr.WithdrawnOnlyUpdates ||
			wi.Stability != wr.Stability {
			t.Fatalf("window %d: counters diverge between modes", i)
		}
	}
}

// TestRunChurnModesEquivalentTestScale pins incremental to re-mine over
// the full churn pipeline at test scale.
func TestRunChurnModesEquivalentTestScale(t *testing.T) {
	assertModesEquivalent(t, 7, topology.TestConfig())
}

// TestRunChurnModesEquivalentScale10 repeats the equivalence at
// scaled-world@Scale-10 (33 IXPs, ~16k ASes): the acceptance scale of
// the incremental windowed pipeline.
func TestRunChurnModesEquivalentScale10(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled-world equivalence skipped in -short mode")
	}
	if raceEnabled {
		t.Skip("scaled-world equivalence skipped under the race detector")
	}
	cfg := topology.DefaultConfig()
	cfg.Scenario = "scaled-world"
	cfg.Scale = 10
	assertModesEquivalent(t, 11, cfg)
}

// TestBuildChurnTraceRejectsBadSchedule pins that a schedule of no
// epochs or a non-positive interval is refused before any world is
// built, with a message naming the value, instead of being rewritten
// to one 10-minute epoch.
func TestBuildChurnTraceRejectsBadSchedule(t *testing.T) {
	cfg := topology.TestConfig()
	cfg.Scenario = "no-such-scenario" // building anything would fail on this instead
	for _, c := range []struct {
		epochs   int
		interval time.Duration
		want     string
	}{
		{0, 10 * time.Minute, "churn epochs must be at least 1, got 0"},
		{-3, 10 * time.Minute, "churn epochs must be at least 1, got -3"},
		{6, 0, "churn interval must be positive, got 0s"},
		{6, -5 * time.Minute, "churn interval must be positive, got -5m0s"},
	} {
		ccfg := churn.DefaultConfig(1)
		ccfg.Epochs, ccfg.Interval = c.epochs, c.interval
		ct, err := BuildChurnTrace(cfg, ccfg)
		if ct != nil || err == nil || err.Error() != "experiments: "+c.want {
			t.Errorf("epochs %d interval %v: got (%v, %v), want the error %q", c.epochs, c.interval, ct, err, c.want)
		}
	}
}

// TestStreamWindowsRejectsCountPastTrace pins that StreamWindows refuses
// more windows than the trace has epochs, naming both, before anything
// is replayed.
func TestStreamWindowsRejectsCountPastTrace(t *testing.T) {
	ct := &ChurnTrace{Epochs: 2}
	called := false
	err := ct.StreamWindows(core.WindowsIncremental, 3, 0, func(*core.PassiveWindow) { called = true })
	want := "experiments: 3 windows requested from a trace of 2 epochs"
	if err == nil || err.Error() != want || called {
		t.Fatalf("StreamWindows(count 3) over 2 epochs: err %v, callback called %v; want the error %q and no callback", err, called, want)
	}
}
