package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/collector"
	"mlpeering/internal/core"
	"mlpeering/internal/metrics"
	"mlpeering/internal/mrt"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/topology"
)

// ChurnWindowRow is one inference window of the route-churn experiment.
type ChurnWindowRow struct {
	Window        int
	Ops           int // mutation events applied in the window's epoch
	DirtyDests    int // destinations the incremental engine re-examined
	Announced     int // prefix announcements in the window
	Withdrawn     int // prefix withdrawals in the window
	WithdrawnOnly int // withdrawn-only UPDATEs in the window
	LiveRoutes    int // (feeder, prefix) live-table size at window close
	RelLinks      int // AS-relationship links inferred in the window
	P2PRels       int // p2p-labelled subset of RelLinks
	Links         int // inferred ML links at window close
	Stability     float64
	Precision     float64 // inferred ∩ truth / inferred (truth after the epoch)
	Recall        float64 // inferred ∩ truth / truth (reciprocal mesh)
}

// ChurnResult is the windowed-inference-under-churn experiment: how
// stable and how correct the inferred multilateral mesh stays while the
// world mutates underneath the measurement.
type ChurnResult struct {
	Scenario string
	Epochs   int
	Interval time.Duration
	Rows     []ChurnWindowRow
}

// ChurnTrace is a pre-built churn workload: the world's base RIB
// dumps, the announce/withdraw update trace of the full churn schedule,
// the inference dictionary, and the per-epoch ground truth. It is the
// reusable input of the windowed inference — mode comparisons and
// benchmarks replay the same trace instead of regenerating the world.
type ChurnTrace struct {
	Scenario string
	Start    time.Time
	Interval time.Duration
	Epochs   int
	Dumps    []*mrt.Dump
	Updates  []*mrt.BGP4MPMessage
	Dict     *core.Dictionary
	Trace    *churn.Trace
}

// CheckChurnTrace refuses, before anything is built, a schedule of no
// epochs or a non-positive interval, or what topology.Config.Check does.
func CheckChurnTrace(cfg topology.Config, ccfg churn.Config) error {
	if ccfg.Epochs < 1 {
		return fmt.Errorf("experiments: churn epochs must be at least 1, got %d", ccfg.Epochs)
	}
	if ccfg.Interval <= 0 {
		return fmt.Errorf("experiments: churn interval must be positive, got %v", ccfg.Interval)
	}
	return cfg.Check()
}

// BuildChurnTrace builds a world, evolves it through the configured
// churn epochs (incremental engine apply + announce/withdraw diff
// stream) and captures everything the windowed inference consumes. The
// dictionary is built once from the pre-churn world, like the real
// method's snapshot of IXP websites: membership churn after the
// snapshot is exactly what erodes coverage. What CheckChurnTrace
// refuses is an error, returned before anything is built.
func BuildChurnTrace(cfg topology.Config, ccfg churn.Config) (*ChurnTrace, error) {
	if err := CheckChurnTrace(cfg, ccfg); err != nil {
		return nil, err
	}
	w, err := pipeline.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	dict, err := w.Dictionary()
	if err != nil {
		return nil, err
	}

	col := collector.New("rrc-churn", w.Engine, nil, 0)
	runner := churn.NewRunner(w.Engine, ccfg)
	ccfg = runner.Config()

	start := pipeline.Timestamp.Add(2 * time.Hour)
	var buf bytes.Buffer
	trace, err := runner.Run(&buf, col, w.Dumps[0], start)
	if err != nil {
		return nil, err
	}
	updates, err := mrt.ReadUpdates(&buf)
	if err != nil {
		return nil, err
	}
	return &ChurnTrace{
		Scenario: w.Scenario(),
		Start:    start,
		Interval: ccfg.Interval,
		Epochs:   ccfg.Epochs,
		Dumps:    w.Dumps,
		Updates:  updates,
		Dict:     dict,
		Trace:    trace,
	}, nil
}

// Windows replays the trace through the windowed passive pipeline in
// the given mode. Window closes are sequential: workers is ignored, and
// kept only because the benchmark harness still passes it.
func (ct *ChurnTrace) Windows(mode core.WindowsMode, workers int) (*core.PassiveWindowsResult, error) {
	return core.RunPassiveWindows(ct.Dumps, ct.Updates, ct.Dict, core.WindowOptions{
		Start:  ct.Start,
		Window: ct.Interval,
		Count:  ct.Epochs,
		Mode:   mode,
	})
}

// StreamWindows replays the trace handing each window to fn at close and
// retaining none. It never materializes: in incremental mode the mesh is
// not snapshotted unless fn itself calls pw.Materialize(), so CloseTime
// is the bare O(churn) close and memory stays bounded by the live state
// regardless of horizon length (the long-horizon replay mode). A
// positive count replays only the first count windows; a count above
// ct.Epochs is an error. workers is ignored, as in Windows.
func (ct *ChurnTrace) StreamWindows(mode core.WindowsMode, count, workers int, fn func(*core.PassiveWindow)) error {
	if count > ct.Epochs {
		return fmt.Errorf("experiments: %d windows requested from a trace of %d epochs", count, ct.Epochs)
	}
	if count <= 0 {
		count = ct.Epochs
	}
	_, err := core.RunPassiveWindows(ct.Dumps, ct.Updates, ct.Dict, core.WindowOptions{
		Start:  ct.Start,
		Window: ct.Interval,
		Count:  count,
		Mode:   mode,
		Stream: fn,
	})
	return err
}

// ReplayWindows replays the trace through the incremental windowed
// pipeline handing each window to fn at close, like StreamWindows, but
// with the per-window Result materialized — the serving tier's epoch
// producer. Materialization happens before fn is entered, one
// MeshState.Snapshot per window, so pw.CloseTime as fn reads it covers
// close plus snapshot and a caller may back-date the close from fn's
// entry by it. pw.Result is safe to retain after the callback returns
// (the *PassiveWindow itself is not). ctx cancels the replay at the next
// window-close boundary.
//
// A positive count replays that many windows from a fresh base load and
// returns. A count of 0 replays the trace in cycles of ct.Epochs windows
// until ctx is done, and returns ctx.Err(). The cycles wrap by rewinding
// (core.WindowOptions.Loop): the base dumps are loaded once, and after
// that the replay reads only ct.Updates and ct.Dict, so a caller that
// drops ct lets the dumps and the ground truth go. The wrap contract:
//   - the epochs a caller numbers keep rising; nothing here resets them;
//   - the first window of every cycle is the first window again: the
//     same mesh, so the same fingerprint, and the same counters, with
//     Stability 1 and Rewound the number of slots the wrap restored;
//   - every later window of a cycle equals the same window of the first
//     cycle.
//
// workers is ignored, as in Windows.
func (ct *ChurnTrace) ReplayWindows(ctx context.Context, count, workers int, fn func(*core.PassiveWindow)) error {
	loop := count <= 0
	if loop {
		count = ct.Epochs
	}
	_, err := core.RunPassiveWindows(ct.Dumps, ct.Updates, ct.Dict, core.WindowOptions{
		Start:  ct.Start,
		Window: ct.Interval,
		Count:  count,
		Mode:   core.WindowsIncremental,
		Stream: func(pw *core.PassiveWindow) {
			pw.Materialize()
			fn(pw)
		},
		Ctx:  ctx,
		Loop: loop,
	})
	return err
}

// Run derives the churn experiment table from the trace in incremental
// mode. Window k is scored against the ground-truth mesh after epoch k,
// kept as one running set: the trace's base mesh with each epoch's
// delta folded in before its window is scored.
func (ct *ChurnTrace) Run() (*ChurnResult, error) {
	windows, err := ct.Windows(core.WindowsIncremental, 0)
	if err != nil {
		return nil, err
	}
	trace := ct.Trace
	truth := make(map[bgp.LinkKey]bool, len(trace.TruthBase))
	for _, l := range trace.TruthBase {
		truth[l] = true
	}

	res := &ChurnResult{Scenario: ct.Scenario, Epochs: ct.Epochs, Interval: ct.Interval}
	for k := range windows.Windows {
		pw := &windows.Windows[k]
		row := ChurnWindowRow{
			Window:        k,
			Announced:     pw.Announced,
			Withdrawn:     pw.Withdrawn,
			WithdrawnOnly: pw.WithdrawnOnlyUpdates,
			LiveRoutes:    pw.LiveRoutes,
			RelLinks:      pw.RelLinks,
			P2PRels:       pw.P2PRels,
			Links:         pw.Result.TotalLinks(),
			Stability:     pw.Stability,
		}
		if k < len(trace.Epochs) {
			row.Ops = trace.Epochs[k].Ops
			row.DirtyDests = trace.Epochs[k].DirtyDests
		}
		if k < len(trace.TruthDeltas) {
			trace.TruthDeltas[k].Apply(truth)
			tp := 0
			for link := range pw.Result.Links {
				if truth[link] {
					tp++
				}
			}
			if n := pw.Result.TotalLinks(); n > 0 {
				row.Precision = float64(tp) / float64(n)
			}
			if len(truth) > 0 {
				row.Recall = float64(tp) / float64(len(truth))
			}
		}
		res.Rows = append(res.Rows, row)
	}
	return res, nil
}

// Render formats the experiment as a table.
func (r *ChurnResult) Render() *metrics.Table {
	t := &metrics.Table{
		Title: fmt.Sprintf("Route churn: windowed ML-mesh inference (%s, incremental mode, %d epochs @ %v)",
			r.Scenario, r.Epochs, r.Interval),
		Columns: []string{"window", "ops", "dirty", "ann", "wdr", "wdr-only", "live", "rels", "p2p", "links", "stability", "precision", "recall"},
	}
	for _, row := range r.Rows {
		t.AddRow(row.Window, row.Ops, row.DirtyDests, row.Announced, row.Withdrawn,
			row.WithdrawnOnly, row.LiveRoutes, row.RelLinks, row.P2PRels, row.Links,
			fmt.Sprintf("%.3f", row.Stability),
			fmt.Sprintf("%.3f", row.Precision),
			fmt.Sprintf("%.3f", row.Recall))
	}
	return t
}
