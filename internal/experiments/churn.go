package experiments

import (
	"bytes"
	"context"
	"fmt"
	"time"

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
	Mode     core.WindowsMode
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

// BuildChurnTrace builds a world, evolves it through the configured
// churn epochs (incremental engine apply + announce/withdraw diff
// stream) and captures everything the windowed inference consumes. The
// dictionary is built once from the pre-churn world, like the real
// method's snapshot of IXP websites: membership churn after the
// snapshot is exactly what erodes coverage.
func BuildChurnTrace(cfg topology.Config, ccfg churn.Config) (*ChurnTrace, error) {
	w, err := pipeline.BuildWorld(cfg)
	if err != nil {
		return nil, err
	}
	defer w.Close()

	dict, err := w.Dictionary()
	if err != nil {
		return nil, err
	}

	col := collector.New("rrc-churn", w.Engine, nil, 4)
	runner := churn.NewRunner(w.Engine, ccfg)
	ccfg = runner.Config()

	start := pipeline.Timestamp.Add(2 * time.Hour)
	var buf bytes.Buffer
	trace, err := runner.Run(&buf, col, start)
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
// the given mode. workers sizes the close-time worker pool (0 means
// GOMAXPROCS); results are bit-identical for any value.
func (ct *ChurnTrace) Windows(mode core.WindowsMode, workers int) (*core.PassiveWindowsResult, error) {
	return core.RunPassiveWindows(ct.Dumps, ct.Updates, ct.Dict, core.WindowOptions{
		Start:   ct.Start,
		Window:  ct.Interval,
		Count:   ct.Epochs,
		Mode:    mode,
		Workers: workers,
	})
}

// StreamWindows replays the trace handing each window to fn at close and
// retaining none. It never materializes: in incremental mode the mesh is
// not snapshotted unless fn itself calls pw.Materialize(), so CloseTime
// is the bare O(churn) close and memory stays bounded by the live state
// regardless of horizon length (the long-horizon replay mode). count
// overrides the number of windows when positive (windows past the last
// update replay over the then-static live table), letting a fixed trace
// drive an arbitrarily long horizon.
func (ct *ChurnTrace) StreamWindows(mode core.WindowsMode, count, workers int, fn func(*core.PassiveWindow)) error {
	if count <= 0 {
		count = ct.Epochs
	}
	_, err := core.RunPassiveWindows(ct.Dumps, ct.Updates, ct.Dict, core.WindowOptions{
		Start:   ct.Start,
		Window:  ct.Interval,
		Count:   count,
		Mode:    mode,
		Workers: workers,
		Stream:  fn,
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
// window-close boundary; count overrides the number of windows when
// positive.
func (ct *ChurnTrace) ReplayWindows(ctx context.Context, count, workers int, fn func(*core.PassiveWindow)) error {
	if count <= 0 {
		count = ct.Epochs
	}
	_, err := core.RunPassiveWindows(ct.Dumps, ct.Updates, ct.Dict, core.WindowOptions{
		Start:   ct.Start,
		Window:  ct.Interval,
		Count:   count,
		Mode:    core.WindowsIncremental,
		Workers: workers,
		Stream: func(pw *core.PassiveWindow) {
			pw.Materialize()
			fn(pw)
		},
		Ctx: ctx,
	})
	return err
}

// RunChurn builds a churn trace and re-runs passive inference per epoch
// window in the given mode (core.WindowsIncremental maintains the
// observation store under announce/withdraw deltas; core.WindowsRemine
// is the re-mine oracle the equivalence tests compare it against).
func RunChurn(cfg topology.Config, ccfg churn.Config, mode core.WindowsMode, workers int) (*ChurnResult, error) {
	ct, err := BuildChurnTrace(cfg, ccfg)
	if err != nil {
		return nil, err
	}
	return ct.Run(mode, workers)
}

// Run derives the churn experiment table from the trace in the given
// mode, fanning window closes out on workers goroutines (0 means
// GOMAXPROCS).
func (ct *ChurnTrace) Run(mode core.WindowsMode, workers int) (*ChurnResult, error) {
	windows, err := ct.Windows(mode, workers)
	if err != nil {
		return nil, err
	}
	trace := ct.Trace

	res := &ChurnResult{Scenario: ct.Scenario, Mode: mode, Epochs: ct.Epochs, Interval: ct.Interval}
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
			Stability:     windows.Stability[k],
		}
		if k < len(trace.Epochs) {
			row.Ops = trace.Epochs[k].Ops
			row.DirtyDests = trace.Epochs[k].DirtyDests
		}
		if k < len(trace.Truth) {
			truth := trace.Truth[k]
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
		Title: fmt.Sprintf("Route churn: windowed ML-mesh inference (%s, %s mode, %d epochs @ %v)",
			r.Scenario, r.Mode, r.Epochs, r.Interval),
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
