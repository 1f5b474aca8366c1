package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/churn"
	"mlpeering/internal/collector"
	"mlpeering/internal/core"
	"mlpeering/internal/experiments"
	"mlpeering/internal/mrt"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/propagate"
	"mlpeering/internal/serve"
	"mlpeering/internal/topology"
)

// churnCycle is what one replay cycle measured. A cycle is 2×Epochs
// windows: window 0 carries the base-RIB load, windows 1..Epochs-1 are
// churned, and the second half is idle — past the last update, where a
// publish costs only its O(mesh) floor.
type churnCycle struct {
	publish []time.Duration // previous publish (or the replay call) → NewSnapshot return
	closes  []time.Duration // PassiveWindow.CloseTime, as the program reports it
	fps     []uint64
	newest  *serve.Snapshot

	events, liveRoutes, relLinks int
	stability                    float64
}

// windowKind names a window's spans by the class of window.
func windowKind(k, epochs int) string {
	switch {
	case k == 0:
		return "base"
	case k < epochs:
		return "churned"
	default:
		return "idle"
	}
}

// checkWindow is the per-window correctness check; fps holds this
// cycle's fingerprints up to and including window k, ref the first
// cycle's.
func checkWindow(k, epochs int, pw *core.PassiveWindow, fps, ref []uint64) error {
	if pw.MeshLinks != pw.Result.TotalLinks() {
		return fmt.Errorf("churn-paper: window %d: MeshLinks %d != TotalLinks %d", k, pw.MeshLinks, pw.Result.TotalLinks())
	}
	if k >= epochs && (pw.Stability != 1 || fps[k] != fps[epochs-1]) {
		return fmt.Errorf("churn-paper: idle window %d: stability %v, fingerprint %016x, last churned window's %016x",
			k, pw.Stability, fps[k], fps[epochs-1])
	}
	if ref != nil && fps[k] != ref[k] {
		return fmt.Errorf("churn-paper: window %d: fingerprint %016x, first cycle's %016x", k, fps[k], ref[k])
	}
	return nil
}

// replayCycle replays the trace once, publishing every window as a
// snapshot and keeping only the newest. Each window is one op.
func (r *run) replayCycle(ctx context.Context, ct *experiments.ChurnTrace, tr *tracer, cycle int, ref []uint64) (churnCycle, error) {
	var c churnCycle
	epochs := ct.Epochs
	root := tr.begin("churn.cycle", -1, cycle)
	defer tr.end(root)
	last := time.Now()
	err := ct.ReplayWindows(ctx, 2*epochs, 0, func(pw *core.PassiveWindow) {
		k := len(c.fps)
		entered := time.Now()
		snap := serve.NewSnapshot(uint64(cycle*2*epochs+k+1), ct.Scenario, pw, entered)
		now := time.Now()

		// The callback runs right after the close, so the close
		// the program timed ended at entered.
		kind, closed := windowKind(k, epochs), entered.Add(-pw.CloseTime)
		tr.add("core.apply."+kind, root, cycle, last, closed)
		tr.add("core.close."+kind, root, cycle, closed, entered)
		tr.add("serve.snapshot", root, cycle, entered, now)

		c.publish = append(c.publish, now.Sub(last))
		c.closes = append(c.closes, pw.CloseTime)
		c.fps = append(c.fps, snap.Fingerprint)
		c.newest = snap
		if kind == "churned" {
			c.events += pw.Announced + pw.Withdrawn
			c.stability += pw.Stability
		}
		c.liveRoutes, c.relLinks = pw.LiveRoutes, pw.RelLinks
		r.op(checkWindow(k, epochs, pw, c.fps, ref))
		last = now
	})
	return c, err
}

// churnPhase replays cycles for the given time (at least one) and
// pools their publish times by window class, in milliseconds.
type churnPhase struct {
	base, churned, idle []float64
	slowest             []float64 // each cycle's slowest churned publish
	windows             int
	wall                time.Duration
	lastCycle           churnCycle
}

func (r *run) churnPhase(ctx context.Context, ct *experiments.ChurnTrace, tr *tracer, length time.Duration, ref []uint64) churnPhase {
	var ph churnPhase
	t0 := time.Now()
	for n := 0; n == 0 || time.Since(t0) < length; n++ {
		c, err := r.replayCycle(ctx, ct, tr, n, ref)
		if err != nil {
			r.op(fmt.Errorf("churn-paper: replay: %w", err))
			break
		}
		slowest := 0.0
		for k, d := range c.publish {
			ms := float64(d) / 1e6
			switch windowKind(k, ct.Epochs) {
			case "base":
				ph.base = append(ph.base, ms)
			case "churned":
				ph.churned = append(ph.churned, ms)
				slowest = max(slowest, ms)
			default:
				ph.idle = append(ph.idle, ms)
			}
		}
		ph.slowest = append(ph.slowest, slowest)
		ph.windows += len(c.publish)
		ph.lastCycle = c
	}
	ph.wall = time.Since(t0)
	return ph
}

func runChurn(r *run) {
	ctx := context.Background()

	// Set-up is the trace build: world, churn epochs, update stream.
	t0 := time.Now()
	var ct *experiments.ChurnTrace
	var err error
	if r.traced() {
		ct, err = r.buildTraceDecomposed()
	} else {
		ct, err = experiments.BuildChurnTrace(r.cfg, r.churn)
	}
	setup := time.Since(t0)
	if err != nil {
		r.op(fmt.Errorf("churn-paper: trace build: %w", err))
		return
	}

	// One discarded cycle grows the heap to its working size and fixes
	// the fingerprints every later cycle must reproduce.
	warm, err := r.replayCycle(ctx, ct, nil, 0, nil)
	if err != nil {
		r.op(fmt.Errorf("churn-paper: replay: %w", err))
		return
	}
	ref := warm.fps

	if !r.traced() {
		ph := r.churnPhase(ctx, ct, nil, r.budget(), ref)
		heap := liveHeapMB()
		runtime.KeepAlive(ct)
		runtime.KeepAlive(ph.lastCycle.newest)

		r.e2e("setup_s", setup.Seconds(), "s", 0)
		r.e2e("publish_ms_p50", median(ph.churned), "ms", len(ph.churned))
		r.e2eTail("publish_ms_p90", ph.churned, 0.9, "ms")
		r.e2e("publish_idle_ms_p50", median(ph.idle), "ms", len(ph.idle))
		r.e2e("base_load_s_p50", median(ph.base)/1e3, "s", len(ph.base))
		r.e2e("live_heap_mb", heap, "MB", 0)
		r.headline["setup_s"] = setup.Seconds()
		r.headline["ops_per_s"] = float64(ph.windows) / ph.wall.Seconds()
		// Not the pooled p90: two of the eleven churned windows are
		// heavy, so that percentile sits on the edge between them and
		// read 62 or 75 ms on identical runs. The slowest window of a
		// cycle, median over cycles, is the same tail without the edge.
		r.headline["op_ms_tail"] = median(ph.slowest)
		r.headline["live_heap_mb"] = heap
		return
	}

	third := r.budget() / 3
	before := sampleProcess()
	refPh := r.churnPhase(ctx, ct, nil, third, ref)
	ph := r.churnPhase(ctx, ct, r.tr, third, ref)

	// The same closes without materializing a Result, then on one
	// worker, then the remine oracle over the churned half.
	churned := func(closes []time.Duration) []float64 {
		var out []float64
		for k := 1; k < ct.Epochs && k < len(closes); k++ {
			out = append(out, float64(closes[k])/1e6)
		}
		return out
	}
	var stream, w1 []time.Duration
	id := r.tr.begin("churn.stream_cycle", -1, 0)
	err = ct.StreamWindows(core.WindowsIncremental, ct.Epochs, 0, func(pw *core.PassiveWindow) {
		stream = append(stream, pw.CloseTime)
	})
	r.tr.end(id)
	if err == nil {
		id = r.tr.begin("churn.w1_cycle", -1, 0)
		err = ct.ReplayWindows(ctx, ct.Epochs, 1, func(pw *core.PassiveWindow) { w1 = append(w1, pw.CloseTime) })
		r.tr.end(id)
	}
	var oracle *core.PassiveWindowsResult
	if err == nil {
		id = r.tr.begin("churn.remine_oracle", -1, 0)
		oracle, err = ct.Windows(core.WindowsRemine, 0)
		r.tr.end(id)
	}
	if err != nil {
		r.op(fmt.Errorf("churn-paper: diagnostic cycles: %w", err))
		return
	}
	var remine []time.Duration
	for k := range oracle.Windows {
		pw := &oracle.Windows[k]
		remine = append(remine, pw.CloseTime)
		var werr error
		if fp := pw.Result.Fingerprint(); fp != ref[k] {
			werr = fmt.Errorf("churn-paper: window %d: incremental fingerprint %016x, remine oracle's %016x", k, ref[k], fp)
		}
		r.op(werr)
	}
	r.processLayers(before)

	r.spans = mergeSpans(r.tr)
	self := selfTimes(r.spans)
	ms := func(name string) float64 { return median(selfMS(r.spans, self, name)) }
	n := len(ph.churned)
	epochs := float64(len(selfMS(r.spans, self, "propagate.apply")))
	r.layer("churn.next_delta_ms", ms("churn.next_delta"), int(epochs))
	r.layer("propagate.apply_ms", ms("propagate.apply"), int(epochs))
	r.layer("collector.stream_init_ms", ms("collector.stream_init"), 1)
	r.layer("collector.write_epoch_ms", ms("collector.write_epoch"), int(epochs))
	r.layer("topology.truth_ms", ms("topology.truth"), int(epochs))
	if epochs > 0 {
		r.layer("propagate.dirty_dests", float64(r.traceBuild.dirty)/epochs, int(epochs))
		r.layer("collector.epoch_events", float64(r.traceBuild.events)/epochs, int(epochs))
	}

	r.layer("core.base_replay_ms", ms("core.apply.base"), len(ph.base))
	r.layer("core.apply_ms", ms("core.apply.churned"), n)
	r.layer("core.close_ms", ms("core.close.churned"), n)
	r.layer("core.close_stream_ms", median(churned(stream)), len(churned(stream)))
	r.layer("core.materialize_ms", ms("core.close.churned")-median(churned(stream)), n)
	r.layer("core.close_w1_ms", median(churned(w1)), len(churned(w1)))
	if c := ms("core.close.churned"); c > 0 {
		r.layer("core.close_speedup", median(churned(w1))/c, n)
	}
	r.layer("core.remine_close_ms", median(churned(remine)), len(churned(remine)))
	r.layer("serve.snapshot_ms", ms("serve.snapshot"), ph.windows)
	c := ph.lastCycle
	r.layer("serve.mesh_bytes", float64(len(serve.RenderMesh(c.newest.Epoch, c.newest.Fingerprint, c.newest.Result))), 0)
	if churnedWindows := float64(ct.Epochs - 1); churnedWindows > 0 {
		r.layer("core.window_events", float64(c.events)/churnedWindows, int(churnedWindows))
		r.layer("core.stability_mean", c.stability/churnedWindows, int(churnedWindows))
	}
	r.layer("core.mesh_links", float64(c.newest.Stats.MeshLinks), 0)
	r.layer("core.live_routes", float64(c.liveRoutes), 0)
	r.layer("relation.rel_links", float64(c.relLinks), 0)
	r.layer("core.publish_ms_p50", median(ph.churned), n)
	r.layer("core.publish_ms_p90", quantile(ph.churned, 0.9), n)
	r.layer("core.publish_idle_ms_p50", median(ph.idle), len(ph.idle))
	r.layer("core.base_load_s_p50", median(ph.base)/1e3, len(ph.base))
	if base := median(refPh.churned); base > 0 {
		r.layer("trace.overhead_frac", (median(ph.churned)-base)/base, n)
	}
	r.layer("trace.coverage_frac", coverage(r.spans, self, "churn.cycle"), ph.windows)
}

// traceBuild carries the counts the decomposed trace build saw.
type traceBuild struct{ dirty, events int }

// buildTraceDecomposed is experiments.BuildChurnTrace taken apart: the
// same calls in the same order (collector name, feeder count and trace
// start are copied from it), each under its own span.
func (r *run) buildTraceDecomposed() (*experiments.ChurnTrace, error) {
	tr := r.tr
	root := tr.begin("churn.trace_build", -1, 0)
	defer tr.end(root)
	stage := func(name string, f func()) {
		id := tr.begin(name, root, 0)
		f()
		tr.end(id)
	}

	var w *pipeline.World
	var dict *core.Dictionary
	var err error
	stage("pipeline.build_world", func() { w, err = pipeline.BuildWorld(r.cfg) })
	if err != nil {
		return nil, err
	}
	defer w.Close()
	stage("core.dictionary", func() { dict, err = w.Dictionary() })
	if err != nil {
		return nil, err
	}

	col := collector.New("rrc-churn", w.Engine, nil, 4)
	runner := churn.NewRunner(w.Engine, r.churn)
	ccfg := runner.Config()
	start := pipeline.Timestamp.Add(2 * time.Hour)
	var stream *collector.UpdateStream
	stage("collector.stream_init", func() { stream = collector.NewUpdateStream(col) })

	trace := &churn.Trace{Start: start, Interval: ccfg.Interval}
	var buf bytes.Buffer
	for k := 0; k < ccfg.Epochs; k++ {
		var d *propagate.Delta
		var dirty []bgp.ASN
		var ann, wd int
		var truth map[topology.LinkKey]bool
		stage("churn.next_delta", func() { d = runner.NextDelta() })
		stage("propagate.apply", func() { dirty, err = w.Engine.Apply(d) })
		if err != nil {
			return nil, fmt.Errorf("epoch %d: %w", k, err)
		}
		stage("collector.write_epoch", func() {
			ann, wd, err = stream.WriteEpoch(&buf, start.Add(time.Duration(k)*ccfg.Interval), ccfg.Interval, dirty)
		})
		if err != nil {
			return nil, fmt.Errorf("epoch %d stream: %w", k, err)
		}
		stage("topology.truth", func() { truth = w.Topo.AllGroundTruthReciprocalLinks() })
		trace.Epochs = append(trace.Epochs, churn.EpochStats{
			Epoch: k, Ops: d.Ops(), DirtyDests: len(dirty), Announced: ann, Withdrawn: wd, TruthLinks: len(truth),
		})
		trace.Truth = append(trace.Truth, truth)
		r.traceBuild.dirty += len(dirty)
		r.traceBuild.events += ann + wd
	}

	var updates []*mrt.BGP4MPMessage
	stage("mrt.read_updates", func() { updates, err = mrt.ReadUpdates(&buf) })
	if err != nil {
		return nil, err
	}
	return &experiments.ChurnTrace{
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
