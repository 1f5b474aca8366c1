package main

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"mlpeering/internal/bgp"
	"mlpeering/internal/collector"
	"mlpeering/internal/core"
	"mlpeering/internal/mrt"
	"mlpeering/internal/pipeline"
	"mlpeering/internal/propagate"
	"mlpeering/internal/relation"
	"mlpeering/internal/topology"
)

// Golden outputs of the paper's world (world seed 20130501, Scale 1).
const (
	goldenLinks     = 186187
	goldenLGQueries = 4504
)

// batchPass times one op of batch-paper: the paper's one-shot pipeline.
type batchPass struct{ build, infer, total time.Duration }

// batchKeep holds the newest pass's world and result reachable, so
// live_heap_mb counts them.
type batchKeep struct {
	world *pipeline.World
	out   *pipeline.Run
}

func (r *run) batchPass(ctx context.Context, tr *tracer, op int) (p batchPass, keep batchKeep, err error) {
	root := tr.begin("batch.pass", -1, op)
	defer tr.end(root)
	t0 := time.Now()

	id := tr.begin("pipeline.build_world", root, op)
	w, err := pipeline.BuildWorld(r.cfg)
	tr.end(id)
	if err != nil {
		return p, keep, err
	}
	p.build = time.Since(t0)

	id = tr.begin("pipeline.run_inference", root, op)
	out, err := w.RunInference(ctx, core.DefaultActiveConfig())
	tr.end(id)
	p.infer = time.Since(t0) - p.build

	id = tr.begin("pipeline.close", root, op)
	cerr := w.Close()
	tr.end(id)
	p.total = time.Since(t0)
	if err == nil {
		err = cerr
	}
	return p, batchKeep{w, out}, err
}

// checkBatch is the pass's correctness check: every pass of a run
// yields one fingerprint, and the paper's world yields the golden
// counts.
func (r *run) checkBatch(res *core.Result, queries int, want *uint64) error {
	fp := res.Fingerprint()
	if *want == 0 {
		*want = fp
	}
	if fp != *want {
		return fmt.Errorf("batch-paper: fingerprint %016x differs from the first pass's %016x", fp, *want)
	}
	if r.opt.worldSeed == paperSeed && !r.opt.smoke {
		if res.TotalLinks() != goldenLinks || queries != goldenLGQueries {
			return fmt.Errorf("batch-paper: %d links / %d LG queries, golden is %d / %d",
				res.TotalLinks(), queries, goldenLinks, goldenLGQueries)
		}
	}
	return nil
}

// batchPhase runs passes for the given time (at least one) and returns
// their timings.
func (r *run) batchPhase(ctx context.Context, tr *tracer, length time.Duration, want *uint64, last *batchKeep) (passes []batchPass, wall time.Duration) {
	t0 := time.Now()
	for n := 0; n == 0 || time.Since(t0) < length; n++ {
		p, keep, err := r.batchPass(ctx, tr, r.attempted)
		if err == nil {
			err = r.checkBatch(keep.out.Result, keep.out.Active.TotalQueries(), want)
		}
		r.op(err)
		if err != nil {
			continue
		}
		*last = keep
		passes = append(passes, p)
	}
	return passes, time.Since(t0)
}

func passMS(passes []batchPass, pick func(batchPass) time.Duration) []float64 {
	out := make([]float64, len(passes))
	for i, p := range passes {
		out[i] = float64(pick(p)) / 1e6
	}
	return out
}

func runBatch(r *run) {
	ctx := context.Background()
	var want uint64
	var last batchKeep

	// Set-up is one discarded warm-up pass: heap growth, page faults
	// and the LG server's first connections all land here.
	t0 := time.Now()
	r.batchPhase(ctx, nil, 0, &want, &last)
	setup := time.Since(t0)

	total := func(p batchPass) time.Duration { return p.total }
	if !r.traced() {
		passes, wall := r.batchPhase(ctx, nil, r.budget(), &want, &last)
		heap := liveHeapMB()
		runtime.KeepAlive(last)

		n := len(passes)
		r.e2e("setup_s", setup.Seconds(), "s", 0)
		r.e2e("build_s_p50", median(passMS(passes, func(p batchPass) time.Duration { return p.build }))/1e3, "s", n)
		r.e2e("infer_s_p50", median(passMS(passes, func(p batchPass) time.Duration { return p.infer }))/1e3, "s", n)
		r.e2e("live_heap_mb", heap, "MB", 0)
		r.headline["setup_s"] = setup.Seconds()
		r.headline["ops_per_s"] = float64(n) / wall.Seconds()
		// A run has under twenty passes, so no percentile beyond the
		// median has ten samples past it: the tail is the median.
		r.headline["op_ms_tail"] = median(passMS(passes, total))
		r.headline["live_heap_mb"] = heap
		return
	}

	// Traced: a third of the time each for untraced reference passes,
	// the same passes under spans, and passes decomposed into stages.
	third := r.budget() / 3
	before := sampleProcess()
	ref, _ := r.batchPhase(ctx, nil, third, &want, &last)
	traced, _ := r.batchPhase(ctx, r.tr, third, &want, &last)
	t0 = time.Now()
	var dec []decomposed
	for n := 0; n == 0 || time.Since(t0) < third; n++ {
		d, err := r.batchDecomposed(ctx, r.attempted, want)
		r.op(err)
		if err == nil {
			dec = append(dec, d)
		}
	}
	r.processLayers(before)

	r.spans = mergeSpans(r.tr)
	self := selfTimes(r.spans)
	ms := func(name string) float64 { return median(selfMS(r.spans, self, name)) }
	r.layer("pipeline.build_s_p50", median(passMS(traced, func(p batchPass) time.Duration { return p.build }))/1e3, len(traced))
	r.layer("pipeline.infer_s_p50", median(passMS(traced, func(p batchPass) time.Duration { return p.infer }))/1e3, len(traced))
	if base := median(passMS(ref, total)); base > 0 {
		r.layer("trace.overhead_frac", (median(passMS(traced, total))-base)/base, len(traced))
	}

	n := len(dec)
	stages := []string{"topology.generate", "propagate.engine_build", "propagate.rsribs", "collector.write_rib",
		"mrt.read_dump", "collector.write_updates", "mrt.read_updates"}
	sum := 0.0
	for _, s := range stages {
		r.layer(s+"_ms", ms(s), n)
		sum += ms(s)
	}
	if wall := ms("pipeline.build_world"); wall > 0 {
		// Above 1 when BuildWorld overlaps stages that ran one after
		// another here; irr and the registries are not in the sum.
		r.layer("pipeline.build_overlap", sum/wall, n)
	}
	var d decomposed
	if n > 0 {
		d = dec[n-1]
	}
	r.layer("propagate.tree_us", ms("propagate.tree")*1e3/treeSample, n)
	r.layer("collector.rib_bytes", float64(d.ribBytes), 0)
	if s := ms("mrt.read_dump"); s > 0 {
		r.layer("mrt.read_dump_mb_per_s", float64(d.ribBytes)/1e6/(s/1e3), n)
	}
	if d.updates > 0 {
		r.layer("bgp.encode_ns", ms("bgp.encode")*1e6/float64(d.updates), d.updates)
		r.layer("bgp.decode_ns", ms("bgp.decode")*1e6/float64(d.updates), d.updates)
	}
	for _, s := range []string{"core.dictionary", "core.run_passive", "relation.infer", "relation.incr_once",
		"lg.active", "core.merge", "core.infer_links"} {
		r.layer(s+"_ms", ms(s), n)
	}
	r.layer("core.passive_paths", float64(d.paths), 0)
	r.layer("lg.queries", float64(d.queries), 0)
	if d.queries > 0 {
		r.layer("lg.query_us", ms("lg.active")*1e3/float64(d.queries), d.queries)
	}
	r.layer("core.links", float64(d.links), 0)
	r.layer("trace.coverage_frac", coverage(r.spans, self, "batch.decomposed"), n)
}

// coverage is the share of the named root spans' wall time that their
// child spans account for.
func coverage(spans []span, self []int64, root string) float64 {
	var wall, own int64
	for _, s := range spans {
		if s.Name == root {
			wall += s.End - s.Start
			own += self[s.ID]
		}
	}
	if wall == 0 {
		return 0
	}
	return 1 - float64(own)/float64(wall)
}

// treeSample is how many destinations propagate.tree_us averages over.
const treeSample = 512

// decomposed carries the counts a decomposed pass saw.
type decomposed struct {
	ribBytes, updates, paths, queries, links int
}

// batchDecomposed is the pass taken apart: the harness calls each
// stage's public function itself, one after another, each under its
// own span. The build stages repeat what pipeline.BuildWorld does
// (collector name, feeder count and update-trace options are copied
// from it); the inference stages then run over a BuildWorld world,
// because the LG server is the World's own.
func (r *run) batchDecomposed(ctx context.Context, op int, want uint64) (decomposed, error) {
	var d decomposed
	tr := r.tr
	root := tr.begin("batch.decomposed", -1, op)
	defer tr.end(root)
	stage := func(name string, f func() error) error {
		id := tr.begin(name, root, op)
		defer tr.end(id)
		return f()
	}

	var topo *topology.Topology
	var eng, eng1 *propagate.Engine
	dests := make([]bgp.ASN, treeSample)
	var ribBuf, updBuf bytes.Buffer
	var updates []*mrt.BGP4MPMessage
	var wire [][]byte
	var w *pipeline.World
	defer func() {
		if w != nil {
			w.Close()
		}
	}()
	var dict *core.Dictionary
	var passive *core.PassiveResult
	var batchRels *relation.Inference
	var active *core.ActiveResult
	var merged *core.Observations
	var res *core.Result
	hints := make(map[bgp.ASN][]bgp.Prefix)
	stages := []struct {
		name string
		f    func() error
	}{
		{"topology.generate", func() (err error) { topo, err = topology.Generate(r.cfg); return }},
		{"propagate.engine_build", func() error { eng = propagate.NewEngine(topo, 0); return nil }},
		{"propagate.tree_engine", func() error {
			// A cache of one tree, so every destination sampled
			// below is computed, never looked up.
			eng1 = propagate.NewEngine(topo, 1)
			rng := rand.New(rand.NewSource(r.opt.seed))
			for i := range dests {
				dests[i] = topo.Order[rng.Intn(len(topo.Order))]
			}
			return nil
		}},
		{"propagate.tree", func() error {
			for _, dest := range dests {
				if eng1.Tree(dest) == nil {
					return fmt.Errorf("no tree toward %s", dest)
				}
			}
			return nil
		}},
		{"propagate.rsribs", func() error { propagate.BuildRSRIBs(eng, 4); return nil }},
		{"collector.write_rib", func() error {
			err := collector.New("rrc-synth", eng, nil, 4).WriteRIB(&ribBuf, pipeline.Timestamp)
			d.ribBytes = ribBuf.Len()
			return err
		}},
		{"mrt.read_dump", func() error { _, err := mrt.ReadDump(&ribBuf); return err }},
		{"collector.write_updates", func() error {
			return collector.New("rrc-synth", eng, nil, 4).WriteUpdates(&updBuf, pipeline.Timestamp.Add(time.Hour),
				collector.UpdateOptions{Churn: 200, TransientPaths: 12, PoisonedPaths: 8, BogonPaths: 6, Seed: r.cfg.Seed + 2})
		}},
		{"mrt.read_updates", func() (err error) { updates, err = mrt.ReadUpdates(&updBuf); return }},
		{"bgp.encode", func() error {
			for _, u := range updates {
				b, err := bgp.Encode(u.Message)
				if err != nil {
					return err
				}
				wire = append(wire, b)
			}
			d.updates = len(updates)
			return nil
		}},
		{"bgp.decode", func() error {
			for i, u := range updates {
				if _, err := bgp.Decode(wire[i], u.AS4); err != nil {
					return err
				}
			}
			return nil
		}},
		// Inference, over a BuildWorld world.
		{"pipeline.build_world", func() (err error) { w, err = pipeline.BuildWorld(r.cfg); return }},
		{"pipeline.start_lgs", func() error { return w.StartLGs() }},
		{"core.dictionary", func() (err error) { dict, err = w.Dictionary(); return }},
		{"core.run_passive", func() (err error) {
			passive, err = core.RunPassive(w.Dumps, w.Updates, dict)
			return
		}},
		{"relation.infer", func() error { batchRels = relation.Infer(passive.Paths); return nil }},
		{"relation.incr_once", func() error {
			// The incremental twin fed once with the same paths.
			inc := relation.NewIncremental(passive.Paths.Store())
			for i := 0; i < passive.Paths.Len(); i++ {
				inc.AddPath(passive.Paths.ID(i))
			}
			inc.Commit()
			if inc.LinkCount() != batchRels.LinkCount() {
				return fmt.Errorf("incremental twin labels %d links, batch %d", inc.LinkCount(), batchRels.LinkCount())
			}
			return nil
		}},
		{"pipeline.hints", func() error {
			for p, origin := range passive.PrefixOrigins {
				hints[origin] = append(hints[origin], p)
			}
			return nil
		}},
		{"lg.active", func() (err error) {
			active, err = core.RunActive(ctx, dict, w.LGEndpoints(0), passive.Obs, hints, core.DefaultActiveConfig())
			return
		}},
		{"core.merge", func() error {
			merged = core.NewObservations()
			merged.Merge(passive.Obs)
			merged.Merge(active.Obs)
			return nil
		}},
		{"core.infer_links", func() error { res = core.InferLinks(dict, merged); return nil }},
	}
	for _, s := range stages {
		if err := stage(s.name, s.f); err != nil {
			return d, fmt.Errorf("batch-paper: %s: %w", s.name, err)
		}
	}
	d.paths, d.queries, d.links = passive.Paths.Len(), active.TotalQueries(), res.TotalLinks()
	return d, r.checkBatch(res, d.queries, &want)
}
